"""Mixed-radix arithmetic for the Vilenkin group and its index set.

Everything in this module is exact integer arithmetic: the generalized
number system M_0 = 1, M_{k+1} = m_k * M_k, digit expansions with their
statistics (top, bottom, rho and the variation counts), and the
coordinatewise modular group law.  All values are immutable; functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Scaled bases are kept inside the signed 64-bit range so that index
# arrays stay plain int64 end to end.
_INT64_MAX = 2**63 - 1

# Grids are refused above SIZE_CAP cosets (a desk-scale instrument, not a
# bulk FFT library); the scans, Lebesgue tables and cumulative rows, whose
# tables grow faster than M_N, above SCAN_SIZE_CAP; and the calls that build
# an (M_N, M_N / M_R) table or take S_n f for every n, quadratic in M_N,
# above QUADRATIC_SIZE_CAP.
SIZE_CAP = 1 << 20
SCAN_SIZE_CAP = 1 << 14
QUADRATIC_SIZE_CAP = 1 << 12


class BaseOverflowError(OverflowError):
    """A scaled base M_k left the 64-bit integer range."""


def _integers(values, what: str, low: int | None = None, high: int | None = None, ndim: int | None = 0) -> np.ndarray:
    """``values`` as int64 if it holds integers in ``low``..``high`` (None:
    unbounded) with at most ``ndim`` axes (None: any).  The one place that
    refuses an index, order, rank, limit or digit: a float, even 2.0, or a
    bool is refused, never truncated, by one ``ValueError`` naming the first
    bad entry or the shape.  Past int64 with no ``high``: ``BaseOverflowError``."""
    lo, hi = -math.inf if low is None else low, math.inf if high is None else high
    if type(values) is int or isinstance(values, np.integer):
        if lo <= values <= hi and -_INT64_MAX - 1 <= values <= _INT64_MAX:
            return np.array(values, dtype=np.int64)  # one integer, the common case: no reductions
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not isinstance(values, (np.ndarray, np.generic)):
        arr = np.asarray(values, dtype=object)  # numpy reads [1, 2**63] and [1, 2.5] as float64
    kind = arr.dtype.kind
    if ndim is not None and arr.ndim > ndim:
        got = f"of shape {arr.shape}"
    elif arr.size and not (kind in "iu" or (kind == "O" and all(type(v) is int for v in arr.ravel().tolist()))):
        bad = next(v for v in arr.ravel().tolist() if type(v) is not int)
        got = repr(np.asarray(bad).tolist())
    elif arr.size and ((low is not None and arr.min() < low) or (high is not None and arr.max() > high)):
        got = str(arr[(arr < lo) | (arr > hi)][0])
    elif kind in "uO" and arr.size and not -_INT64_MAX - 1 <= arr.min() <= arr.max() <= _INT64_MAX:
        raise BaseOverflowError(f"{what} exceeds the 64-bit integer width")
    else:
        return arr.astype(np.int64, copy=False)
    bounds = f" in {low}..{high}" if high is not None else f" >= {low}" if low is not None else ""
    shapes = {0: "", 1: " or a 1-D sequence of them", None: " or an array of them"}[ndim]
    raise ValueError(f"{what} {got} is not an integer{bounds}{shapes}")


@dataclass(frozen=True)
class GeneratorSequence:
    """Bounded sequence of radices m = (m_0, m_1, ...), every m_k >= 2.

    Only a finite pattern is stored; it extends to an unbounded sequence
    either cyclically (``cyclic=True``, text form ``"2,3^"``) or by
    repeating the last entry (text form ``"2,3,4"``).  ``"2^"`` is the
    constant-2 Walsh-Paley case.
    """

    pattern: tuple[int, ...]
    cyclic: bool = False

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("generator sequence needs at least one radix")
        for k, mk in enumerate(self.pattern):
            if mk < 2:
                raise ValueError(f"radix m_{k} = {mk}, but every radix must be >= 2")

    @classmethod
    def parse(cls, text: str) -> "GeneratorSequence":
        """Parse the compact text form used by CLI flags and config files."""
        body = text.strip()
        cyclic = body.endswith("^")
        if cyclic:
            body = body[:-1]
        if not body:
            raise ValueError(f"cannot parse generator sequence {text!r}")
        try:
            pattern = tuple(int(tok) for tok in body.split(","))
        except ValueError:
            raise ValueError(f"cannot parse generator sequence {text!r}") from None
        return cls(pattern, cyclic=cyclic)

    def format(self) -> str:
        """Inverse of :meth:`parse`; used when embedding configs in output files."""
        return ",".join(str(mk) for mk in self.pattern) + ("^" if self.cyclic else "")

    def radix(self, k: int) -> int:
        """m_k for any k >= 0."""
        if k < len(self.pattern):
            return self.pattern[k]
        if self.cyclic:
            return self.pattern[k % len(self.pattern)]
        return self.pattern[-1]

    def radices(self, count: int) -> tuple[int, ...]:
        """(m_0, ..., m_{count-1}), one cached tuple per sequence and count."""
        return _radices(self.pattern, self.cyclic, count)

    @property
    def max_radix(self) -> int:
        """lambda = sup_k m_k; finite because the tail repeats the pattern."""
        return max(self.pattern)

    def scaled_bases(self, resolution: int) -> list[int]:
        """M_0..M_N with M_0 = 1 and M_{k+1} = m_k * M_k, overflow-checked.

        The list is a fresh copy of one cached tuple, so callers may mutate it.
        """
        if resolution < 0:
            raise ValueError("resolution must be nonnegative")
        return list(_scaled_bases(self.pattern, self.cyclic, resolution))

    def base(self, k: int) -> int:
        """M_k."""
        return self.scaled_bases(k)[-1]

    def size(self, resolution: int) -> int:
        """Number of rank-N cosets, M_N."""
        return self.base(resolution)


WALSH = GeneratorSequence((2,), cyclic=True)


def _checked_size(m: GeneratorSequence, resolution: int, cap: int = SIZE_CAP) -> int:
    """M_N, refused above ``cap``: the one comparison of a grid with a size
    cap, made before any array of the grid is allocated."""
    size = m.size(resolution)
    if size > cap:
        raise ValueError(f"M_N = {size} exceeds the size cap {cap}")
    return size


@lru_cache(maxsize=1024)
def _radices(pattern: tuple[int, ...], cyclic: bool, count: int) -> tuple[int, ...]:
    m = GeneratorSequence(pattern, cyclic)
    return tuple(m.radix(k) for k in range(count))


@lru_cache(maxsize=1024)
def _scaled_bases(pattern: tuple[int, ...], cyclic: bool, resolution: int) -> tuple[int, ...]:
    # lru_cache does not cache exceptions, so overflow is raised on every call.
    m = GeneratorSequence(pattern, cyclic)
    bases = [1]
    for k in range(resolution):
        nxt = bases[-1] * m.radix(k)
        if nxt > _INT64_MAX:
            raise BaseOverflowError(
                f"M_{k + 1} exceeds the 64-bit integer width for m={m.format()}"
            )
        bases.append(nxt)
    return tuple(bases)


@dataclass(frozen=True)
class VIndex:
    """A positive integer together with its mixed-radix digit expansion.

    ``digits`` is little-endian and trimmed to length ``top + 1``.
    ``top`` is |n| (highest nonzero digit position), ``bottom`` is <n>
    (lowest nonzero position); ``m_top`` and ``m_bottom`` are the scaled
    bases M_|n| and M_<n> that the paper's estimates are stated in.
    """

    value: int
    digits: tuple[int, ...]
    top: int
    bottom: int
    m_top: int
    m_bottom: int

    @property
    def rho(self) -> int:
        """rho(n) = |n| - <n>, the digit-spread divergence gauge."""
        return self.top - self.bottom


def decompose(n: int, m: GeneratorSequence) -> VIndex:
    """Digit expansion of n >= 1 with its statistics.

    n = 0 has no highest/lowest nonzero digit, so it is rejected; callers
    treat S_0 f = 0 as a separate trivial case.
    """
    n = int(_integers(n, "index", 1))
    digits: list[int] = []
    rest = n
    k = 0
    while rest:
        mk = m.radix(k)
        digits.append(rest % mk)
        rest //= mk
        k += 1
    top = len(digits) - 1
    bottom = next(j for j, d in enumerate(digits) if d)
    bases = _scaled_bases(m.pattern, m.cyclic, top)  # M_top <= n: no overflow
    return VIndex(n, tuple(digits), top, bottom, m_top=bases[top], m_bottom=bases[bottom])


class IndexStats(NamedTuple):
    """The statistics of :class:`VIndex` for an array of indices, one entry each."""

    top: np.ndarray
    bottom: np.ndarray
    m_top: np.ndarray
    m_bottom: np.ndarray


def index_stats(indices, m: GeneratorSequence, resolution: int) -> IndexStats:
    """Vectorized ``decompose`` statistics for one index or a 1-D array of 1 <= n <= M_N.

    M_|n| is the largest scaled base not above n, and M_<n> the largest one
    dividing n; n = M_N itself has top = bottom = N.
    """
    bases, _ = _digit_arrays(m.pattern, m.cyclic, resolution)
    idx = _integers(indices, "index", 1, int(bases[-1]), ndim=1)
    top = np.searchsorted(bases, idx, side="right") - 1
    bottom = np.count_nonzero(idx[..., None] % bases[1:] == 0, axis=-1)
    return IndexStats(top, bottom, bases[top], bases[bottom])


def compose(digits: tuple[int, ...] | list[int], m: GeneratorSequence) -> int:
    """Reconstruct n = sum_j n_j M_j from little-endian digits."""
    bases = m.scaled_bases(len(digits))
    return sum(int(_integers(d, f"digit n_{j}", 0, m.radix(j) - 1)) * bases[j] for j, d in enumerate(digits))


def variation_counts(
    indices, m: GeneratorSequence, resolution: int, convention: str = "from1"
) -> tuple[np.ndarray, np.ndarray]:
    """Variation counts (v, v*) controlling the Lebesgue constant bracket,
    for one index or a 1-D array of 1 <= n <= M_N.

    With delta_j = sign(n_j) and delta*_j = |(-n_j mod m_j) - 1| * delta_j:

        v  = sum_j |delta_{j+1} - delta_j| + delta_0
        v* = sum_j delta*_j

    ``convention`` selects whether the sums start at j = 1 (the printed
    form) or at j = 0; the discrepancy is decided empirically by the
    exact-Lebesgue-constant oracle, so both stay available.  The digits
    are read at N + 1 positions, so n = M_N has its one digit; that top
    digit is n // M_N, so only M_N has to fit in 64 bits.
    """
    if convention not in ("from0", "from1"):
        raise ValueError(f"unknown variation convention {convention!r}")
    start = 0 if convention == "from0" else 1
    bases, radices = _digit_arrays(m.pattern, m.cyclic, resolution)
    idx = _integers(indices, "index", 1, int(bases[-1]), ndim=1)
    digits = np.concatenate([_digits(idx, m, resolution), idx[..., None] // bases[-1]], axis=-1)
    radices = np.append(radices, m.radix(resolution))
    delta = digits != 0
    # a boolean diff is |delta_{j+1} - delta_j|; delta_{N+1} = 0 because n <= M_N
    v = delta[..., 0] + np.diff(delta, axis=-1, append=False)[..., start:].sum(axis=-1)
    # |(-n_j mod m_j) - 1| = m_j - n_j - 1 for 1 <= n_j < m_j
    v_star = np.where(delta, radices - digits - 1, 0)[..., start:].sum(axis=-1)
    return v, v_star


def variation(n: VIndex, m: GeneratorSequence, convention: str = "from1") -> tuple[int, int]:
    """(v, v*) of one index; see :func:`variation_counts`."""
    v, v_star = variation_counts(n.value, m, n.top + 1, convention)
    return int(v), int(v_star)


@dataclass(frozen=True)
class GroupPoint:
    """Element of G_m truncated to a finite resolution: coords x_k in Z_{m_k}."""

    coords: tuple[int, ...]
    generators: GeneratorSequence

    def __post_init__(self) -> None:
        for k, xk in enumerate(self.coords):
            _integers(xk, f"coordinate x_{k}", 0, self.generators.radix(k) - 1)

    @property
    def resolution(self) -> int:
        return len(self.coords)


def _check_compatible(x: GroupPoint, y: GroupPoint) -> None:
    if x.resolution != y.resolution:
        raise ValueError("group points have mismatched resolutions")
    if x.generators.radices(x.resolution) != y.generators.radices(y.resolution):
        raise ValueError("group points have mismatched radices")


def group_add(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Coordinatewise sum modulo the radices."""
    _check_compatible(x, y)
    i = index_add(point_to_index(x), point_to_index(y), x.generators, x.resolution)
    return index_to_point(int(i), x.generators, x.resolution)


def group_sub(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Coordinatewise difference modulo the radices (inverse of group_add)."""
    _check_compatible(x, y)
    i = index_sub(point_to_index(x), point_to_index(y), x.generators, x.resolution)
    return index_to_point(int(i), x.generators, x.resolution)


def point_to_index(x: GroupPoint) -> int:
    """Little-endian mixed-radix place value: the coset enumeration order."""
    return compose(x.coords, x.generators)


def index_to_point(i: int, m: GeneratorSequence, resolution: int) -> GroupPoint:
    i = _integers(i, "coset index", 0, m.size(resolution) - 1)
    return GroupPoint(tuple(int(d) for d in _digits(i, m, resolution)), m)


@lru_cache(maxsize=16)
def _digit_table(pattern: tuple[int, ...], cyclic: bool, resolution: int) -> np.ndarray:
    m = GeneratorSequence(pattern, cyclic)
    bases = _scaled_bases(pattern, cyclic, resolution)
    columns = np.empty((resolution, _checked_size(m, resolution)), dtype=np.min_scalar_type(m.max_radix - 1))
    for k, mk in enumerate(m.radices(resolution)):
        # digit k of x is (x // M_k) % m_k: runs of M_k equal digits cycling 0..m_k-1
        columns[k].reshape(-1, mk, bases[k])[...] = np.arange(mk, dtype=columns.dtype)[:, None]
    columns.setflags(write=False)
    return columns.T


def digit_table(m: GeneratorSequence, resolution: int) -> np.ndarray:
    """Read-only (M_N, N) array; row i holds the digits of i, x_0 first.

    The dtype is the narrowest unsigned type that holds every digit (uint8
    up to radix 256), and each digit column ``[:, k]`` is contiguous: the
    table is the transpose of one (N, M_N) array.  Take products of digits
    in a wider type.  This single table backs coset enumeration for
    transforms, kernels and I/O, so every component sees the same ordering.
    """
    return _digit_table(m.pattern, m.cyclic, resolution)


@lru_cache(maxsize=256)
def _digit_arrays(pattern: tuple[int, ...], cyclic: bool, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (M_0..M_N, m_0..m_{N-1}) behind every vectorized digit helper."""
    bases = np.asarray(_scaled_bases(pattern, cyclic, resolution), dtype=np.int64)
    radices = np.asarray(GeneratorSequence(pattern, cyclic).radices(resolution), dtype=np.int64)
    bases.setflags(write=False)
    radices.setflags(write=False)
    return bases, radices


def _digits(idx: np.ndarray, m: GeneratorSequence, resolution: int) -> np.ndarray:
    """``digits_of`` for an int64 array that its caller has already checked."""
    bases, radices = _digit_arrays(m.pattern, m.cyclic, resolution)
    return (idx[..., None] // bases[:-1]) % radices


def digits_of(indices: np.ndarray, m: GeneratorSequence, resolution: int) -> np.ndarray:
    """Vectorized digit expansion (no statistics) for an integer index array:
    the N digits of each index mod M_N."""
    return _digits(_integers(indices, "coset index", ndim=None), m, resolution)


def index_add(i, j, m: GeneratorSequence, resolution: int) -> np.ndarray:
    """Group law on coset indices, i - (0 - j), broadcasting over array arguments."""
    return index_sub(i, index_sub(0, j, m, resolution), m, resolution)


def index_sub(i, j, m: GeneratorSequence, resolution: int) -> np.ndarray:
    """Inverse group law on coset indices, broadcasting over array arguments.

    Built one digit at a time, so no (..., N) digit tensor is materialized;
    the integers equal ``((digits_of(i) - digits_of(j)) % radices) @ bases[:-1]``.
    """
    i = _integers(i, "coset index", ndim=None)
    j = _integers(j, "coset index", ndim=None)
    bases, radices = _digit_arrays(m.pattern, m.cyclic, resolution)
    out = np.zeros(np.broadcast_shapes(i.shape, j.shape), dtype=np.int64)
    for base, mk in zip(bases.tolist(), radices.tolist()):
        out += (i // base % mk - j // base % mk) % mk * base
    return out[()]  # a 0-d result unwraps to a scalar, as the matmul form gives


def coset_mask(m: GeneratorSequence, resolution: int, rank: int, base_index: int = 0) -> np.ndarray:
    """Boolean grid mask of I_rank(x0): indices congruent to x0 mod M_rank,
    for a base index 0 <= x0 < M_rank."""
    m_rank = m.base(int(_integers(rank, "coset rank", 0, resolution)))
    base_index = _integers(base_index, "coset base index", 0, m_rank - 1)
    idx = np.arange(_checked_size(m, resolution), dtype=np.int64)
    return (idx % m_rank) == base_index
