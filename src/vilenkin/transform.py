"""Vilenkin characters, spectral transforms, Dirichlet kernels, partial sums.

Grid functions live on the rank-N cosets of G_m in little-endian coset
order (x_0 fastest), so index i <-> point with digits of i.  In that
layout the Paley-ordered character transform is a multidimensional DFT
over Z_{m_0} x ... x Z_{m_{N-1}} with no reindexing permutation: the fast
path is one 1-D FFT pass per digit, the naive path is the literal
coefficient formula and serves as its oracle.

All complex arithmetic is 64-bit; the roots of unity for each radix come
from one cached table so repeated runs are bit-identical.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .group import (
    QUADRATIC_SIZE_CAP,
    SCAN_SIZE_CAP,
    SIZE_CAP,
    GeneratorSequence,
    GroupPoint,
    VIndex,
    _checked_size,
    _digits,
    _integers,
    digit_table,
    index_sub,
)

# Batched kernels, partial sums and H_p norms go in runs of at most this
# many grid points (one row at least): each complex buffer of a run stays
# within 512 KiB, so peak memory does not grow with the number of rows.
_BATCH_POINTS = 1 << 15

# The naive oracles take their literal character rows _NAIVE_BLOCK at a time;
# cumulative_rows sums and yields its rows _ROW_BLOCK at a time.
_NAIVE_BLOCK = 512
_ROW_BLOCK = 256

_MAGIC = b"VGF1"


def _grid_array(m: GeneratorSequence, resolution: int, data, what: str) -> np.ndarray:
    """``data`` as complex128 with M_N entries on its last axis, leading axes a batch."""
    size = _checked_size(m, resolution)
    data = np.asarray(data, dtype=np.complex128)
    if data.shape[-1:] != (size,):
        raise ValueError(f"{what} vector has length {data.shape}, expected M_N = {size}")
    return data


def _lone(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, refused if it holds a batch: every ``lone_only`` operation passes here."""
    if values.ndim > 1:
        raise ValueError(f"{what} takes one function, not a batch")
    return values


@lru_cache(maxsize=64)
def unit_roots(radix: int) -> np.ndarray:
    """exp(2 pi i u / m) for u = 0..m-1; the only root table in the package."""
    roots = np.exp(2j * np.pi * np.arange(radix) / radix)
    roots.setflags(write=False)
    return roots


def _root_products(radix: int, digits) -> np.ndarray:
    """Rows P[d] of the root-power table P[d, v] = r^(d v) = ``unit_roots(radix)[(d v) % radix]``,
    one per d in ``digits`` (one row for a scalar d), for v = 0..radix-1.

    A character factor r_k^(n_k x_k) is then a gather ``P[n_k][x_k]`` by the
    narrow digit column x_k, with no product or modulo per grid point.  The
    product d v is taken here in int64, so it never wraps.  Only the rows
    asked for are built, radix entries each, so a single radix as large as
    ``SIZE_CAP`` needs no radix x radix table.
    """
    powers = np.multiply.outer(np.asarray(digits, dtype=np.int64), np.arange(radix))
    powers %= radix
    return unit_roots(radix)[powers]


@dataclass
class GridFunction:
    """Complex function on G_m constant on rank-N cosets.

    ``values[i]`` is the value on the coset with little-endian index i;
    the Haar integral is the plain mean of ``values``.  Leading axes, if
    any, hold a batch of functions on the same grid, one per row of shape
    (M_N,).  ``forward``, ``inverse``, ``coarse_sums``, ``conditional_expectation``,
    ``+``, ``-``, scalar ``*`` and the norms ``lp_norm``, ``maximal_function``,
    ``running_maxima``, ``hardy_norm`` and ``modulus_hp`` are ``per_row``: each
    row is bitwise its lone function.  The rest are ``lone_only`` and refuse a
    batch: ``integral``, ``partial_sum`` (one row per order for a sequence of
    orders, as ``dirichlet_closed`` and ``dirichlet_average`` give kernels),
    ``partial_sum_convolution``, ``forward_naive``, ``inverse_naive``, the
    writers, ``weak_lp``, ``restricted_maximal`` and ``validate_atom``.  The
    table in ``tests/test_contract.py`` lists both kinds.
    """

    generators: GeneratorSequence
    resolution: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _grid_array(self.generators, self.resolution, self.values, "value")

    @property
    def size(self) -> int:
        return self.values.shape[-1]

    def integral(self) -> complex:
        return complex(_lone(self.values, "the integral").mean())

    def _like(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.generators, self.resolution, values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same(other)
        return self._like(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same(other)
        return self._like(self.values - other.values)

    def __rmul__(self, scalar: complex) -> "GridFunction":
        return self._like(scalar * self.values)

    def _check_same(self, other: "GridFunction") -> None:
        if (
            self.resolution != other.resolution
            or self.generators.radices(self.resolution) != other.generators.radices(other.resolution)
        ):
            raise ValueError("grid functions live on different grids")


@dataclass
class SpectralVector:
    """Vilenkin-Fourier coefficients f^(0..M_N-1) at resolution N (leading
    axes hold a batch of spectra, as for ``GridFunction``)."""

    generators: GeneratorSequence
    resolution: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = _grid_array(self.generators, self.resolution, self.coeffs, "coefficient")

    @property
    def size(self) -> int:
        return self.coeffs.shape[-1]


def grid_function(m: GeneratorSequence, resolution: int, values) -> GridFunction:
    """A grid function from finite values; nan and inf are refused where data enters."""
    f = GridFunction(m, resolution, np.asarray(values, dtype=np.complex128))
    finite = np.isfinite(f.values)
    if not finite.all():
        raise ValueError(f"grid_function: value {int(np.argmin(finite))} is not finite")
    return f


def zero(m: GeneratorSequence, resolution: int) -> GridFunction:
    return GridFunction(m, resolution, np.zeros(_checked_size(m, resolution), dtype=np.complex128))


def constant(m: GeneratorSequence, resolution: int, value: complex = 1.0) -> GridFunction:
    return GridFunction(m, resolution, np.full(_checked_size(m, resolution), value, dtype=np.complex128))


def character(n: VIndex, x: GroupPoint) -> complex:
    """psi_n(x) = prod_k exp(2 pi i n_k x_k / m_k), evaluated pointwise."""
    if n.top >= x.resolution:
        raise ValueError("point resolution too small for the character index")
    out = complex(1.0)
    for k, nk in enumerate(n.digits):
        if nk:
            mk = x.generators.radix(k)
            out *= complex(unit_roots(mk)[(nk * x.coords[k]) % mk])
    return out


def _widen(rows: np.ndarray, period: int) -> np.ndarray:
    """(K, p) rows repeated along their last axis to (K, period), p dividing period;
    the rows themselves when p = period."""
    count, p = rows.shape
    return rows if p == period else rows[:, None, :].repeat(period // p, axis=1).reshape(count, period)


def character_block(m: GeneratorSequence, resolution: int, indices) -> np.ndarray:
    """Rows psi_n(x) over the full grid for each n in ``indices``, one index
    or a 1-D sequence of them (one row per index, as for ``dirichlet_closed``).

    psi_n(x) is the running product of the factors r_k^(n_k x_k), x_0's
    first, over every digit k that some row has nonzero.  The product over
    the digits below k depends on x mod M_k alone, so it is kept on one
    period: at each such k the period is repeated to M_k and multiplied by
    the m_k factors r_k^(n_k v) into the period M_{k+1}, the same products
    in the same order as on the full grid, and the last period is repeated
    to M_N.
    """
    idx = _integers(indices, "character index", 0, m.size(resolution) - 1, ndim=1)
    return _character_rows(m, resolution, idx)


def _character_rows(m: GeneratorSequence, resolution: int, idx: np.ndarray) -> np.ndarray:
    """``character_block`` for int64 indices in 0..M_N - 1 that the caller has checked."""
    size = _checked_size(m, resolution)
    ndig = _digits(idx.reshape(-1), m, resolution)
    bases = m.scaled_bases(resolution)
    count = ndig.shape[0]
    out = np.ones((count, 1), dtype=np.complex128)
    for k in np.flatnonzero(ndig.any(axis=0)).tolist():
        # the period repeated m_k times, then each copy times its factor in
        # place: a broadcast product would hold numpy's operand buffers too
        out = _widen(out, bases[k + 1]).reshape(count, m.radix(k), bases[k])
        out *= _root_products(m.radix(k), ndig[:, k])[:, :, None]
        out = out.reshape(count, bases[k + 1])
    return _widen(out, size).reshape(idx.shape + (size,))


def character_values(m: GeneratorSequence, n: int, resolution: int) -> np.ndarray:
    """psi_n on the whole grid."""
    return character_block(m, resolution, [_integers(n, "character index", 0, m.size(resolution) - 1)])[0]


# A digit pass costs a few numpy calls whatever its size, about the time it
# takes to write this many values (see _prefix_stop).
_PASS_VALUES = 1 << 12


@lru_cache(maxsize=64)
def _zero_fibers_stay_zero(radix: int) -> bool:
    """Whether ``np.fft.ifft`` turns a fiber of +0.0 into +0.0 bits at this
    radix.  pocketfft's Bluestein lengths (89, 101, 103, ...) leave some
    -0.0, so a grid with one of them keeps its full inverse passes."""
    return not np.fft.ifft(np.zeros(radix, np.complex128)).view(np.int64).any()


def _prefix_stop(stop: int, rows: int, m: GeneratorSequence, resolution: int) -> int:
    """How far the inverse passes read ``rows`` spectra that are +0.0 from
    column ``stop`` on: ``stop``, or M_N when that would not pay.  A pass
    over the prefix writes fewer values than the M_N of a full pass, but a
    radix-2 pass writes them through strided or transposed views at about
    twice the cost per value, while a pocketfft pass costs about four times a
    radix-2 value either way.  In those units the prefix is taken when it
    saves ``_PASS_VALUES`` per pass."""
    size, stop = m.size(resolution), max(1, stop)
    radices = m.radices(resolution)
    if stop >= size or not all(mk == 2 or _zero_fibers_stay_zero(mk) for mk in radices):
        return size
    saved = sum(
        size - 2 * p.radix * p.low * p.pad if p.radix == 2 else 4 * (size - p.radix * p.low * p.pad)
        for p in _passes(radices, stop)
    )
    return stop if rows * saved >= resolution * _PASS_VALUES else size


class _Pass(NamedTuple):
    radix: int  # m_k
    low: int  # M_k
    width: int  # columns of the layout read
    live: int  # live columns written, ceil(stop / M_{k+1})
    pad: int  # columns of the layout written: the width of the next pass (1 after the last)
    flipped: bool  # written as (pad, m_k, M_k) rather than (m_k, M_k, pad)


@lru_cache(maxsize=256)
def _passes(radices: tuple[int, ...], stop: int) -> tuple[_Pass, ...]:
    """The digit passes of ``_digit_passes`` over a spectrum live below
    ``stop``.  Pass k reads live[k] columns, padded with +0.0 to a whole
    number m_k live[k+1] of them for pocketfft; a radix-2 pass reads its
    last half fiber as it is and adds and subtracts +0.0 for the other half.
    The first pass reads the input, whose zero columns are there already."""
    bases = list(itertools.accumulate(radices, operator.mul, initial=1))
    live = [-(-stop // base) for base in bases]
    width = [q if mk == 2 else mk * nxt for mk, q, nxt in zip(radices, live, live[1:])] + [1]
    width[0] = radices[0] * live[1]
    return tuple(
        _Pass(mk, bases[k], width[k], live[k + 1], width[k + 1], stop < bases[-1] and bases[k + 1] > live[k + 1])
        for k, mk in enumerate(radices)
    )


def _digit_passes(values: np.ndarray, m: GeneratorSequence, resolution: int, inverse: bool, stop: int) -> np.ndarray:
    # Before pass k each row is (M_k, Q) in C order: digits 0..k-1 done, then
    # the untransformed q = n // M_k.  Pass k transforms digit k, the last
    # axis of (M_k, Q / m_k, m_k), into a transposed view (m_k, M_k, Q / m_k)
    # of the other ping-pong buffer, so the digit moves to the front and the
    # Paley order is back after N passes with no transpose copy.  pocketfft
    # runs each fiber on its own, so a batched row is bitwise the row
    # transformed alone.  A radix-2 digit is pocketfft's length-2 kernel in
    # numpy: a+b, a-b, and on the inverse a real 0.5 on each float64
    # component, as its ifft scales (a complex multiply would move the sign
    # of zeros and turn inf into nan).
    #
    # A spectrum that the caller has set to +0.0 from column ``stop`` on is live
    # before pass k only at q < live[k] = ceil(stop / M_k): every fiber above
    # is +0.0, which the full passes keep +0.0.  So pass k reads only the
    # prefix (M_k, width) and writes the live[k+1] columns of the next one
    # (see _passes for the padding).  Once M_{k+1} outgrows live[k+1] the
    # prefix is written transposed, (pad, M_{k+1}), so each add, subtract or
    # pad runs along M_{k+1} and not along a few columns; the last layout,
    # (M_N, 1), is the same either way.  A full spectrum is the prefix
    # stop = M_N: no padding, nothing transposed.
    *lead, size = values.shape
    rows = math.prod(lead)
    plan = _passes(m.radices(resolution), stop)
    axes, n = tuple(range(len(lead))), len(lead)
    bufs = (np.empty(rows * size, np.complex128), np.empty(rows * size, np.complex128))
    x, x_flipped = values, False
    for k, (mk, low, width, q, pad, flipped) in enumerate(plan):
        out = bufs[k % 2][: rows * mk * low * pad]
        whole = width // mk  # whole fibers; a radix-2 prefix may end in half of one
        if not flipped and pad == q == whole:  # the fibers on one axis, as on the full grid
            cols = x[..., : low * width].reshape(*lead, low * q, mk)
            dest = out.reshape(*lead, mk, low * q).swapaxes(-1, -2)
        else:  # cols and dest: the whole fibers of x, (..., M_k, whole, m_k), and where they go
            if x_flipped:
                src = x.reshape(*lead, width, low)
                cols = src[..., : whole * mk, :].reshape(*lead, whole, mk, low).transpose(*axes, n + 2, n, n + 1)
                half = src[..., -1, :]
            else:
                src = x[..., : low * width].reshape(*lead, low, width)
                cols = src[..., : whole * mk].reshape(*lead, low, whole, mk)
                half = src[..., -1]
            if flipped:  # (pad, m_k, M_k)
                grid = out.reshape(*lead, pad, mk, low)
                grid[..., q:, :, :] = 0.0
                written = grid[..., :q, :, :].transpose(*axes, n + 2, n, n + 1)
            else:  # (m_k, M_k, pad)
                grid = out.reshape(*lead, mk, low, pad)
                grid[..., q:] = 0.0
                written = grid[..., :q].transpose(*axes, n + 1, n + 2, n)
            dest, rest = written[..., :whole, :], written[..., whole:, :]
        if mk == 2:
            a, b = cols[..., 0], cols[..., 1]
            np.add(a, b, out=dest[..., 0])
            np.subtract(a, b, out=dest[..., 1])
            if whole < q:  # the half fiber (a, +0.0)
                np.add(half, 0.0, out=rest[..., 0, 0])
                np.subtract(half, 0.0, out=rest[..., 0, 1])
            if inverse:
                halves = out.view(np.float64)
                np.multiply(halves, 0.5, out=halves)
        else:
            (np.fft.ifft if inverse else np.fft.fft)(cols, out=dest)
        x, x_flipped = out.reshape(*lead, mk * low * pad), flipped
    return x.reshape(*lead, size)


def forward(f: GridFunction) -> SpectralVector:
    """Fast transform: f^(n) = (1/M_N) sum_x f(x) conj(psi_n(x)).

    One 1-D FFT pass per digit, x_0 first: pass k transforms the last axis
    of ``x.reshape(-1, m_k)`` (digit k) into a transposed buffer view, so
    that digit moves to the front and after N passes the little-endian
    (Paley) order is back with no transpose copy.  A radix-2 digit is one
    add and one subtract pass over the two digit columns, pocketfft's own
    length-2 kernel; every other radix goes through ``np.fft.fft``.
    ``np.fft.fftn`` over the C-order cube (m_{N-1}, ..., m_0) takes its axes
    in this order and runs each fiber through the same pocketfft kernels, so
    the result is bitwise ``fftn(cube) / M_N``.  ``f`` is not modified.
    """
    if f.resolution == 0:
        return SpectralVector(f.generators, 0, f.values.copy())
    coeffs = _digit_passes(f.values, f.generators, f.resolution, False, f.size)
    coeffs /= f.size
    return SpectralVector(f.generators, f.resolution, coeffs)


def inverse(sv: SpectralVector) -> GridFunction:
    """Fast synthesis: f(x) = sum_n f^(n) psi_n(x), by the per-digit passes
    of ``forward`` run backward (radix 2: add, subtract, halve each float64
    component; other radices: ``np.fft.ifft``): bitwise ``ifftn(cube) * M_N``.
    """
    if sv.resolution == 0:
        return GridFunction(sv.generators, 0, sv.coeffs.copy())
    values = _digit_passes(sv.coeffs, sv.generators, sv.resolution, True, sv.size)
    values *= sv.size
    return GridFunction(sv.generators, sv.resolution, values)


def _truncated_inverse(coeffs: np.ndarray, m: GeneratorSequence, resolution: int, stop: int) -> GridFunction:
    """``inverse`` of spectra that the caller has set to +0.0 from column
    ``stop`` on, such as partial sums: each pass skips the fibers that are
    +0.0 throughout, which the full passes would turn into +0.0, so the bits
    are the same.  Where the prefix does not pay, or a radix is one that
    pocketfft runs by Bluestein (89, 101, ...), this is ``inverse`` itself."""
    size = coeffs.shape[-1]
    stop = _prefix_stop(stop, coeffs.size // size, m, resolution)
    if stop == size:
        return inverse(SpectralVector(m, resolution, coeffs))
    values = _digit_passes(coeffs, m, resolution, True, stop)
    values *= size
    return GridFunction(m, resolution, values)


def forward_naive(f: GridFunction, block: int = _NAIVE_BLOCK) -> SpectralVector:
    """O(M_N^2) oracle: literal inner products against conjugate characters,
    ``block`` rows at a time (``bench/workloads.py`` passes 64).

    It stays on literal ``character_block`` rows, not on cumulative_rows,
    so that it remains an independent check on the fast paths.
    """
    values = _lone(f.values, "forward_naive")
    block = int(_integers(block, "row block size", 1))
    out = np.empty(f.size, dtype=np.complex128)
    for lo in range(0, f.size, block):
        hi = min(lo + block, f.size)
        rows = character_block(f.generators, f.resolution, np.arange(lo, hi))
        out[lo:hi] = rows.conj() @ values / f.size
    return SpectralVector(f.generators, f.resolution, out)


def inverse_naive(sv: SpectralVector) -> GridFunction:
    """O(M_N^2) oracle for ``inverse``: the literal sum of f^(n) psi_n.

    It stays on literal ``character_block`` rows, not on cumulative_rows,
    so that it remains an independent check on the fast paths.
    """
    coeffs = _lone(sv.coeffs, "inverse_naive")
    out = np.zeros(sv.size, dtype=np.complex128)
    for lo in range(0, sv.size, _NAIVE_BLOCK):
        hi = min(lo + _NAIVE_BLOCK, sv.size)
        rows = character_block(sv.generators, sv.resolution, np.arange(lo, hi))
        out += coeffs[lo:hi] @ rows
    return GridFunction(sv.generators, sv.resolution, out)


def dirichlet_direct(m: GeneratorSequence, n: int, resolution: int) -> GridFunction:
    """D_n as the literal sum of the first n characters.

    It stays on literal ``character_block`` rows, not on cumulative_rows,
    so that it remains an independent check on the kernel engine.  Rows are
    summed in blocks of at most 2^22 entries (64 MiB), so memory stays
    linear in M_N up to ``SIZE_CAP``.
    """
    size = _checked_size(m, resolution)
    n = int(_integers(n, "Dirichlet kernel order", 1, size))
    block = max(1, min(512, (1 << 22) // size))
    acc = np.zeros(size, dtype=np.complex128)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = character_block(m, resolution, np.arange(lo, hi))
        acc += rows.sum(axis=0)
    return GridFunction(m, resolution, acc)


@lru_cache(maxsize=64)
def _geometric_row(radix: int, digit: int) -> np.ndarray:
    """g[v] = sum_{u=m-d}^{m-1} r^(u v) for a digit d >= 1, u ascending: the
    factor d contributes to ``dirichlet_closed`` at a coordinate v.

    The sum starts at its first row, as 0 + P[u] = P[u] (no root has a -0
    part).  ``_geometric_root_sums`` adds the same terms in the opposite
    order, so the two may differ in the last bit.
    """
    geo = _root_products(radix, radix - digit)
    for u in range(radix - digit + 1, radix):
        geo += _root_products(radix, u)
    geo.setflags(write=False)
    return geo


def dirichlet_closed(m: GeneratorSequence, n, resolution: int) -> GridFunction:
    """D_n from the product formula

        D_n = psi_n * sum_j D_{M_j} sum_{u=m_j-n_j}^{m_j-1} r_j^u

    where D_{M_j} = M_j on I_j and 0 elsewhere, so each nonzero digit
    contributes one geometric block on the coset slice ``[::M_j]`` (I_j).

    ``n`` is one order or a 1-D sequence of orders; a sequence gives one row
    per order.  The psi_n rows come from one ``_character_rows`` call.  Each
    row's geometric blocks are added, digit j ascending, into one
    accumulator row that then multiplies it, so every row is bitwise the
    lone ``dirichlet_closed(m, n, N)``, which is the same code on one row.
    A block that several rows share is gathered once and dropped after its
    last row.
    """
    size = _checked_size(m, resolution)
    orders = _integers(n, "Dirichlet kernel order", 1, size, ndim=1)
    rows = orders.reshape(-1)
    bases = m.scaled_bases(resolution)
    xdig = digit_table(m, resolution)
    # n = M_N is the one digit n_N = 1: its block M_N on I_N is the index 0
    # alone, and psi_{M_N} = psi_0 = 1 on rank-N coset representatives.
    below = rows % size
    values = _character_rows(m, resolution, below)
    blocks = [[(j, d) for j, d in enumerate(row) if d] for row in _digits(below, m, resolution).tolist()]
    last = {block: r for r, row in enumerate(blocks) for block in row}
    geos: dict[tuple[int, int], np.ndarray] = {}
    acc = np.empty(size, dtype=np.complex128)
    for r, (value, order, row) in enumerate(zip(values, rows.tolist(), blocks)):
        acc[...] = 0.0
        if order == size:
            acc[0] = size
        for j, d in row:
            if (j, d) not in geos:
                geos[j, d] = (bases[j] * _geometric_row(m.radix(j), d))[xdig[:: bases[j], j]]
            acc[:: bases[j]] += geos[j, d] if last[j, d] > r else geos.pop((j, d))
        value *= acc
    return GridFunction(m, resolution, values.reshape(orders.shape + (size,)))


@lru_cache(maxsize=64)
def _geometric_root_sums(radix: int) -> np.ndarray:
    """G[d, v] = sum_{u=m-d}^{m-1} r^(u v) with r = exp(2 pi i / m): the
    factor one digit d contributes to D_n at a coordinate v (G[0] = 0)."""
    table = np.zeros((radix, radix), dtype=np.complex128)
    for d in range(1, radix):
        table[d] = table[d - 1] + _root_products(radix, radix - d)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class ShellTable:
    """|D_n| on the shells I_s \\ I_{s+1} of the rank-N grid, one column per cell.

    Column c is the cell x_0 = .. = x_{s-1} = 0, x_s = v with s = shell[c]
    and v = coord[c] (1 <= v < m_s); it holds M_N / M_{s+1} grid points,
    measure 1/M_{s+1}.  The origin, where |D_n(0)| = n, lies in no cell.
    """

    generators: GeneratorSequence
    resolution: int
    indices: np.ndarray  # (K,) the n of each row
    values: np.ndarray  # (K, C) float64
    shell: np.ndarray  # (C,)
    coord: np.ndarray  # (C,)

    @property
    def points(self) -> np.ndarray:
        """(C,) grid points per cell."""
        bases = np.asarray(self.generators.scaled_bases(self.resolution), dtype=np.int64)
        return bases[-1] // bases[self.shell + 1]

    def per_shell(self, op: np.ufunc) -> np.ndarray:
        """(K, N) reduction of |D_n| over each shell by ``op``, e.g. np.minimum."""
        return op.reduceat(self.values, np.flatnonzero(self.coord == 1), axis=1)

    def expand(self) -> np.ndarray:
        """(K, M_N) |D_n| on the whole grid in coset order.  A point x != 0
        lies in the cell (s, x_s) of its lowest nonzero digit s: each point of
        I_s takes the column of (s, x_s), those of I_{s+1} written over at s + 1."""
        bases = self.generators.scaled_bases(self.resolution)
        xdig = digit_table(self.generators, self.resolution)
        first = np.flatnonzero(self.coord == 1)  # the column of (s, 1)
        cell = np.zeros(bases[-1], dtype=np.int64)
        for s in range(self.resolution):
            cell[:: bases[s]] = first[s] - 1 + xdig[:: bases[s], s]
        out = np.empty((self.indices.size, bases[-1]))
        out[:, 0] = self.indices
        out[:, 1:] = self.values[:, cell[1:]]
        return out


def dirichlet_shells(m: GeneratorSequence, resolution: int, indices) -> ShellTable:
    """Shell table of |D_n| for an int64 array of 1 <= n <= M_N.

    On the shell x_0 = .. = x_{s-1} = 0, x_s = v of the product formula in
    ``dirichlet_closed`` only the digits j <= s survive, and r_j = 1 for
    j < s, so

        |D_n(x)| = |(n mod M_s) + M_s G_{m_s}[n_s, v]|

    with G from ``_geometric_root_sums``: the kernel takes at most
    N (lambda - 1) + 1 values, and no M_N-length row is built.
    """
    idx = _integers(indices, "Dirichlet kernel order", 1, m.size(resolution), ndim=1).reshape(-1)
    bases = m.scaled_bases(resolution)
    digits = _digits(idx, m, resolution)
    blocks, shell, coord = [np.empty((idx.size, 0))], [], []
    for s in range(resolution):
        ms = m.radix(s)
        geo = _geometric_root_sums(ms)[digits[:, s], 1:]
        blocks.append(np.abs((idx % bases[s])[:, None] + bases[s] * geo))
        shell += [s] * (ms - 1)
        coord += range(1, ms)
    return ShellTable(
        m,
        resolution,
        idx,
        np.concatenate(blocks, axis=1),
        np.asarray(shell, dtype=np.int64),
        np.asarray(coord, dtype=np.int64),
    )


def cumulative_rows(m: GeneratorSequence, resolution: int, limit: int, weights=None):
    """Yield (n0, C) with C[i] = sum_{n=0}^{n0+i} w_n psi_n, for n0+i < ``limit``.

    ``weights`` holds one complex w_n per index below M_N; None means
    w_n = 1, so C[i] = D_{n0+i+1}.  Cumulative sums run inside each block
    of ``_ROW_BLOCK`` rows with a carried prefix, which keeps float error
    near the pairwise-summation level during exhaustive scans.  Each yielded
    block is a fresh array.  Grids above ``SCAN_SIZE_CAP`` are refused.

    Rows come from the product form psi_{a M_b + i} = psi_{a M_b} psi_i
    (i < M_b), one run of rows sharing the high digits a at a time: the
    run is the table slice of its M_b low-digit rows times the root factor
    of the first nonzero high digit k >= b, written straight into the
    block, then multiplied in place by the factor of every further one (a
    plain slice copy when a = 0).  The factors go in the digit order of
    ``character_block``, so every row is bit-identical to the literal one.
    The prefix sums add each row onto the one before it, row by row: the
    additions of ``np.cumsum(axis=0)`` in the same order, on contiguous
    rows rather than down columns of stride M_N.
    """
    size = _checked_size(m, resolution, SCAN_SIZE_CAP)
    limit = int(_integers(limit, "row scan limit", 1, size))
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.complex128)
        if w.shape != (size,):
            raise ValueError(f"weight vector has length {w.shape}, expected M_N = {size}")
    # The low-digit table holds psi_0 .. psi_{M_b - 1}, M_b closest to sqrt(M_N).
    # It grows like M_N^1.5, but at SCAN_SIZE_CAP its 32 MiB is still
    # below the 64 MiB of one 256-row block.
    bases = m.scaled_bases(resolution)
    b = min(range(resolution + 1), key=lambda k: abs(bases[k] - math.sqrt(size)))
    low = bases[b]
    # the public, checked name: bench/workloads.py COVERAGE reaches it through here
    table = character_block(m, resolution, np.arange(min(low, limit)))
    xdig = digit_table(m, resolution)
    radices = m.radices(resolution)
    # factors[k][d] = r_k^(d x_k): the root factor of digit d at high position k
    factors = {
        k: np.take(_root_products(radices[k], range(radices[k])), xdig[:, k], axis=1)
        for k in range(b, resolution)
    }
    carry = np.zeros(size, dtype=np.complex128)
    for lo in range(0, limit, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, limit)
        rows = np.empty((hi - lo, size), dtype=np.complex128)
        for a in range(lo // low, (hi - 1) // low + 1):
            i0, i1 = max(a * low, lo), min((a + 1) * low, hi)
            run, src = rows[i0 - lo : i1 - lo], table[i0 - a * low : i1 - a * low]
            k, rest = b, a
            while rest:
                rest, d = divmod(rest, radices[k])
                if d:
                    np.multiply(src, factors[k][d], out=run)
                    src = run
                k += 1
            if src is not run:
                run[...] = src
        if w is not None:
            rows *= w[lo:hi, None]
        sums = list(rows)
        for prev, row in zip(sums, sums[1:]):
            np.add(prev, row, out=row)
        rows += carry
        carry = rows[-1].copy()
        yield lo, rows
        del rows  # hold no yielded block while building the next


def dirichlet_kernel_blocks(m: GeneratorSequence, resolution: int, limit: int):
    """Yield (n0, K) with K[i] = D_{n0+i+1} for n0+i < limit (see cumulative_rows)."""
    yield from cumulative_rows(m, resolution, limit)


def partial_sum(f: GridFunction | SpectralVector, n) -> GridFunction:
    """S_n f by spectral truncation (the fast path).

    ``f`` is the function or its spectrum ``forward(f)``; a sweep over many n
    for one f transforms it once and truncates that spectrum each time.
    ``n`` is one order or a 1-D sequence of orders.  For a sequence the
    result holds one row per order: the spectrum is repeated once, each row
    truncated in place and all rows go through one batched synthesis, so
    each row is bitwise the lone ``partial_sum(f, n)``, which is the same
    code on one row.  The synthesis reads the rows only up to the largest
    order, where that pays (see ``_truncated_inverse``).  A batch of
    functions is refused.
    """
    _lone(f.coeffs if isinstance(f, SpectralVector) else f.values, "partial_sum")
    orders = _integers(n, "partial sum order", 0, f.size, ndim=1)
    rows = orders.reshape(-1)
    sv = f if isinstance(f, SpectralVector) else forward(f)
    coeffs = np.repeat(sv.coeffs[None], rows.size, axis=0)
    for row, order in zip(coeffs, rows.tolist()):
        row[order:] = 0.0
    sums = _truncated_inverse(coeffs, f.generators, f.resolution, int(rows.max(initial=0))).values
    # S_0 f is the zero function: +0.0 on every cell, whatever sign of zero
    # the passes leave on a zero row.
    sums[rows == 0] = 0.0
    return GridFunction(f.generators, f.resolution, sums.reshape(orders.shape + (f.size,)))


def partial_sum_convolution(f: GridFunction, n: int) -> GridFunction:
    """S_n f = (f * D_n)(x) = int f(t) D_n(x - t) dmu(t), computed literally.

    Quadratic in M_N; it exists as the independent check on the spectral
    path, not as a production route.
    """
    values = _lone(f.values, "partial_sum_convolution")
    n = int(_integers(n, "partial sum order", 0, f.size))
    if n == 0:
        return zero(f.generators, f.resolution)
    _checked_size(f.generators, f.resolution, QUADRATIC_SIZE_CAP)
    kernel = dirichlet_closed(f.generators, n, f.resolution).values
    grid = np.arange(f.size, dtype=np.int64)
    diff = index_sub(grid[:, None], grid[None, :], f.generators, f.resolution)
    return GridFunction(f.generators, f.resolution, (kernel[diff] @ values) / f.size)


# A level of at most this many lanes (M_k) sums each lane down its cosets
# in one inner loop; a wider one adds whole coset rows (see _coset_means).
_LANE_RUN = 16


def _coset_means(values: np.ndarray, m_k: int) -> np.ndarray:
    """(..., M_k) means of each row over its R = M_N / M_k rank-k cosets,
    bitwise ``np.add.reduce(values.reshape(..., R, M_k), axis=-2) / R``.

    For M_k > 1 that reduce adds the R cosets of each lane one after the
    other from +0, in an outer loop around M_k lanes.  ``einsum`` (no
    ``optimize``) adds the same values in the same order, faster: up to
    ``_LANE_RUN`` lanes it runs each lane down its cosets (``order="C"``),
    past that it adds coset rows (``order="K"``, unless the row is laid out
    backwards, which "K" would sum from its last coset).  numpy's complex
    ``/ R`` multiplies ``re + im*0`` and ``im - re*0`` by ``1 / R``, and a
    sum from +0 is never -0.0, so a finite level is scaled in place by
    ``1.0 / R`` on its float64 view.  Level 0 keeps the reduce's pairwise
    sum along the row, and a level with a non-finite sum is the reduce and
    ``/ R`` themselves, nan signs and all.
    """
    *lead, size = values.shape
    count = size // m_k
    if m_k > 1:
        cosets = values.reshape(-1, count, m_k)
        down = m_k <= _LANE_RUN or cosets.strides[1] < 0
        sums = np.empty((len(cosets), m_k), np.complex128)
        np.einsum("ijk->ik", cosets, out=sums, order="C" if down else "K")
        if np.isfinite(sums).all():
            scaled = sums.view(np.float64)
            scaled *= 1.0 / count
            return sums.reshape(*lead, m_k)
    return np.add.reduce(values.reshape(*lead, count, m_k), axis=-2) / count


def conditional_expectation(f: GridFunction, rank: int) -> GridFunction:
    """S_{M_k} f: the average of f over each rank-k coset, row by row."""
    m_rank = f.generators.base(int(_integers(rank, "coset rank", 0, f.resolution)))
    return f._like(np.tile(_coset_means(f.values, m_rank), f.size // m_rank))


def coarse_sums(f: GridFunction) -> list[np.ndarray]:
    """The martingale levels S_{M_0}f .. S_{M_N}f, each as its coset means.

    Level k has shape (..., M_k): entry i is the mean of f over the rank-k
    coset of grid index i, so ``np.tile(level, M_N // M_k)`` is
    ``conditional_expectation(f, k)`` bitwise.
    """
    return [_coset_means(f.values, m_k) for m_k in f.generators.scaled_bases(f.resolution)]


def dirichlet_average(m: GeneratorSequence, n, rank: int, resolution: int) -> GridFunction:
    """x -> int_{I_rank} |D_n(x - t)| dmu(t) on the rank-N grid.

    ``n`` is one order or a 1-D sequence of orders, as for ``dirichlet_closed``:
    the (M_N, M_N / M_rank) ``index_sub`` table is built once per call and
    each |D_n| row is gathered through it, so every row is bitwise the lone
    call.  That table is quadratic in M_N, so grids above
    ``QUADRATIC_SIZE_CAP`` are refused before it is built.
    """
    size = _checked_size(m, resolution, QUADRATIC_SIZE_CAP)
    orders = _integers(n, "Dirichlet kernel order", 1, size, ndim=1)
    m_rank = m.base(int(_integers(rank, "coset rank", 0, resolution)))
    kernels = np.abs(dirichlet_closed(m, orders.reshape(-1), resolution).values)
    t_idx = np.arange(size // m_rank, dtype=np.int64) * m_rank
    grid = np.arange(size, dtype=np.int64)
    diff = index_sub(grid[:, None], t_idx[None, :], m, resolution)
    values = np.empty(kernels.shape, dtype=np.complex128)
    for row, kernel in zip(values, kernels):
        row[...] = kernel[diff].mean(axis=1) / m_rank
    return GridFunction(m, resolution, values.reshape(orders.shape + (size,)))


# ---------------------------------------------------------------------------
# serialization: CSV (index, re, im) and a compact binary form
# ---------------------------------------------------------------------------


_CSV_ROW = "%d,%.12g,%.12g\n"
_CSV_BLOCK = 4096
# Decimal exponents of float64 lie in [-324, 308]; the tables span +-330.
_E_OFF = 330


class _CsvTables(NamedTuple):
    """Lookup tables of ``_format_rows``: uint64 words of characters, the
    first character in the lowest byte, NUL where a character is left out."""

    p10: np.ndarray  # [e + _E_OFF]: 10^(11 - e), correctly rounded
    slot: np.ndarray  # [(2 state + strip) 10^4 + v]: 4-digit group v as a 5-byte slot
    base: np.ndarray  # [j, e + _E_OFF]: 2 state 10^4 of digit group j (+ 10^4 for j = 2)
    lead: np.ndarray  # [e + _E_OFF (+ 2 _E_OFF + 1 if negative)]: "," sign "0.000"
    expo: np.ndarray  # [e + _E_OFF]: "e+XX", all NUL where %g writes no exponent
    index_high: np.ndarray  # [v]: group v, leading zeros NUL
    index_low: np.ndarray  # [v (+ 10^4 after a nonzero high group)]: group v << 32


def _low_bytes(k) -> np.ndarray:
    """Mask of the low ``k`` bytes of a word, 0 <= k <= 7."""
    return (np.uint64(1) << (np.uint64(8) * np.asarray(k, dtype=np.uint64))) - np.uint64(1)


@lru_cache(maxsize=None)
def _csv_tables() -> _CsvTables:
    """Build the tables once, on the first block, from numpy arithmetic
    (and one ``float`` parse per power of ten).

    The 12 digits go in three 4-digit groups, each in a 5-byte slot with
    room for the dot.  The slot's state says where the dot falls: 0, the
    group lies before it; 1..4, it follows digit state - 1; 5, the group
    lies after it.  The ``strip`` variant, for a group that no nonzero
    digit follows, drops the zeros after the last nonzero fraction digit,
    and the dot too when the fraction is all zeros.
    """
    v = np.arange(10_000)
    zeros = sum(v % 10**k == 0 for k in (1, 2, 3)) + (v == 0)  # trailing zeros, 4 for 0
    lead_zeros = sum(v < 10**k for k in (1, 2, 3)) + (v == 0)
    word = sum((ord("0") + v // 10 ** (3 - k) % 10) << (8 * k) for k in range(4)).astype(np.uint64)
    slot = np.empty((6, 2, 10_000), np.uint64)
    for state in range(6):
        dotted = 1 <= state <= 4
        first = state if dotted else (0 if state == 5 else 4)  # first fraction digit
        w = np.stack([word, word & _low_bytes(np.maximum(4 - zeros, first))])
        if dotted:  # move the digits from ``state`` on up one byte, for the dot
            # the stripped slot keeps its dot only ahead of a nonzero digit
            keep_dot = np.stack([np.ones(10_000, bool), 4 - zeros > state])
            dot = np.where(keep_dot, ord("."), 0).astype(np.uint64)
            low = _low_bytes(state)
            w = (w & low) | (dot << np.uint64(8 * state)) | ((w & ~low) << np.uint64(8))
        slot[state] = w
    e = np.arange(-_E_OFF, _E_OFF + 1)
    fixed = (e >= -4) & (e < 12)  # %g writes these without an exponent
    ahead = np.where(fixed & (e < 0), 0, np.where(fixed, e + 1, 1))  # digits ahead of the dot
    rel = ahead[None, :] - 4 * np.arange(3)[:, None]
    state = np.where(rel <= 0, 5, np.where(rel >= 5, 0, rel))
    lead = np.zeros((2, len(e), 8), np.uint8)
    lead[:, :, 0] = ord(",")
    lead[1, :, 1] = ord("-")
    for k in range(5):  # "0.": e = -1; "0.000": e = -4
        lead[:, fixed & (e <= -max(k, 1)), 2 + k] = ord("0.000"[k])
    ae = np.abs(e)
    expo = np.zeros((len(e), 8), np.uint8)
    expo[:, 0] = ord("e")
    expo[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    expo[:, 2] = np.where(ae >= 100, ord("0") + ae // 100, 0)
    expo[:, 3] = ord("0") + ae // 10 % 10
    expo[:, 4] = ord("0") + ae % 10
    expo[fixed] = 0
    return _CsvTables(
        p10=np.array([float(f"1e{11 - k}") for k in e]),
        slot=slot.ravel(),
        base=(2 * 10_000 * state + [[0], [0], [10_000]]).astype(np.float64),
        lead=lead.reshape(-1, 8).view("<u8").ravel(),
        expo=expo.view("<u8").ravel(),
        index_high=word & ~_low_bytes(lead_zeros),
        index_low=np.concatenate([word & ~_low_bytes(np.minimum(lead_zeros, 3)), word]) << np.uint64(32),
    )


def _format_cells(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write ``,`` then ``"%.12g" % x`` into ``cells[..., :4]`` for each float.

    The four words of a cell are the ``,`` sign ``0.000`` lead, two words of
    digits with the dot and the stripped zeros, and the exponent.  The 12
    digits are ``rint(|x| p10[e])``, e the decimal exponent.  Below 1e12 that
    product is within 2.3e-4 of the exact one (two roundings), so its
    ``rint`` is ``%``'s correctly rounded digits wherever the fraction is
    more than 5e-4 from one half.  Returns the flat indices of the floats
    that ``%`` must write: those within that margin, those whose product
    leaves [1e11, 1e12) because ``log10`` rounded across a power of ten,
    and every non-finite, subnormal or |x| < 1e-290 value except zero.
    """
    t = _csv_tables()
    a = np.abs(x)
    ok = (a >= 1e-290) & (a < np.inf)  # False for nan
    safe = np.where(ok, a, 1.0)
    e = np.log10(safe)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    e += _E_OFF
    s = safe * t.p10[e]
    digits = np.rint(s)
    rest = np.abs(s - digits) >= 0.4995  # within 5e-4 of a tie
    rest |= s < 1e11  # floor(log10) missed the decade
    rest |= s >= 1e12
    carry = np.flatnonzero(digits >= 1e12)  # rounded up into the next decade
    if carry.size:
        digits.ravel()[carry] = 1e11
        e.ravel()[carry] += 1
    zero = a == 0
    digits[zero] = 0
    # the groups g0 g1 g2 of the digits, as exact float64 integers
    high = digits / 1e4
    np.floor(high, out=high)
    g2 = digits - high * 1e4
    g0 = high / 1e4
    np.floor(g0, out=g0)
    g1 = high - g0 * 1e4
    i2 = g2 + t.base[2, e]
    i1 = g1 + t.base[1, e]
    i1 += (g2 == 0) * 1e4
    i0 = g0 + t.base[0, e]
    i0 += (g1 + g2 == 0) * 1e4
    s0, s1, s2 = (t.slot[i.astype(np.intp)] for i in (i0, i1, i2))
    np.bitwise_or(s0, s1 << np.uint64(40), out=cells[..., 1])
    s1 >>= np.uint64(24)
    s2 <<= np.uint64(16)
    np.bitwise_or(s1, s2, out=cells[..., 2])
    cells[..., 3] = t.expo[e]
    e += (2 * _E_OFF + 1) * np.signbit(x)
    cells[..., 0] = t.lead[e]
    rest |= ~(ok | zero)
    return np.flatnonzero(rest)


def _format_rows(lo: int, z: np.ndarray) -> str:
    """The ``_CSV_ROW`` lines of rows ``lo, lo + 1, ...`` of ``z``, byte for byte.

    Each row is nine words, the index and four per cell; the ``%``-written
    cells go in as NUL-padded strings, and one ``bytes.translate`` drops
    every NUL.
    """
    t = _csv_tables()
    n = len(z)
    x = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64).reshape(n, 2)
    rows = np.empty((n, 9), np.uint64)
    cells = rows[:, 1:].reshape(n, 2, 4)
    rest = _format_cells(x, cells)
    high, low = np.divmod(np.arange(lo, lo + n), 10_000)
    rows[:, 0] = t.index_high[high] | t.index_low[low + (high > 0) * 10_000]
    if rest.size:
        text = (",%.12g " * rest.size % tuple(x.ravel()[rest].tolist())).split()
        cells[np.divmod(rest, 2)] = np.array(text, dtype="S32").view(np.uint64).reshape(-1, 4)
    rows.view(np.uint8)[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def write_csv_rows(out: io.TextIOBase, data: np.ndarray) -> None:
    """Write ``i,re,im`` for each entry of ``data``, one block of rows at a time.

    Each block of 4096 rows is the bytes of ``_CSV_ROW`` per row (the
    per-row ``f"{i},{z.real:.12g},{z.imag:.12g}"``), and no whole-body
    string is held.  Numpy passes format the cells of every block
    (``_format_cells``), and ``%`` writes only the cells they cannot
    decide.  The passes cost about 0.1 ms a block before any row, so ``%``
    alone would be faster only under about 128 rows.  At 2^17 rows of
    standard normals on 2 vCPUs they took the writer from about 130 ms to
    40 ms.  More than ``SIZE_CAP`` rows are refused.
    """
    if len(data) > SIZE_CAP:
        raise ValueError(f"{len(data)} CSV rows exceed the size cap {SIZE_CAP}")
    for lo in range(0, len(data), _CSV_BLOCK):
        out.write(_format_rows(lo, data[lo : lo + _CSV_BLOCK]))


def _write_rows(out: io.TextIOBase, m: GeneratorSequence, resolution: int, kind: str, data: np.ndarray) -> None:
    _lone(data, f"a {kind} CSV file")
    out.write(f"# vilenkin {kind} v1\n# m={m.format()}\n# N={resolution}\nindex,re,im\n")
    write_csv_rows(out, data)


def write_grid_csv(out: io.TextIOBase, f: GridFunction) -> None:
    _write_rows(out, f.generators, f.resolution, "grid", f.values)


def write_spectral_csv(out: io.TextIOBase, sv: SpectralVector) -> None:
    _write_rows(out, sv.generators, sv.resolution, "spectral", sv.coeffs)


def _read_rows(src: io.TextIOBase) -> tuple[GeneratorSequence, int, str, np.ndarray]:
    header = src.readline()
    while header.startswith("#") and not header.startswith("# vilenkin "):
        header = src.readline()  # a comment ahead of the header, e.g. a run configuration
    header = header.strip()
    if not header.startswith("# vilenkin "):
        raise ValueError("not a vilenkin CSV file")
    kind = header.split()[2]
    m = GeneratorSequence.parse(src.readline().strip().removeprefix("# m="))
    resolution = int(src.readline().strip().removeprefix("# N="))
    size = _checked_size(m, resolution)
    src.readline()  # column header
    # Parse every row at once, then check the whole table at once.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            table = np.loadtxt(src, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            # drop numpy's advice on `usecols`, which a CLI user cannot pass
            raise ValueError(f"malformed CSV data: {str(exc).split(';')[0]}") from None
    if table.size == 0:
        table = np.empty((0, 3))
    if table.shape[1] != 3:
        raise ValueError(f"malformed CSV data: {table.shape[1]} columns, expected index,re,im")
    col = table[:, 0]
    bad = np.flatnonzero(~((col >= 0) & (col < size) & (col == np.floor(col))))
    if len(bad):
        raise ValueError(f"CSV row index {col[bad[0]]:g} is not an index below M_N = {size}")
    idx = col.astype(np.int64)
    order = np.sort(idx)
    dup = np.flatnonzero(order[1:] == order[:-1])
    if len(dup):
        raise ValueError(f"CSV row index {order[dup[0]]} appears more than once")
    if len(order) != size:
        gap = np.flatnonzero(order != np.arange(len(order)))
        raise ValueError(f"CSV row index {gap[0] if len(gap) else len(order)} is missing")
    finite = np.isfinite(table[:, 1:]).all(axis=1)
    if not finite.all():
        raise ValueError(f"CSV row {idx[np.argmin(finite)]} holds a non-finite value")
    data = np.empty((size, 2))
    data[idx] = table[:, 1:]
    return m, resolution, kind, data.view(np.complex128)[:, 0]


def read_grid_csv(src: io.TextIOBase) -> GridFunction:
    m, resolution, kind, data = _read_rows(src)
    if kind != "grid":
        raise ValueError(f"expected a grid CSV, found kind {kind!r}")
    return GridFunction(m, resolution, data)


def read_spectral_csv(src: io.TextIOBase) -> SpectralVector:
    m, resolution, kind, data = _read_rows(src)
    if kind != "spectral":
        raise ValueError(f"expected a spectral CSV, found kind {kind!r}")
    return SpectralVector(m, resolution, data)


def _write_binary(out: io.BufferedIOBase, m: GeneratorSequence, resolution: int, kind: int, data: np.ndarray) -> None:
    _lone(data, "a binary file")
    mstr = m.format().encode()
    out.write(_MAGIC)
    out.write(struct.pack("<BIH", kind, resolution, len(mstr)))
    out.write(mstr)
    out.write(np.ascontiguousarray(data, dtype="<c16"))  # the buffer itself, no bytes copy


def _read_binary(src: io.BufferedIOBase) -> tuple[GeneratorSequence, int, int, np.ndarray]:
    if src.read(4) != _MAGIC:
        raise ValueError("not a vilenkin binary file")
    fixed = src.read(7)
    if len(fixed) != 7:
        raise ValueError("binary header is truncated")
    kind, resolution, mlen = struct.unpack("<BIH", fixed)
    mraw = src.read(mlen)
    if len(mraw) != mlen:
        raise ValueError("binary header is truncated")
    m = GeneratorSequence.parse(mraw.decode())
    expected = 16 * _checked_size(m, resolution)
    payload = src.read(expected + 1)  # one byte past the payload tells a long file
    if len(payload) != expected:
        have = f"more than {expected}" if len(payload) > expected else len(payload)
        raise ValueError(f"binary payload has {have} bytes, the header needs {expected}")
    data = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    if not np.isfinite(data).all():
        raise ValueError(f"binary payload entry {int(np.argmin(np.isfinite(data)))} is not finite")
    return m, resolution, kind, data


def write_grid_binary(out: io.BufferedIOBase, f: GridFunction) -> None:
    _write_binary(out, f.generators, f.resolution, 0, f.values)


def write_spectral_binary(out: io.BufferedIOBase, sv: SpectralVector) -> None:
    _write_binary(out, sv.generators, sv.resolution, 1, sv.coeffs)


def read_grid_binary(src: io.BufferedIOBase) -> GridFunction:
    m, resolution, kind, data = _read_binary(src)
    if kind != 0:
        raise ValueError("expected a grid binary file")
    return GridFunction(m, resolution, data)


def read_spectral_binary(src: io.BufferedIOBase) -> SpectralVector:
    m, resolution, kind, data = _read_binary(src)
    if kind != 1:
        raise ValueError("expected a spectral binary file")
    return SpectralVector(m, resolution, data)
