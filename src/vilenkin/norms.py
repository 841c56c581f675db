"""L_p and weak-L_p quasi-norms, Lebesgue constants, maximal operators.

The Hardy quasi-norm here is the finite-resolution one: the martingale
generated by a grid function has levels S_{M_0}f .. S_{M_N}f, so the
maximal function is an exact pointwise maximum, not a supremum estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import SCAN_SIZE_CAP, GeneratorSequence, _checked_size, _integers, decompose, variation, variation_counts
from .transform import (
    GridFunction,
    _levels,
    _lone,
    _widen,
    coarse_sums,
    conditional_expectation,
    dirichlet_closed,
    dirichlet_kernel_blocks,
    forward,
    partial_sum,
)

# lambda is approached from below by this relative offset when evaluating
# the weak-type supremum on discrete data.
WEAK_LEVEL_OFFSET = 1e-12

# Kernel values are finite combinations of unit roots; anything below this
# is a rounded exact zero.
SUPPORT_THRESHOLD = 1e-9


def _check_p(p: float) -> None:
    # p = inf passes ``p > 0``, and the root (...)^(1/p) then makes every norm 1.0
    if not 0 < p < np.inf:
        raise ValueError(f"exponent p = {p} must be positive and finite")


def lp_norm(f: GridFunction | np.ndarray, p: float) -> float | np.ndarray:
    """((1/M_N) sum |f|^p)^(1/p); a quasi-norm for p < 1.

    ``f`` is a grid function or its plain value array (real or complex,
    grid on the last axis).  A float for one function, an array of them
    for a batch.
    """
    _check_p(p)
    values = f.values if isinstance(f, GridFunction) else np.asarray(f)
    return _root_mean(np.abs(values) ** p, p)


def _root_mean(powers: np.ndarray, p: float) -> float | np.ndarray:
    """(mean of ``powers`` along the last axis)^(1/p), a float or one per row."""
    means = np.mean(powers, axis=-1)
    # The root is taken on each np.float64 scalar: an array power may round
    # the last bit differently, and a batched norm must equal the lone one.
    roots = np.array([mean ** (1.0 / p) for mean in means.ravel()]).reshape(means.shape)
    return float(roots) if roots.ndim == 0 else roots


def weak_lp(f: GridFunction, p: float) -> float:
    """sup_t t * mu(|f| > t)^(1/p) over the achieved values of |f|.

    On a discrete grid the supremum is attained just below an achieved
    value, so each candidate level is backed off by a relative offset.
    One function only: a batch is refused.
    """
    _check_p(p)
    values = _lone(f.values, "weak_lp")
    finite = np.isfinite(values)
    if not finite.all():  # a nan would drop out of the levels below
        raise ValueError(f"weak_lp: value {int(np.argmin(finite))} is not finite")
    # One sort gives both: each run of equal magnitudes starts at its level,
    # and mu(|f| >= level) counts the cells from that start on.
    ordered = np.sort(np.abs(values))
    start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])) & (ordered > 0))
    if start.size == 0:
        return 0.0
    levels = ordered[start]
    count_ge = ordered.size - start
    candidates = levels * (1.0 - WEAK_LEVEL_OFFSET) * (count_ge / ordered.size) ** (1.0 / p)
    return float(candidates.max())


@dataclass(frozen=True)
class LebesgueReport:
    """Exact L_n together with the variation bracket under one convention."""

    n: int
    value: float
    lower_bound: float
    upper_bound: float
    v: int
    v_star: int
    convention: str

    @property
    def in_bracket(self) -> bool:
        return bool(_in_bracket(self.value, self.lower_bound, self.upper_bound))

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.value:.12g},{self.lower_bound:.12g},{self.upper_bound:.12g},"
            f"{self.v},{self.v_star},{self.convention}"
        )


def _bracket(v, v_star, lam: int):
    """(lower, upper) bounds on L_n from scalar or array variation counts."""
    lower = v / (4.0 * lam) + v_star / lam + 1.0 / (2.0 * lam)
    upper = 1.5 * v + 4.0 * v_star - 1.0
    return lower, upper


def _in_bracket(value, lower, upper):
    return (lower - 1e-9 <= value) & (value <= upper + 1e-9)


def lebesgue_constant(
    m: GeneratorSequence, n: int, resolution: int, convention: str = "from1"
) -> LebesgueReport:
    """L_n = ||D_n||_1 with the two-sided variation bounds."""
    n = int(_integers(n, "Dirichlet kernel order", 1, m.size(resolution)))
    kernel = dirichlet_closed(m, n, resolution)
    value = lp_norm(kernel, 1.0)
    v, v_star = variation(decompose(n, m), m, convention)
    lower, upper = _bracket(v, v_star, m.max_radix)
    return LebesgueReport(n, value, lower, upper, v, v_star, convention)


# The "auto" convention is picked on 1 <= n < min(M_N, this).
_PICK_LIMIT = 512


def _lebesgue_stop(m: GeneratorSequence, resolution: int, limit: int | None) -> int:
    """One past the last n of a Lebesgue table: ``limit``, else M_N.  N = 0
    leaves no order below M_N to judge, so it is refused whatever the limit,
    and so is a grid above ``SCAN_SIZE_CAP``, which the kernel rows outgrow."""
    size = _checked_size(m, resolution, SCAN_SIZE_CAP)
    if size < 2:
        raise ValueError(f"the Lebesgue table 1 <= n < M_N needs N >= 1, not N = {resolution}")
    return size if limit is None else int(_integers(limit, "Lebesgue table limit", 2, size + 1))


def _lebesgue_values(m: GeneratorSequence, resolution: int, stop: int) -> np.ndarray:
    """Exact L_n for 1 <= n < stop, from one blocked kernel pass.  The blocks
    and their carries do not depend on ``stop``, so a smaller stop gives a
    bitwise prefix of the values."""
    blocks = dirichlet_kernel_blocks(m, resolution, stop - 1)
    return np.concatenate([np.mean(np.abs(kernels), axis=1) for _, kernels in blocks])


def _convention_pick(values: np.ndarray, m: GeneratorSequence, resolution: int) -> tuple[str, dict[str, list[int]]]:
    """``select_variation_convention`` on L_n for 1 <= n <= values.size."""
    ns = np.arange(1, values.size + 1, dtype=np.int64)
    violations: dict[str, list[int]] = {}
    for convention in ("from1", "from0"):
        lower, upper = _bracket(*variation_counts(ns, m, resolution, convention), m.max_radix)
        violations[convention] = ns[~_in_bracket(values, lower, upper)].tolist()
    if len(violations["from1"]) <= len(violations["from0"]):
        return "from1", violations
    return "from0", violations


def lebesgue_table(
    m: GeneratorSequence, resolution: int, limit: int | None = None, convention: str = "from1"
) -> list[LebesgueReport]:
    """Exhaustive L_n table for 1 <= n < limit (default M_N)."""
    return _reports(_lebesgue_values(m, resolution, _lebesgue_stop(m, resolution, limit)), m, resolution, convention)


def _picked_table(
    m: GeneratorSequence, resolution: int, limit: int | None
) -> tuple[str, dict[str, list[int]], list[LebesgueReport]]:
    """``lebesgue_table`` under the convention ``select_variation_convention``
    picks on 1 <= n < min(M_N, _PICK_LIMIT), with that pick's violations.
    The kernels are summed once, for a table over the larger of the two
    ranges; the pick reads its prefix of the values, and a table under the
    other convention re-brackets them."""
    stop = _lebesgue_stop(m, resolution, limit)
    pick = min(m.size(resolution), _PICK_LIMIT)
    # from0 first: it is the usual pick (no bracket violations)
    table = lebesgue_table(m, resolution, max(stop, pick), "from0")
    values = np.array([r.value for r in table])
    convention, violations = _convention_pick(values[: pick - 1], m, resolution)
    if convention != "from0":
        table = _reports(values[: stop - 1], m, resolution, convention)
    return convention, violations, table[: stop - 1]


def _reports(values: np.ndarray, m: GeneratorSequence, resolution: int, convention: str) -> list[LebesgueReport]:
    """One bracketed report per L_n, n = 1, 2, ..."""
    ns = np.arange(1, values.size + 1, dtype=np.int64)
    v, v_star = variation_counts(ns, m, resolution, convention)
    lower, upper = _bracket(v, v_star, m.max_radix)
    columns = (ns, values, lower, upper, v, v_star)
    return [LebesgueReport(*row, convention) for row in zip(*(c.tolist() for c in columns))]


def select_variation_convention(
    m: GeneratorSequence, resolution: int, limit: int | None = None
) -> tuple[str, dict[str, list[int]]]:
    """Decide the digit-sum convention empirically against exact L_n for
    1 <= n < limit (default M_N).

    Returns the winning convention and, per convention, the indices where
    the bracket failed.  Ties go to "from1" (the printed form).  The
    kernels are summed once; each convention only re-brackets the values.
    """
    return _convention_pick(_lebesgue_values(m, resolution, _lebesgue_stop(m, resolution, limit)), m, resolution)


def running_maxima(f: GridFunction):
    """Yield max_{j<=k} |S_{M_j} f| for k = 0..N, each as M_k coset values.

    Level k is broadcast onto the rank-k+1 cosets below it, never tiled to
    M_N: entry i of level k+1 lies in the rank-k coset i mod M_k.  ``abs``
    and ``maximum`` are exact, so the last item is f* on the grid.  This is
    the period-M_N case of the one running maximum, ``_running_maxima``,
    which ``_coarse_hardy`` takes over levels kept on P lanes from rank r up.
    """
    yield from _running_maxima(coarse_sums(f))


def _running_maxima(levels: list[np.ndarray]):
    """``running_maxima`` over ``levels``, a list it empties, so that each
    level is let go once used.  A level no wider than the one before (P
    lanes from rank r up) is that level's period, so its maximum stays on
    P lanes."""
    acc = None
    while levels:
        mags = np.abs(levels.pop(0))
        if acc is not None:
            *lead, width = mags.shape
            below = mags.reshape(*lead, width // acc.shape[-1], acc.shape[-1])
            np.maximum(below, acc[..., None, :], out=below)
        acc = mags
        yield acc


def _fstar(levels: list[np.ndarray]) -> np.ndarray:
    """The real values of f*: the last of the running maxima."""
    for fstar in _running_maxima(levels):
        pass
    return fstar


def maximal_function(f: GridFunction) -> GridFunction:
    """f* = max_k |S_{M_k} f| over the finite martingale levels."""
    return GridFunction(f.generators, f.resolution, _fstar(coarse_sums(f)).astype(np.complex128))


def hardy_norm(f: GridFunction, p: float) -> float | np.ndarray:
    """||f||_{H_p} = ||f*||_p, exact for the martingale (S_{M_k}f)_{k<=N}.

    A float for one function; for a batch, one norm per row from one pass
    over the levels of all rows.
    """
    return _coarse_hardy(f, f.resolution, p)


# An inf in f turns its coset means into nan; that is refused below rather
# than warned about.  (The decorator form costs a third of a `with` block.)
@np.errstate(invalid="ignore")
def _coarse_hardy(f: GridFunction, resolution: int, p: float) -> float | np.ndarray:
    """``hardy_norm`` of f's rows repeated onto the rank-N grid, N = ``resolution``,
    for f on a grid of rank r <= N (such as a ``_coarse_synthesis``), bitwise.

    The levels from rank max(r, 1) up stay on f's P lanes (see
    ``transform._levels``), and so does f*.  |f*|^p is taken on those lanes
    and repeated to M_N, so ``np.mean`` adds the very array of
    ``lp_norm(f*, p)``, which it is at r = N.  f* stays real: |x + 0j| is
    |x|, so the norm is bitwise that of ``maximal_function`` without its
    complex copy.
    """
    _check_p(p)
    size = f.generators.size(resolution)
    fstar = _fstar(_levels(f.values, f.generators, resolution))
    if fstar.shape[-1] == size:
        # the public name: bench/workloads.py COVERAGE reaches lp_norm through here
        value = lp_norm(fstar, p)
    else:
        value = _root_mean(_widen(np.abs(fstar) ** p, size), p)
    # The top level of f* is |f|, so a nan or inf in f reaches the norm;
    # testing the result spares a pass over f on every call.
    if not np.isfinite(value).all():
        raise ValueError("hardy_norm: f holds a non-finite value or overflows the float range")
    return value


def restricted_maximal(f: GridFunction, indices) -> GridFunction:
    """Pointwise max of |S_n f| over a supplied index set."""
    index_list = _integers(indices, "partial sum order", 0, f.size, ndim=1).reshape(-1).tolist()
    if not index_list:
        raise ValueError("restricted maximal operator needs a nonempty index set")
    spectrum = forward(f)
    acc = np.zeros(f.size)
    for n in index_list:
        acc = np.maximum(acc, np.abs(partial_sum(spectrum, n).values))
    return GridFunction(f.generators, f.resolution, acc.astype(np.complex128))


def modulus_hp(f: GridFunction, n: int, p: float) -> float:
    """omega(1/M_n, f)_{H_p} = ||f - S_{M_n} f||_{H_p}."""
    _check_p(p)
    return hardy_norm(f - conditional_expectation(f, n), p)
