"""L_p and weak-L_p quasi-norms, Lebesgue constants, maximal operators.

The Hardy quasi-norm here is the finite-resolution one: the martingale
generated by a grid function has levels S_{M_0}f .. S_{M_N}f, so the
maximal function is an exact pointwise maximum, not a supremum estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GeneratorSequence, decompose, variation
from .transform import (
    GridFunction,
    coarse_sums,
    conditional_expectation,
    dirichlet_closed,
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
    if not p > 0:
        raise ValueError(f"exponent p = {p} must be positive")


@dataclass(frozen=True)
class NormReport:
    """One measured quasi-norm, with the bracket columns where they apply."""

    n: int
    resolution: int
    p: float
    kind: str  # Lp | WeakLp | Hardy
    value: float
    lower_bound: float | None = None
    upper_bound: float | None = None

    def csv_row(self) -> str:
        lo = "" if self.lower_bound is None else f"{self.lower_bound:.12g}"
        hi = "" if self.upper_bound is None else f"{self.upper_bound:.12g}"
        return f"{self.n},{self.resolution},{self.p:.12g},{self.kind},{self.value:.12g},{lo},{hi}"


def lp_norm(f: GridFunction, p: float) -> float:
    """((1/M_N) sum |f|^p)^(1/p); a quasi-norm for p < 1."""
    _check_p(p)
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def weak_lp(f: GridFunction, p: float) -> float:
    """sup_t t * mu(|f| > t)^(1/p) over the achieved values of |f|.

    On a discrete grid the supremum is attained just below an achieved
    value, so each candidate level is backed off by a relative offset.
    """
    _check_p(p)
    finite = np.isfinite(f.values)
    if not finite.all():  # a nan would drop out of the levels below
        raise ValueError(f"weak_lp: value {int(np.argmin(finite))} is not finite")
    mags = np.abs(f.values)
    levels = np.unique(mags)
    levels = levels[levels > 0]
    if levels.size == 0:
        return 0.0
    ordered = np.sort(mags)
    count_ge = mags.size - np.searchsorted(ordered, levels, side="left")
    candidates = levels * (1.0 - WEAK_LEVEL_OFFSET) * (count_ge / mags.size) ** (1.0 / p)
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
        return self.lower_bound - 1e-9 <= self.value <= self.upper_bound + 1e-9

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.value:.12g},{self.lower_bound:.12g},{self.upper_bound:.12g},"
            f"{self.v},{self.v_star},{self.convention}"
        )


def _bracket(v: int, v_star: int, lam: int) -> tuple[float, float]:
    lower = v / (4.0 * lam) + v_star / lam + 1.0 / (2.0 * lam)
    upper = 1.5 * v + 4.0 * v_star - 1.0
    return lower, upper


def lebesgue_constant(
    m: GeneratorSequence, n: int, resolution: int, convention: str = "from1"
) -> LebesgueReport:
    """L_n = ||D_n||_1 with the two-sided variation bounds."""
    kernel = dirichlet_closed(m, n, resolution)
    value = lp_norm(kernel, 1.0)
    idx = decompose(n, m)
    v, v_star = variation(idx, m, convention)
    lower, upper = _bracket(v, v_star, m.max_radix)
    return LebesgueReport(n, value, lower, upper, v, v_star, convention)


def lebesgue_table(
    m: GeneratorSequence, resolution: int, limit: int | None = None, convention: str = "from1"
) -> list[LebesgueReport]:
    """Exhaustive L_n table for 1 <= n < limit (default M_N)."""
    from .transform import dirichlet_kernel_blocks

    size = m.size(resolution)
    stop = size if limit is None else limit
    if not 2 <= stop <= size + 1:
        raise ValueError("table limit out of range")
    reports = []
    for lo, kernels in dirichlet_kernel_blocks(m, resolution, stop - 1):
        values = np.mean(np.abs(kernels), axis=1)
        for i, value in enumerate(values):
            n = lo + i + 1
            idx = decompose(n, m)
            v, v_star = variation(idx, m, convention)
            lower, upper = _bracket(v, v_star, m.max_radix)
            reports.append(LebesgueReport(n, float(value), lower, upper, v, v_star, convention))
    return reports


def select_variation_convention(
    m: GeneratorSequence, resolution: int, limit: int
) -> tuple[str, dict[str, list[int]]]:
    """Decide the digit-sum convention empirically against exact L_n.

    Returns the winning convention and, per convention, the indices where
    the bracket failed.  Ties go to "from1" (the printed form).
    """
    violations: dict[str, list[int]] = {}
    for convention in ("from1", "from0"):
        table = lebesgue_table(m, resolution, limit, convention)
        violations[convention] = [r.n for r in table if not r.in_bracket]
    if len(violations["from1"]) <= len(violations["from0"]):
        return "from1", violations
    return "from0", violations


def maximal_function(f: GridFunction) -> GridFunction:
    """f* = max_k |S_{M_k} f| over the finite martingale levels."""
    stack = np.abs(coarse_sums(f))
    return GridFunction(f.generators, f.resolution, stack.max(axis=0).astype(np.complex128))


# An inf in f turns its coset means into nan; that is refused below rather
# than warned about.  (The decorator form costs a third of a `with` block.)
@np.errstate(invalid="ignore")
def hardy_norm(f: GridFunction, p: float) -> float:
    """||f||_{H_p} = ||f*||_p, exact for the martingale (S_{M_k}f)_{k<=N}."""
    _check_p(p)
    value = lp_norm(maximal_function(f), p)
    # The top level of f* is |f|, so a nan or inf in f reaches the norm;
    # testing the one result spares a pass over f on every call.
    if not np.isfinite(value):
        raise ValueError("hardy_norm: f holds a non-finite value or overflows the float range")
    return value


def restricted_maximal(f: GridFunction, indices) -> GridFunction:
    """Pointwise max of |S_n f| over a supplied index set."""
    index_list = list(indices)
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
    if not 0 <= n <= f.resolution:
        raise ValueError(f"modulus rank {n} out of range at resolution {f.resolution}")
    return hardy_norm(f - conditional_expectation(f, n), p)


def support_measure(f: GridFunction, threshold: float = SUPPORT_THRESHOLD) -> float:
    """mu{x : |f(x)| > threshold}."""
    return float(np.count_nonzero(np.abs(f.values) > threshold) / f.size)
