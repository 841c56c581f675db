"""p-atoms, the atomic validator, and the counterexample martingale.

The counterexample family is built from kernel-difference atoms

    a_k = (M_{|a_k|}^{1/p-1} / lambda) (D_{M_{|a_k|+1}} - D_{M_{|a_k|}})

scaled by coefficients lambda_k; its spectral profile is constant on the
digit blocks [M_{|a_k|}, M_{|a_k|+1}) and zero elsewhere, which gives a
closed form for every partial sum.  Divergence and modulus experiments
all draw their hard cases from here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .group import GeneratorSequence, VIndex, _integers, coset_mask, decompose
from .transform import _BATCH_POINTS, GridFunction, _lone, character_block, dirichlet_closed, zero

# Validator tolerances: the mean condition is absolute, the sup bound is
# relative to mu(I)^{-1/p}; support must vanish exactly.
ATOM_MEAN_TOL = 1e-9
ATOM_BOUND_TOL = 1e-9


def _check_atom_exponent(p: float) -> None:
    if not 0 < p <= 1:
        raise ValueError(f"atom exponent p = {p} must lie in (0, 1]")


def _float_power(base: int, exponent: float, what: str) -> float:
    """``base ** exponent``; past the float range one ``OverflowError`` names ``what``."""
    try:
        return base ** exponent
    except OverflowError:
        raise OverflowError(f"{what} = {base}^{exponent:g} overflows the float range") from None


class AtomViolationError(ValueError):
    """Raised by the validator; ``failures`` names the broken conditions."""

    def __init__(self, failures: list[str], detail: str):
        super().__init__(f"not a p-atom ({', '.join(failures)}): {detail}")
        self.failures = failures


@dataclass
class PAtom:
    """A checked p-atom: mean zero on I, sup bound mu(I)^{-1/p}, support in I."""

    p: float
    support_rank: int
    values: GridFunction


def validate_atom(
    a: GridFunction, p: float, support_rank: int, base_index: int = 0
) -> PAtom:
    """Check the three atom conditions on I = I_rank(x0); raise naming failures.

    I_rank(x0) is column x0 of the values read as (M_N / M_rank, M_rank) rows.
    """
    _check_atom_exponent(p)
    values = _lone(a.values, "validate_atom")
    m_rank = a.generators.base(int(_integers(support_rank, "coset rank", 0, a.resolution)))
    x0 = int(_integers(base_index, "coset base index", 0, m_rank - 1))
    coset = values.reshape(-1, m_rank)[:, x0]
    failures = []
    details = []

    mean = coset.mean()  # = M_rank * int_I a dmu
    if abs(mean) / m_rank > ATOM_MEAN_TOL:
        failures.append("mean")
        details.append(f"int_I a = {mean / m_rank:.3e}")

    bound = _float_power(m_rank, 1.0 / p, "the atom bound M_rank^(1/p)")
    sup = np.abs(values).max() if a.size else 0.0
    if sup > bound * (1.0 + ATOM_BOUND_TOL):
        failures.append("bound")
        details.append(f"sup |a| = {sup:.6g} > mu(I)^(-1/p) = {bound:.6g}")

    if np.count_nonzero(values) > np.count_nonzero(coset):
        failures.append("support")
        details.append("nonzero values off the support coset")

    if failures:
        raise AtomViolationError(failures, "; ".join(details))
    return PAtom(p=p, support_rank=support_rank, values=a)


def random_atom(
    m: GeneratorSequence,
    p: float,
    support_rank: int,
    resolution: int,
    rng: np.random.Generator,
    base_index: int = 0,
) -> PAtom:
    """Uniform values on the support coset's cells, mean-subtracted, then
    scaled to 90% of the sup bound (keeps the validator away from its edge)."""
    _check_atom_exponent(p)
    support_rank = int(_integers(support_rank, "support rank", 0, resolution - 1))
    mask = coset_mask(m, resolution, support_rank, base_index)
    values = np.zeros(m.size(resolution), dtype=np.complex128)
    raw = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    raw -= raw.mean()
    peak = np.abs(raw).max()
    if peak > 0:
        raw *= 0.9 * _float_power(m.base(support_rank), 1.0 / p, "the atom bound M_rank^(1/p)") / peak
    values[mask] = raw
    return validate_atom(GridFunction(m, resolution, values), p, support_rank, base_index)


def _block_level(m: GeneratorSequence, idx: VIndex, p: float, lam_k: float) -> float:
    """lambda_k M_{|a_k|}^{1/p-1} / lambda: the spectral level of block k."""
    return lam_k * _float_power(idx.m_top, 1.0 / p - 1.0, "the block level M_|a_k|^(1/p-1)") / m.max_radix


def counterexample_atom(
    m: GeneratorSequence, alpha, p: float, resolution: int
) -> PAtom | list[PAtom]:
    """The kernel-difference atom for index 1 <= alpha < M_N, materialized at rank N.

    ``alpha`` is one index (an int or its :class:`VIndex`) or a 1-D sequence
    of them; a sequence gives a list with one atom per index.  Every kernel
    D_{M_t} that the atoms ask for comes from one ``dirichlet_closed`` call,
    whose rows are bitwise the lone calls, so each atom is bitwise the lone
    ``counterexample_atom``.
    """
    lone = isinstance(alpha, VIndex) or np.ndim(alpha) == 0
    items = [alpha] if lone else list(alpha)
    _integers(
        [a.value if isinstance(a, VIndex) else a for a in items], "atom index", 1, m.size(resolution) - 1, ndim=1
    )
    indices = [a if isinstance(a, VIndex) else decompose(a, m) for a in items]
    ranks = sorted({r for idx in indices for r in (idx.top, idx.top + 1)})
    kernels = dict(zip(ranks, dirichlet_closed(m, [m.base(r) for r in ranks], resolution).values))
    atoms = []
    for idx in indices:
        diff = kernels[idx.top + 1] - kernels[idx.top]
        a = GridFunction(m, resolution, _block_level(m, idx, p, 1.0) * diff)
        atoms.append(validate_atom(a, p, idx.top))
    return atoms[0] if lone else atoms


def _atom_runs(indices: list[VIndex], size: int) -> list[slice]:
    """Slices cutting consecutive atoms into runs whose kernel rows D_{M_t},
    D_{M_{t+1}} hold at most ``_BATCH_POINTS`` grid points (one atom at least)."""
    starts: list[int] = []
    ranks: set[int] = set()
    for k, idx in enumerate(indices):
        ranks |= {idx.top, idx.top + 1}
        if not starts or len(ranks) * size > _BATCH_POINTS:
            starts.append(k)
            ranks = {idx.top, idx.top + 1}
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(indices)])]


@dataclass
class MartingaleSpec:
    """Symbolic counterexample martingale plus its materialized truncation."""

    generators: GeneratorSequence
    p: float
    indices: tuple[VIndex, ...]
    lambdas: tuple[float, ...]
    rule: str
    phi: tuple | None
    truncation: int
    realized: GridFunction

    @property
    def alphas(self) -> tuple[int, ...]:
        """The kept alphas as ints."""
        return tuple(idx.value for idx in self.indices)

    @property
    def coefficient_budget(self) -> float:
        """sum |lambda_k|^p over the realized atoms."""
        return float(sum(abs(l) ** self.p for l in self.lambdas))

    def to_json(self) -> str:
        blob = {
            "m": self.generators.format(),
            "p": self.p,
            "alphas": list(self.alphas),
            "lambdas": list(self.lambdas),
            "rule": self.rule,
            "phi": list(self.phi) if self.phi is not None else None,
            "N": self.truncation,
        }
        return json.dumps(blob, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MartingaleSpec":
        blob = json.loads(text)
        return build_counterexample(
            GeneratorSequence.parse(blob["m"]),
            blob["p"],
            blob["alphas"],
            rule=blob["rule"],
            phi=tuple(blob["phi"]) if blob.get("phi") else None,
            lambdas=blob["lambdas"] if blob["rule"] == "explicit" else None,
            resolution=blob["N"],
        )


def default_alphas(m: GeneratorSequence, resolution: int) -> list[int]:
    """alpha_k = M_{2^k} + 1 while the atom fits: maximal rho growth."""
    if resolution < 2:
        raise ValueError(f"the default alphas need N >= 2 for their first, M_1 + 1, not N = {resolution}")
    alphas = []
    k = 0
    while 2**k + 1 <= resolution:
        alphas.append(m.base(2**k) + 1)
        k += 1
    return alphas


def phi_value(phi: tuple | None, idx: VIndex) -> float:
    """Evaluate a closed-form Phi tag at index n.

    Tags: ("constant", c), ("log",) -> 1 + ln M_{|n|}, ("power", t) -> M_{|n|}^t;
    a value that is not positive and finite is refused.
    """
    if phi is None:
        return 1.0
    tag = phi[0]
    if tag == "log":
        return 1.0 + float(np.log(idx.m_top))
    if tag not in ("constant", "power"):
        raise ValueError(f"unknown phi tag {phi!r}")
    value = float(phi[1]) if tag == "constant" else _float_power(idx.m_top, float(phi[1]), "the Phi power M_|n|^t")
    if not 0 < value < np.inf:
        raise ValueError(f"Phi {phi!r} is {value} at n = {idx.value}; it must be positive and finite")
    return value


def spread_rate(idx: VIndex, p: float) -> float:
    """(M_|n| / M_<n>)^(1/p-1), the block-spread growth rate."""
    return _float_power(idx.m_top / idx.m_bottom, 1.0 / p - 1.0, "the spread rate (M_|n|/M_<n>)^(1/p-1)")


def select_gap_subsequence(indices, p: float) -> list[VIndex]:
    """Greedy filter enforcing the two sharpness gap conditions.

    Keeps a candidate only if its spread ratio strictly exceeds the last
    kept one and is at least its square (the doubling gap).
    """
    kept: list[VIndex] = []
    last_ratio = None
    for idx in indices:
        r = spread_rate(idx, p)
        if last_ratio is None or (r > last_ratio and r >= last_ratio**2):
            kept.append(idx)
            last_ratio = r
    return kept


def tail_certificate_terms(indices, p: float, phi: tuple | None) -> list[float]:
    """Summability certificate terms for the divergence construction:

        t_k = M_<a_k>^((1-p)/2) Phi_{a_k}^(p/2) / M_|a_k|^((1-p)/2)

    A strictly decreasing sequence certifies the finite tail at desk scale.
    """
    return [
        idx.m_bottom ** ((1.0 - p) / 2.0)
        * phi_value(phi, idx) ** (p / 2.0)
        / idx.m_top ** ((1.0 - p) / 2.0)
        for idx in indices
    ]


def build_counterexample(
    m: GeneratorSequence,
    p: float,
    alphas,
    rule: str = "balanced",
    *,
    phi: tuple | None = None,
    lambdas=None,
    resolution: int,
) -> MartingaleSpec:
    """Assemble the counterexample martingale truncated at rank N.

    ``alphas`` holds ints or their :class:`VIndex` expansions; each int is
    decomposed here, once.

    Rules:
      - "balanced": lambda_k = (M_<a_k>/M_|a_k|)^((1/p-1)/2) Phi_{a_k}^(1/2),
        guarded by the tail certificate (terms must strictly decrease).
      - "unit_kernel": greedy gap filter on the alphas, then
        lambda_k = lambda * (M_<a_k>/M_|a_k|)^(1/p-1).
      - "explicit": coefficients supplied by the caller.
    """
    _check_atom_exponent(p)
    stats = [a if isinstance(a, VIndex) else decompose(a, m) for a in alphas]
    if any(u.value <= t.value for t, u in zip(stats, stats[1:])):
        raise ValueError("alpha sequence must be strictly increasing")
    if any(t.top >= u.top for t, u in zip(stats, stats[1:])):
        raise ValueError(
            "alpha tops |a_k| must be strictly increasing (the spectral blocks must be disjoint)"
        )
    if not stats:
        raise ValueError("alpha sequence is empty")

    if rule == "balanced":
        terms = tail_certificate_terms(stats, p, phi)
        bad = [k for k in range(1, len(terms)) if terms[k] >= terms[k - 1]]
        if bad:
            raise ValueError(
                f"tail certificate fails at k = {bad}: terms do not decrease"
            )
        lam_list = [
            (idx.m_bottom / idx.m_top) ** ((1.0 / p - 1.0) / 2.0) * phi_value(phi, idx) ** 0.5
            for idx in stats
        ]
    elif rule == "unit_kernel":
        stats = select_gap_subsequence(stats, p)
        if len(stats) < 2:
            raise ValueError(
                "gap conditions leave fewer than two indices; supply a sparser alpha sequence"
            )
        lam_list = [m.max_radix / spread_rate(idx, p) for idx in stats]
    elif rule == "explicit":
        if lambdas is None or len(lambdas) != len(stats) or not np.isfinite(lambdas).all():
            raise ValueError(f"explicit rule needs one finite lambda per alpha, not {lambdas}")
        lam_list = [float(l) for l in lambdas]
    else:
        raise ValueError(f"unknown lambda rule {rule!r}")

    # atoms beyond the truncation stay symbolic
    kept_indices = [idx for idx in stats if idx.top < resolution]
    kept_lambdas = [lam_k for idx, lam_k in zip(stats, lam_list) if idx.top < resolution]
    realized = zero(m, resolution)
    # each run is added into realized, atom by atom, before the next is built
    for run in _atom_runs(kept_indices, realized.size):
        for lam_k, atom in zip(kept_lambdas[run], counterexample_atom(m, kept_indices[run], p, resolution)):
            realized.values += lam_k * atom.values.values
    return MartingaleSpec(
        generators=m,
        p=p,
        indices=tuple(kept_indices),
        lambdas=tuple(kept_lambdas),
        rule=rule,
        phi=phi,
        truncation=resolution,
        realized=realized,
    )


def spectral_profile(spec: MartingaleSpec) -> np.ndarray:
    """The closed-form coefficient table: f^(j) = lambda_k M_{|a_k|}^{1/p-1}/lambda
    on the block [M_{|a_k|}, M_{|a_k|+1}), zero off the blocks."""
    m = spec.generators
    out = np.zeros(m.size(spec.truncation), dtype=np.complex128)
    for idx, lam_k in zip(spec.indices, spec.lambdas):
        out[idx.m_top : m.base(idx.top + 1)] = _block_level(m, idx, spec.p, lam_k)
    return out


def closed_partial_sum(spec: MartingaleSpec, j) -> GridFunction:
    """S_j f from the block structure: completed atoms plus, inside a block,
    the twisted kernel term lambda_l M^{1/p-1} psi_{M_{|a_l|}} D_{j-M_{|a_l|}} / lambda.

    A completed atom is its block level times D_{M_{t+1}} - D_{M_t}, added
    on the coset slice of I_t since D_{M_t} = M_t on I_t and 0 off it.  Between
    blocks the spectral profile is zero, so the completed-atom sum is
    already exact; D_0 is the zero kernel by convention.

    ``j`` is one order or a 1-D sequence of orders; a sequence gives one row
    per order.  Each completed block is added, atom after atom, to the rows
    that reach it, and the twisted terms, at most one per row and added last,
    take their kernels from one ``dirichlet_closed`` call and their
    characters from one ``character_block`` call, so every row is bitwise the
    lone ``closed_partial_sum``, which is the same code on one row.
    """
    m, resolution = spec.generators, spec.truncation
    size = m.size(resolution)
    orders = _integers(j, "partial sum order", 0, size, ndim=1)
    rows = orders.reshape(-1)
    acc = np.zeros((rows.size, size), dtype=np.complex128)
    twisted, tops, shifts, levels = [], [], [], []
    for idx, lam_k in zip(spec.indices, spec.lambdas):
        level = _block_level(m, idx, spec.p, lam_k)
        m_top1 = m.base(idx.top + 1)
        reached = np.flatnonzero(rows >= m_top1).tolist()
        if reached:
            # on I_t, one add per cell: M_{t+1} - M_t on I_{t+1}, -M_t off it
            d = np.full(size // idx.m_top, -idx.m_top, dtype=np.int64)
            d[:: m.radix(idx.top)] += m_top1
            block = level * d
            for r in reached:
                acc[r, :: idx.m_top] += block
        for r in np.flatnonzero((rows > idx.m_top) & (rows < m_top1)).tolist():
            twisted.append(r)
            tops.append(idx.m_top)
            shifts.append(rows[r] - idx.m_top)
            levels.append(level)
    if twisted:
        terms = character_block(m, resolution, tops)
        np.multiply(np.asarray(levels)[:, None], terms, out=terms)
        terms *= dirichlet_closed(m, shifts, resolution).values
        for r, term in zip(twisted, terms):
            acc[r] += term
    return GridFunction(m, resolution, acc.reshape(orders.shape + (size,)))
