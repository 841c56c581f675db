"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they happen.  Every tolerance is pinned here, not computed on the fly;
empirical constants the theory leaves unquantified are asserted as
stability-across-scale, never as specific values.
"""

import numpy as np
import pytest

from vilenkin.group import GeneratorSequence, WALSH, decompose
from vilenkin.experiments import (
    DEFAULT_SEED,
    atom_ratio_scan,
    boundedness_scan,
    dirichlet_floor_scan,
    divergence_scan,
    modulus_convergence_scan,
    weighted_series,
)
from vilenkin.martingale import build_counterexample, closed_partial_sum, default_alphas
from vilenkin.norms import modulus_hp, select_variation_convention
from vilenkin.transform import (
    SpectralVector,
    character_block,
    dirichlet_closed,
    dirichlet_kernel_blocks,
    forward,
    grid_function,
    inverse,
    partial_sum,
)

TRIADIC = GeneratorSequence.parse("3^")
ALTERNATING = GeneratorSequence.parse("2,3^")
MIXED_CYCLE = GeneratorSequence.parse("2,3,4^")

#: Largest resolution with M_N <= 4096 per sequence.
FULL_GRIDS = [(WALSH, 12), (MIXED_CYCLE, 8), (TRIADIC, 7)]


def report(cid: int, ok: bool, detail: str) -> None:
    from conftest import ACCEPTANCE_LINES

    line = f"ACCEPTANCE {cid:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(f"\n{line}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_kernel_identity():
    """Block kernels match their two-level form and the closed product form
    equals direct summation for every n < M_N, to 1e-9 absolute."""
    worst_block = 0.0
    worst_closed = 0.0
    for m, resolution in FULL_GRIDS:
        size = m.size(resolution)
        grid = np.arange(size)
        for k in range(resolution + 1):
            mk = m.base(k)
            kernel = dirichlet_closed(m, mk, resolution).values
            mask = (grid % mk) == 0
            err = max(
                np.abs(kernel[mask] - mk).max(),
                np.abs(kernel[~mask]).max(initial=0.0),
            )
            worst_block = max(worst_block, float(err))
        for lo, kernels in dirichlet_kernel_blocks(m, resolution, size):
            for i in range(kernels.shape[0]):
                closed = dirichlet_closed(m, lo + i + 1, resolution).values
                worst_closed = max(worst_closed, float(np.abs(kernels[i] - closed).max()))
    ok = worst_block <= 1e-9 and worst_closed <= 1e-9
    report(
        1,
        ok,
        f"block-kernel err {worst_block:.2e}, closed-vs-direct err {worst_closed:.2e} "
        f"(tol 1e-9) over {[f'{m.format()}@N={N}' for m, N in FULL_GRIDS]}",
    )


def test_criterion_2_transform_correctness():
    """fast == naive to 1e-10 relative, Plancherel to 1e-9 relative, exact
    round trip; 100 random functions per generator sequence, at a mid
    resolution and at the largest one with M_N <= 4096."""
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_rel = worst_plancherel = worst_round = 0.0
    grids = [(m, n) for m, top in FULL_GRIDS for n in sorted({top // 2, top})]
    for m, resolution in grids:
        size = m.size(resolution)
        batch = rng.standard_normal((size, 100)) + 1j * rng.standard_normal((size, 100))
        fast = np.stack(
            [forward(grid_function(m, resolution, col)).coeffs for col in batch.T], axis=1
        )
        naive = np.empty_like(fast)
        for lo in range(0, size, 512):
            hi = min(lo + 512, size)
            rows = character_block(m, resolution, np.arange(lo, hi))
            naive[lo:hi] = rows.conj() @ batch / size
        rel = (np.abs(fast - naive).max(axis=0) / np.abs(naive).max(axis=0)).max()
        energy = (np.abs(batch) ** 2).mean(axis=0)
        plancherel = (np.abs(energy - (np.abs(fast) ** 2).sum(axis=0)) / energy).max()
        back = np.stack(
            [inverse(SpectralVector(m, resolution, col)).values for col in fast.T], axis=1
        )
        round_trip = np.abs(back - batch).max() / np.abs(batch).max()
        worst_rel = max(worst_rel, float(rel))
        worst_plancherel = max(worst_plancherel, float(plancherel))
        worst_round = max(worst_round, float(round_trip))
    ok = worst_rel <= 1e-10 and worst_plancherel <= 1e-9 and worst_round <= 1e-10
    report(
        2,
        ok,
        f"fast-vs-naive rel {worst_rel:.2e} (tol 1e-10), Plancherel rel "
        f"{worst_plancherel:.2e} (tol 1e-9), round-trip rel {worst_round:.2e}, "
        f"100 functions x {len(grids)} grids",
    )


def test_criterion_3_lower_estimate():
    """min |D_n| on the bottom shell reaches M_<n> - 1e-6 for every n < 1024
    with |n| != <n>, exhaustively per generator sequence.

    Holds for radices <= 3; a radix >= 4 admits exact kernel zeros on the
    shell (digit 2 against coordinate 2 cancels the geometric factor), so
    those sequences are covered by the documenting scan instead."""
    details = []
    ok = True
    for m, resolution in [(WALSH, 10), (TRIADIC, 7), (ALTERNATING, 8)]:
        result = dirichlet_floor_scan(m, resolution, n_limit=1023)
        violations = result.constants["violations"]
        closed_err = result.constants["closed_form_max_err"]
        ok = ok and not violations and closed_err <= 1e-9
        details.append(f"{m.format()}: {len(result.points)} indices, min ratio "
                       f"{result.constants['min_floor_ratio']:.6f}, closed-form err {closed_err:.1e}")
    documented = dirichlet_floor_scan(MIXED_CYCLE, 5)
    ok = ok and documented.verdict == "violated"  # the radix-4 failure is real and reported
    report(
        3,
        ok,
        "; ".join(details) + f"; radix-4 counterexample documented "
        f"({len(documented.constants['violations'])} indices, e.g. n=60)",
    )


def test_criterion_4_lebesgue_bracket():
    """Under the oracle-selected digit convention the variation bracket holds
    for every n < 512 on the Walsh and alternating (2,3) groups."""
    details = []
    ok = True
    for m, resolution in [(WALSH, 10), (ALTERNATING, 8)]:
        winner, violations = select_variation_convention(m, resolution, 512)
        clean = violations[winner] == []
        ok = ok and clean
        details.append(
            f"{m.format()}: winner {winner}, violations {{from1: {len(violations['from1'])}, "
            f"from0: {len(violations['from0'])}}}"
        )
    report(4, ok, "; ".join(details) + " (bracket asserted violation-free under the winner)")


def test_criterion_5_atom_boundedness():
    """Normalized atom ratios: the N=8 maximum exceeds the N=6 maximum by a
    factor <= 2, over 200 random atoms per exponent, all n <= M_N."""
    details = []
    ok = True
    for p in (0.5, 2 / 3):
        small = atom_ratio_scan(p, WALSH, 6, trials=200, seed=DEFAULT_SEED)
        large = atom_ratio_scan(p, WALSH, 8, trials=200, seed=DEFAULT_SEED)
        lo, hi = small.constants["max_ratio"], large.constants["max_ratio"]
        ok = ok and hi <= 2.0 * lo and lo > 0
        details.append(f"p={p:.4g}: max r {lo:.4f} (N=6) -> {hi:.4f} (N=8), factor {hi / lo:.3f}")
    report(5, ok, "; ".join(details) + " (stability factor tol 2)")


def test_criterion_6_divergence():
    """The counterexample martingale on alpha_k = M_(2^k)+1 at p=1/2, Walsh,
    N=14 shows a weak-quasi-norm trace strictly increasing over >= 4
    consecutive k with total growth >= 4.

    The lambda choice is free in the construction (any finitely supported
    sequence has a finite p-budget); unit coefficients exhibit the growth.
    The decaying-lambda variant used in the divergence proof is recorded
    alongside: its trace dips once at k=0 before growing."""
    alphas = default_alphas(WALSH, 14)
    result = divergence_scan(
        0.5,
        "general",
        WALSH,
        14,
        rule="explicit",
        lambdas=[1.0] * len(alphas),
    )
    proof_rule = divergence_scan(0.5, "general", WALSH, 14, rule="balanced")
    run = result.constants["increasing_run"]
    growth = result.constants["run_growth"]
    ok = (
        result.verdict == "growing"
        and run >= 4
        and growth >= 4.0
        and result.constants["closed_form_max_err"] <= 1e-9
    )
    report(
        6,
        ok,
        f"alphas {list(result.params['alphas'])}, trace {[f'{t:.4g}' for t in result.trace]}, "
        f"run {run}, growth {growth:.1f} (tol: run>=4, growth>=4); "
        f"proof-rule trace {[f'{t:.4g}' for t in proof_rule.trace]}",
    )


def test_criterion_7_low_spread_boundedness():
    """Hardy-ratio maxima for n_k = M_k and n_k = M_k + M_(k-1) stay within a
    factor 2 across N in {8, 10, 12} (50 random functions + the martingale)."""
    details = []
    ok = True
    for variant in ("Mn", "Mn_plus_Mn-1"):
        maxima = []
        for resolution in (8, 10, 12):
            result = boundedness_scan(0.5, variant, WALSH, resolution, trials=50, seed=DEFAULT_SEED)
            maxima.append(result.constants["max_ratio"])
        spread = max(maxima) / min(maxima)
        ok = ok and spread <= 2.0
        details.append(f"{variant}: maxima {[f'{v:.4f}' for v in maxima]}, spread {spread:.3f}")
    report(7, ok, "; ".join(details) + " (spread tol 2)")


def test_criterion_8_modulus_machinery():
    """The coefficient-tail bound holds at every truncation with constant
    <= 1; the sharpness martingale exhibits the target modulus rate within a
    bounded band and a weak-error trace bounded below by a positive floor."""
    m, p, resolution = WALSH, 0.5, 14
    tail_ok = True
    worst_tail_constant = 0.0
    for rule in ("balanced", "unit_kernel"):
        spec = build_counterexample(m, p, default_alphas(m, resolution), rule=rule, resolution=resolution)
        tops = [decompose(a, m).top for a in spec.alphas]
        for t in range(resolution + 1):
            tail = sum(abs(l) ** p for l, top in zip(spec.lambdas, tops) if top >= t)
            omega = modulus_hp(spec.realized, t, p)
            if tail == 0:
                tail_ok = tail_ok and omega <= 1e-9
            else:
                constant = omega**p / tail
                worst_tail_constant = max(worst_tail_constant, constant)
                tail_ok = tail_ok and constant <= 1.0 + 1e-9

    sharp = modulus_convergence_scan(p, "unit_kernel", "default", m, resolution)
    band_lo = sharp.constants["modulus_rate_ratio_min"]
    band_hi = sharp.constants["modulus_rate_ratio_max"]
    floor = sharp.constants["weak_error_floor"]
    sharp_ok = band_lo > 0 and band_hi / band_lo <= 16.0 and floor >= 0.05
    ok = tail_ok and sharp_ok and sharp.verdict == "growing"
    report(
        8,
        ok,
        f"tail constant {worst_tail_constant:.4f} (tol 1), modulus/target band "
        f"[{band_lo:.3f}, {band_hi:.3f}] (band tol 16x), weak-error floor {floor:.4f} (tol 0.05)",
    )


def test_criterion_9_weighted_series_stability():
    """The weighted-series ratio at N=10 stays within a factor 2 of its N=8
    value for 50 random functions and the counterexample martingale."""
    rng = np.random.default_rng(DEFAULT_SEED)
    pool = []
    for _ in range(50):
        values = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        pool.append(grid_function(WALSH, 10, values))
    pool.append(build_counterexample(WALSH, 0.5, default_alphas(WALSH, 10), resolution=10).realized)
    lo_q, hi_q = np.inf, 0.0
    for f10 in pool:
        f8 = grid_function(WALSH, 8, f10.values.reshape(-1, 256).mean(axis=0))
        for p in (0.5, 2 / 3):
            quotient = weighted_series(f10, p).ratio / weighted_series(f8, p).ratio
            lo_q, hi_q = min(lo_q, quotient), max(hi_q, quotient)
    ok = 0.5 <= lo_q and hi_q <= 2.0
    report(9, ok, f"ratio quotients N=10/N=8 in [{lo_q:.4f}, {hi_q:.4f}] (tol [0.5, 2]), 51 functions, p in {{1/2, 2/3}}")


def test_criterion_10_closed_form_partial_sums():
    """The block closed form equals spectral truncation to 1e-9 on every
    tested (spec, j), including every block boundary."""
    cases = [
        build_counterexample(WALSH, 0.5, default_alphas(WALSH, 10), resolution=10),
        build_counterexample(WALSH, 0.5, default_alphas(WALSH, 12), rule="unit_kernel", resolution=12),
        build_counterexample(
            ALTERNATING, 2 / 3, default_alphas(ALTERNATING, 8), resolution=8
        ),
        build_counterexample(
            TRIADIC, 0.5, [4, 10, 82], rule="explicit", lambdas=[1.0, 0.5, 0.25], resolution=5
        ),
    ]
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    tested = 0
    for spec in cases:
        m = spec.generators
        size = spec.realized.size
        probes = {0, 1, size}
        for a in spec.alphas:
            top = decompose(a, m).top
            probes.update({m.base(top), m.base(top) + 1, m.base(top + 1), a, a - 1})
        probes.update(int(j) for j in rng.integers(1, size, size=10))
        for j in sorted(p for p in probes if 0 <= p <= size):
            err = np.abs(
                closed_partial_sum(spec, j).values - partial_sum(spec.realized, j).values
            ).max()
            worst = max(worst, float(err))
            tested += 1
    ok = worst <= 1e-9
    report(10, ok, f"{tested} (spec, j) pairs over 4 specs, worst err {worst:.2e} (tol 1e-9)")
