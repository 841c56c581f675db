import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin.experiments as experiments
from vilenkin.group import GeneratorSequence, WALSH
from vilenkin.experiments import (
    MIN_GROWTH,
    MIN_RUN,
    atom_ratio_scan,
    boundedness_scan,
    dirichlet_floor_scan,
    divergence_scan,
    kernel_average_scan,
    modulus_convergence_scan,
    partial_sum_rows,
    weighted_series,
    weighted_series_scan,
    supp_measure_scan,
)
from vilenkin.martingale import build_counterexample, default_alphas, random_atom
from vilenkin.norms import hardy_norm, lp_norm
from vilenkin.transform import constant, dirichlet_average, forward, grid_function, partial_sum

ALTERNATING = GeneratorSequence.parse("2,3^")
MIXED_CYCLE = GeneratorSequence.parse("2,3,4^")


def random_grid(m, resolution, seed=0):
    rng = np.random.default_rng(seed)
    size = m.size(resolution)
    return grid_function(m, resolution, rng.standard_normal(size) + 1j * rng.standard_normal(size))


class TestPartialSumRows:
    def test_rows_match_partial_sum(self):
        # 432 rows: the prefix carries over from the first 256-row block
        f = random_grid(ALTERNATING, 7, seed=5)
        seen = {}
        for lo, ps in partial_sum_rows(f):
            for i in range(ps.shape[0]):
                seen[lo + i + 1] = ps[i]
        for n in (1, 5, 17, 256, 257, f.size):
            assert np.abs(seen[n] - partial_sum(f, n).values).max() < 1e-9


class TestAtomRatioScan:
    def test_zero_below_support_base(self):
        # S_n a = 0 for n <= M_rank: the scan starts past the support base.
        rng = np.random.default_rng(0)
        atom = random_atom(WALSH, 0.5, 2, 6, rng)
        for n in range(1, WALSH.base(2) + 1):
            assert np.abs(partial_sum(atom.values, n).values).max() < 1e-9

    def test_scan_runs_and_is_deterministic(self):
        a = atom_ratio_scan(0.5, WALSH, 6, trials=20, seed=9)
        b = atom_ratio_scan(0.5, WALSH, 6, trials=20, seed=9)
        assert a.to_json() == b.to_json()
        assert a.verdict == "bounded"
        assert a.constants["max_ratio"] > 0

    def test_block_index_ratio_reduces_to_hardy_bound(self):
        # r(M_k, a) = ||S_{M_k} a||_{H_p}: never past the atom's budget.
        rng = np.random.default_rng(1)
        p = 0.5
        atom = random_atom(WALSH, p, 2, 6, rng)
        for k in range(3, 7):
            assert hardy_norm(partial_sum(atom.values, 2**k), p) <= 1.0 + 1e-9

    def test_p_range_checked(self):
        with pytest.raises(ValueError):
            atom_ratio_scan(1.0, WALSH, 6)
        with pytest.raises(ValueError, match="at least one trial"):
            atom_ratio_scan(0.5, WALSH, 6, trials=0)  # the atoms are its only evidence


class TestDivergenceScan:
    def test_block_plus_one_family_grows(self):
        result = divergence_scan(0.5, "Mn_plus_1", WALSH, 12)
        assert result.verdict == "growing"
        assert result.constants["closed_form_max_err"] < 1e-9
        seg = result.trace[1:7]
        assert all(b > a for a, b in zip(seg, seg[1:]))
        assert seg[-1] / seg[0] >= 4.0

    def test_rho_bounded_family_refused(self):
        flat = [WALSH.base(k) + WALSH.base(k - 1) for k in range(2, 8)]
        with pytest.raises(ValueError) as err:
            divergence_scan(0.5, "general", WALSH, 10, alphas=flat)
        assert "bounded regime" in str(err.value)

    def test_phi_defeating_growth_refused(self):
        # Phi growing as fast as the rate kills the growth hypothesis.
        with pytest.raises(ValueError) as err:
            divergence_scan(0.5, "Mn_plus_1", WALSH, 10, phi=("power", 1.0))
        assert "growth hypothesis" in str(err.value)

    def test_kernel_term_dominates_eventually(self):
        # the two-term split at alpha_k: the kernel term's weak norm outgrows
        # the completed-atom term.
        from vilenkin.martingale import closed_partial_sum
        from vilenkin.norms import weak_lp
        from vilenkin.group import decompose

        m, p, resolution = WALSH, 0.5, 12
        spec = build_counterexample(m, p, [m.base(k) + 1 for k in range(1, resolution)], resolution=resolution)
        tail = []
        for k, a in enumerate(spec.alphas):
            top = decompose(a, m).top
            head = partial_sum(spec.realized, m.base(top))
            full = closed_partial_sum(spec, a)
            tail.append(weak_lp(full - head, p) / max(weak_lp(head, p), 1e-300))
        assert tail[-1] > tail[1] and tail[-1] > 4

    def test_variant_unknown(self):
        with pytest.raises(ValueError):
            divergence_scan(0.5, "sideways", WALSH, 8)


class TestBoundednessScan:
    def test_block_variant_ratio_is_one(self):
        result = boundedness_scan(0.5, "Mn", WALSH, 8, trials=8, seed=3)
        assert result.verdict == "bounded"
        assert result.constants["max_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_neighbor_variant_bounded(self):
        result = boundedness_scan(0.5, "Mn_plus_Mn-1", WALSH, 8, trials=8, seed=3)
        assert result.verdict == "bounded"
        assert result.constants["max_ratio"] <= 2.0

    def test_rho_two_variant_bounded(self):
        result = boundedness_scan(2 / 3, "rho_bounded", ALTERNATING, 6, trials=5, seed=4)
        assert result.verdict == "bounded"


class TestOneSpectrumPerFunction:
    """Each scan transforms each of its functions once, however many S_n f it takes."""

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        import vilenkin.experiments as experiments
        import vilenkin.transform as transform

        calls = []

        def counted(f):
            calls.append(f)
            return forward(f)

        # partial_sum of a grid function would call transform.forward, so count both.
        monkeypatch.setattr(experiments, "forward", counted)
        monkeypatch.setattr(transform, "forward", counted)
        return calls

    @pytest.mark.parametrize("trials", [1, 4])
    def test_boundedness(self, forward_calls, trials):
        boundedness_scan(0.5, "Mn_plus_Mn-1", WALSH, 7, trials=trials, seed=3)
        assert len(forward_calls) == trials + 1

    def test_divergence(self, forward_calls):
        divergence_scan(0.5, "Mn_plus_1", WALSH, 9)
        assert len(forward_calls) == 1

    @pytest.mark.parametrize("f_rule", ["unit_kernel", "fast_decay"])
    def test_modulus(self, forward_calls, f_rule):
        modulus_convergence_scan(0.5, f_rule, "default", WALSH, 9)
        assert len(forward_calls) == 1


class TestDivergenceWork:
    """The divergence scan decomposes each alpha once and builds each atom once."""

    def test_one_atom_per_alpha(self, monkeypatch):
        import sys

        import vilenkin.experiments as experiments
        import vilenkin.group as group
        import vilenkin.martingale as martingale

        counts = {"decompose": 0, "counterexample_atom": 0, "validate_atom": 0, "inside_closed": 0}
        in_closed = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if in_closed and name != "decompose":
                    counts["inside_closed"] += 1
                return fn(*args, **kwargs)

            return wrapper

        original = group.decompose
        for mod in [m for name, m in sys.modules.items() if name.startswith("vilenkin")]:
            if getattr(mod, "decompose", None) is original:
                monkeypatch.setattr(mod, "decompose", counted("decompose", original))
        for name in ("counterexample_atom", "validate_atom"):
            monkeypatch.setattr(martingale, name, counted(name, getattr(martingale, name)))
        closed = experiments.closed_partial_sum

        def closed_tracked(spec, j):
            in_closed.append(j)
            try:
                return closed(spec, j)
            finally:
                in_closed.pop()

        monkeypatch.setattr(experiments, "closed_partial_sum", closed_tracked)
        result = divergence_scan(0.5, "Mn_plus_1", WALSH, 10)
        assert len(result.points) == 9
        assert counts["counterexample_atom"] == 9
        assert counts["validate_atom"] == 9
        assert counts["decompose"] <= 45
        assert counts["inside_closed"] == 0


class TestWeightedSeries:
    def test_constant_function_oracle(self):
        # f = psi_0: ||S_k f||_p = 1 for all k >= 1, so the sum telescopes to
        # sum_k k^(p-2), and the ratio equals that constant.
        f = constant(WALSH, 6)
        for p in (0.5, 2 / 3):
            report = weighted_series(f, p)
            oracle = sum(1.0 / k ** (2 - p) for k in range(1, f.size + 1))
            assert report.total == pytest.approx(oracle, rel=1e-12)
            assert report.ratio == pytest.approx(oracle, rel=1e-12)

    def test_counterexample_ratio_finite(self):
        spec = build_counterexample(WALSH, 0.5, default_alphas(WALSH, 8), resolution=8)
        report = weighted_series(spec.realized, 0.5)
        assert np.isfinite(report.ratio) and report.ratio > 0

    def test_p_range(self):
        with pytest.raises(ValueError):
            weighted_series(constant(WALSH, 4), 1.0)


class TestModulusScan:
    def test_fast_decay_error_vanishes(self):
        result = modulus_convergence_scan(0.5, "fast_decay", "default", WALSH, 12)
        assert result.verdict == "bounded"
        assert all(b < a for a, b in zip(result.trace, result.trace[1:]))
        assert result.trace[-1] <= result.trace[0] / 4

    def test_sharpness_spec_has_floor_and_rate(self):
        result = modulus_convergence_scan(0.5, "unit_kernel", "default", WALSH, 12)
        assert result.verdict == "growing"
        assert result.constants["weak_error_floor"] >= 0.05
        lo = result.constants["modulus_rate_ratio_min"]
        hi = result.constants["modulus_rate_ratio_max"]
        assert lo > 0 and hi / lo <= 16.0

    def test_block_index_error_equals_modulus(self):
        # n_k = M_k: ||S_{M_k} f - f||_{H_p} is the modulus by definition.
        from vilenkin.norms import modulus_hp

        spec = build_counterexample(WALSH, 0.5, default_alphas(WALSH, 10), resolution=10)
        f = spec.realized
        for k in (2, 3, 5):
            err = hardy_norm(partial_sum(f, WALSH.base(k)) - f, 0.5)
            # spectral vs exact-averaging paths differ by float dust that the
            # p-th root amplifies, hence the loose relative tolerance
            assert err == pytest.approx(modulus_hp(f, k, 0.5), rel=1e-5)


class TestSuppMeasureScan:
    def test_block_rows_are_one(self):
        result = supp_measure_scan(WALSH, 8)
        by_n = {pt["n"]: pt for pt in result.points}
        for k in range(9):
            assert by_n[2**k]["n_mu_supp"] == pytest.approx(1.0)

    def test_mk_plus_1_has_full_support(self):
        # D_{M_k+1} never vanishes (unimodular term off I_k), so n mu(supp)
        # is n itself: within a factor of 2 of M_k, inside the bracket.
        result = supp_measure_scan(WALSH, 8)
        by_n = {pt["n"]: pt for pt in result.points}
        for k in range(2, 8):
            n = 2**k + 1
            assert by_n[n]["n_mu_supp"] == pytest.approx(float(n))
            assert by_n[n]["in_bracket"]

    @pytest.mark.parametrize("m", [WALSH, ALTERNATING, MIXED_CYCLE], ids=lambda m: m.format())
    def test_bracket_never_escapes(self, m):
        resolution = {2: 9, 3: 7}.get(m.max_radix, 6)
        result = supp_measure_scan(m, resolution)
        assert result.verdict == "bounded"


class TestDirichletFloorScan:
    @pytest.mark.parametrize("mtext,resolution", [("2^", 9), ("3^", 6), ("2,3^", 7)])
    def test_small_radices_hold(self, mtext, resolution):
        m = GeneratorSequence.parse(mtext)
        result = dirichlet_floor_scan(m, resolution)
        assert result.verdict == "bounded"
        assert result.constants["min_floor_ratio"] >= 1.0 - 1e-9
        # the shell table the floors are read from agrees with the closed form
        assert result.constants["closed_form_max_err"] <= 1e-9

    def test_radix_four_fails_pointwise(self):
        # A radix-4 digit of 2 zeroes the geometric factor on part of the
        # bottom shell, so the blanket floor claim breaks: documented, not hidden.
        result = dirichlet_floor_scan(MIXED_CYCLE, 5)
        assert result.verdict == "violated"
        assert 60 in result.constants["violations"]
        by_n = {pt["n"]: pt for pt in result.points}
        assert by_n[60]["floor"] < 1e-6

    def test_bottom_shell_always_listed_when_ok(self):
        result = dirichlet_floor_scan(WALSH, 7)
        for pt in result.points:
            assert pt["bottom"] in pt["holds_at_s"]


class TestKernelScanMemory:
    @staticmethod
    def _traced_peak(scan, resolution):
        tracemalloc.start()
        try:
            scan(WALSH, resolution)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "scan",
        [
            supp_measure_scan,
            dirichlet_floor_scan,
            pytest.param(functools.partial(kernel_average_scan, support_rank=0), id="kernel_average_scan-rank0"),
            pytest.param(functools.partial(atom_ratio_scan, 0.5, trials=2), id="atom_ratio_scan"),
            pytest.param(functools.partial(divergence_scan, 0.5, "Mn_plus_1"), id="divergence_scan"),
            pytest.param(functools.partial(boundedness_scan, 0.5, "Mn", trials=2), id="boundedness_scan"),
            pytest.param(
                functools.partial(modulus_convergence_scan, 0.5, "unit_kernel", "default"),
                id="modulus_convergence_scan",
            ),
            pytest.param(functools.partial(weighted_series_scan, 0.5, trials=1), id="weighted_series_scan"),
        ],
        ids=lambda f: f.__name__,
    )
    def test_peak_grows_linearly(self, scan):
        # M_N grows 4x from N=8 to N=10; a quadratic scan would grow 16x
        scan(WALSH, 4)  # module-level caches are not part of the scan's footprint
        small, large = self._traced_peak(scan, 8), self._traced_peak(scan, 10)
        assert large <= 6 * small, (small, large)

    def test_supp_measure_reports_closed_form_residual(self):
        result = supp_measure_scan(MIXED_CYCLE, 4)
        assert result.constants["closed_form_max_err"] <= 1e-9


@st.composite
def _average_case(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 0
    while m.size(top + 1) <= 512:
        top += 1
    resolution = draw(st.integers(0, top))
    return m, resolution, draw(st.integers(0, resolution))


def _kernel_average_loop(m, resolution, rank, limit):
    """c(n) for 1 <= n <= limit from ``dirichlet_average`` and full-grid shell
    masks, one n at a time, as ``kernel_average_scan`` computed it before it
    read the shell table."""
    bases = m.scaled_bases(resolution)
    grid = np.arange(m.size(resolution))
    shells = [((grid % bases[s]) == 0) & ((grid % bases[s + 1]) != 0) for s in range(rank)]
    cs = []
    for n in range(1, limit + 1):
        avg = dirichlet_average(m, n, rank, resolution).values.real
        per_shell = [float(avg[shell].max()) * bases[rank] / bases[s] for s, shell in enumerate(shells)]
        cs.append(max(per_shell, default=0.0))
    return cs


class TestKernelAverageScan:
    def test_constant_bounded_across_sizes(self):
        small = kernel_average_scan(WALSH, 7, 3)
        large = kernel_average_scan(WALSH, 9, 4)
        assert small.constants["c_max"] <= 2.0
        assert large.constants["c_max"] <= 2.0
        for result in (small, large):
            assert result.constants["closed_form_max_err"] <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_average_case())
    def test_matches_per_n_average_loop(self, case):
        m, resolution, rank = case
        result = kernel_average_scan(m, resolution, rank)
        ref = _kernel_average_loop(m, resolution, rank, result.params["limit"])
        assert [pt["n"] for pt in result.points] == list(range(1, len(ref) + 1))
        assert np.allclose([pt["c"] for pt in result.points], ref, rtol=1e-12, atol=0)
        assert result.constants["c_max"] == max(pt["c"] for pt in result.points)
        assert result.constants["closed_form_max_err"] <= 1e-9

    def test_averages_only_the_residual_sample(self, monkeypatch):
        # limit 4 M_3 = 32 cuts the sample {1, 255} u {2^k +- 1} to 1, 3, 5, 7, 9, 15, 17, 31
        calls = []
        monkeypatch.setattr(
            experiments, "dirichlet_average", lambda m, n, *a: calls.append(n) or dirichlet_average(m, n, *a)
        )
        kernel_average_scan(WALSH, 8, 3)
        assert calls == [1, 3, 5, 7, 9, 15, 17, 31]


class TestResultPlumbing:
    def test_json_is_valid_and_sorted(self):
        result = supp_measure_scan(WALSH, 5)
        blob = json.loads(result.to_json())
        assert blob["scenario"] == "supp_measure"
        assert blob["verdict"] == "bounded"

    def test_csv_has_header_and_rows(self):
        result = supp_measure_scan(WALSH, 5)
        text = result.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# vilenkin scenario=")
        assert "n,top,bottom" in text
        assert len([l for l in lines if not l.startswith("#")]) == len(result.points) + 1

    def test_svg_emits_polyline(self):
        result = divergence_scan(0.5, "Mn_plus_1", WALSH, 10)
        svg = result.to_svg()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("variant, resolution", [("Mn_plus_1", 6), ("general", 10), ("Mn_plus_1", 10)],
                             ids=["growth-short", "run-short", "growing"])
    def test_divergence_verdict_reads_the_recorded_run(self, variant, resolution):
        result = divergence_scan(0.5, variant, WALSH, resolution)
        params, c = result.params, result.constants
        assert (params["min_run"], params["min_growth"]) == (MIN_RUN, MIN_GROWTH)
        growing = c["increasing_run"] >= params["min_run"] and c["run_growth"] >= params["min_growth"]
        assert result.verdict == ("growing" if growing else "bounded")
