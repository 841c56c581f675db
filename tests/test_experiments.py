import functools
import json
import tracemalloc

import numpy as np
import pytest

import vilenkin.experiments as experiments
from shared import ALTERNATING, MIXED_CYCLE, TRIADIC
from vilenkin.group import GeneratorSequence, WALSH, decompose, index_stats
from vilenkin.experiments import (
    MIN_GROWTH,
    MIN_RUN,
    atom_ratio_scan,
    boundedness_scan,
    dirichlet_floor_scan,
    divergence_scan,
    kernel_average_scan,
    modulus_convergence_scan,
    weighted_series,
    weighted_series_scan,
    supp_measure_scan,
)
from vilenkin.martingale import build_counterexample, default_alphas, random_atom
from vilenkin.norms import hardy_norm, modulus_hp, weak_lp
from vilenkin.transform import (
    _truncated_inverse,
    constant,
    dirichlet_average,
    dirichlet_closed,
    dirichlet_shells,
    forward,
    partial_sum,
)


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

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_resolution_above_every_support_rank(self, seed):
        # Support rank 3 needs N > 3; the scan refuses N = 3 whatever it draws.
        with pytest.raises(ValueError, match="N > 3"):
            atom_ratio_scan(0.5, TRIADIC, 3, trials=1, seed=seed)


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
        # one batched forward pass over the whole pool, one row per function
        boundedness_scan(0.5, "Mn_plus_Mn-1", WALSH, 7, trials=trials, seed=3)
        assert [f.values.shape for f in forward_calls] == [(trials + 1, 128)]

    def test_divergence(self, forward_calls):
        divergence_scan(0.5, "Mn_plus_1", WALSH, 9)
        assert len(forward_calls) == 1

    @pytest.mark.parametrize("f_rule", ["unit_kernel", "fast_decay"])
    def test_modulus(self, forward_calls, f_rule):
        modulus_convergence_scan(0.5, f_rule, "default", WALSH, 9)
        assert len(forward_calls) == 1


class TestBatchedPool:
    """The boundedness scan transforms its whole pool back in one pass per
    index while the pool fits in one run of rows."""

    def test_one_inverse_pass_and_norm_call_per_index(self, monkeypatch):
        passes, norm_calls = [], []

        def counted_inverse(coeffs, m, resolution, stop):
            passes.append(coeffs.shape)
            return _truncated_inverse(coeffs, m, resolution, stop)

        def counted_norm(f, p):
            norm_calls.append(f.values.shape)
            return hardy_norm(f, p)

        monkeypatch.setattr(experiments, "_truncated_inverse", counted_inverse)
        monkeypatch.setattr(experiments, "hardy_norm", counted_norm)
        result = boundedness_scan(0.5, "Mn_plus_Mn-1", WALSH, 7, trials=4, seed=3)
        indices = [pt["n"] for pt in result.points]
        assert len(indices) == 6
        assert passes == [(5, 128)] * len(indices)
        assert norm_calls == [(5, 128)] * (len(indices) + 1)  # the denominators, then one per index


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestBatchedScans:
    """The modulus and divergence scans take their S_n f and H_p norms as row
    batches; every value is bitwise the one the lone call gives."""

    @pytest.mark.parametrize(
        "m, resolution", [(WALSH, 13), (WALSH, 8), (TRIADIC, 5), (ALTERNATING, 8), (MIXED_CYCLE, 6)]
    )
    @pytest.mark.parametrize("f_rule, n_rule", [("unit_kernel", "default"), ("fast_decay", "Mn_plus_1")])
    def test_modulus_values_are_lone_norms(self, m, resolution, f_rule, n_rule):
        p = 0.5
        result = modulus_convergence_scan(p, f_rule, n_rule, m, resolution)
        alphas = default_alphas(m, resolution) if n_rule == "default" else experiments._mk_plus_1(m, resolution)
        spec = experiments._modulus_spec(f_rule, m, p, [decompose(a, m) for a in alphas], resolution)
        f = spec.realized
        assert [pt["n"] for pt in result.points] == list(spec.alphas)
        diffs = [partial_sum(f, idx.value) - f for idx in spec.indices]
        assert _hex(pt["omega"] for pt in result.points) == _hex(modulus_hp(f, idx.top, p) for idx in spec.indices)
        assert _hex(pt["err_hardy"] for pt in result.points) == _hex(hardy_norm(d, p) for d in diffs)
        assert _hex(pt["err_weak"] for pt in result.points) == _hex(weak_lp(d, p) for d in diffs)
        # every omega(1/M_t) enters the tail constants, not only those at the tops
        tails = []
        for t in range(resolution + 1):
            tail = sum(abs(l) ** p for l, idx in zip(spec.lambdas, spec.indices) if idx.top >= t)
            if tail > 0:
                tails.append(modulus_hp(f, t, p) ** p / tail)
        assert _hex([result.constants["tail_constant_max"]]) == _hex([max(tails)])

    @pytest.mark.parametrize("m, resolution", [(WALSH, 13), (TRIADIC, 5), (MIXED_CYCLE, 6)])
    def test_divergence_values_are_lone_norms(self, m, resolution):
        p = 0.5
        result = divergence_scan(p, "Mn_plus_1", m, resolution)
        spec = build_counterexample(m, p, result.params["alphas"], rule="balanced", resolution=resolution)
        lone = [weak_lp(partial_sum(spec.realized, a), p) for a in spec.alphas]
        assert _hex(pt["weak_norm"] for pt in result.points) == _hex(lone)

    def test_batches_stay_within_the_row_cap(self, monkeypatch):
        rows = {"partial_sum": [], "hardy_norm": []}

        def counted(name, fn):
            def wrapper(f, *args):
                rows[name].append(f.values.shape[0] if name == "hardy_norm" else len(args[0]))
                return fn(f, *args)

            return wrapper

        for name in rows:
            monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
        resolution = 13
        cap = max(1, experiments._BATCH_POINTS // 2**resolution)
        assert cap == 4
        result = modulus_convergence_scan(0.5, "unit_kernel", "Mn_plus_1", WALSH, resolution)
        k = len(result.points)
        assert sum(rows["hardy_norm"]) == resolution + 1 + k  # the gaps f - S_{M_t} f, then the errors
        divergence_scan(0.5, "Mn_plus_1", WALSH, resolution)
        assert sum(rows["partial_sum"]) == k + resolution - 1
        assert max(rows["partial_sum"] + rows["hardy_norm"]) == cap
        # the boundedness pool of five functions: runs of four rows and one
        rows["hardy_norm"].clear()
        result = boundedness_scan(0.5, "Mn", WALSH, resolution, trials=4, seed=3)
        assert rows["hardy_norm"] == [cap, 1] * (len(result.points) + 1)


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
        assert counts["validate_atom"] == 9  # the atoms built, in one counterexample_atom call per run
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

    @pytest.mark.parametrize("mtext,resolution", [("2^", 7), ("3^", 5), ("2,3,4^", 5)])
    def test_holds_at_s_matches_flatnonzero(self, mtext, resolution):
        m = GeneratorSequence.parse(mtext)
        result = dirichlet_floor_scan(m, resolution)
        ns = np.array([pt["n"] for pt in result.points], dtype=np.int64)
        targets = index_stats(ns, m, resolution).m_bottom.astype(float)
        mins = dirichlet_shells(m, resolution, ns).per_shell(np.minimum)
        want = [np.flatnonzero(row).tolist() for row in mins >= targets[:, None] - 1e-6]
        assert [pt["holds_at_s"] for pt in result.points] == want


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
        # M_N grows 4x from N=10 to N=12; a quadratic scan would grow 16x.
        # Both sizes span several 256-row blocks of cumulative_rows.
        scan(WALSH, 4)  # module-level caches are not part of the scan's footprint
        small, large = self._traced_peak(scan, 10), self._traced_peak(scan, 12)
        assert large <= 6 * small, (small, large)

    def test_supp_measure_reports_closed_form_residual(self):
        result = supp_measure_scan(MIXED_CYCLE, 4)
        assert result.constants["closed_form_max_err"] <= 1e-9

    @pytest.mark.parametrize("resolution, calls_made", [(8, 1), (13, 6)])
    def test_residual_calls_the_kernel_once_per_run(self, monkeypatch, resolution, calls_made):
        # the sample {1, M_N - 1} u {2^k +- 1}: 14 orders at N = 8 fit one run of
        # 128 rows, 24 at N = 13 go in six runs of four rows (2^15 points each)
        calls = []
        monkeypatch.setattr(
            experiments,
            "dirichlet_closed",
            lambda m, n, N: calls.append(np.asarray(n).tolist()) or dirichlet_closed(m, n, N),
        )
        supp_measure_scan(WALSH, resolution)
        size = 2**resolution
        sample = {1, size - 1} | {2**k + e for k in range(1, resolution) for e in (-1, 1)}
        assert len(calls) == calls_made
        assert sum(calls, []) == sorted(sample)


class TestKernelAverageScan:
    def test_constant_bounded_across_sizes(self):
        small = kernel_average_scan(WALSH, 7, 3)
        large = kernel_average_scan(WALSH, 9, 4)
        assert small.constants["c_max"] <= 2.0
        assert large.constants["c_max"] <= 2.0
        for result in (small, large):
            assert result.constants["closed_form_max_err"] <= 1e-9

    def test_averages_only_the_residual_sample(self, monkeypatch):
        # limit 4 M_3 = 32 cuts the sample {1, 255} u {2^k +- 1} to 1, 3, 5, 7, 9, 15, 17, 31,
        # eight rows of 256 points: one run, so one call
        calls = []
        monkeypatch.setattr(
            experiments,
            "dirichlet_average",
            lambda m, n, *a: calls.append(np.asarray(n).tolist()) or dirichlet_average(m, n, *a),
        )
        kernel_average_scan(WALSH, 8, 3)
        assert calls == [[1, 3, 5, 7, 9, 15, 17, 31]]


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
