import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import GeneratorSequence, WALSH, coset_mask, decompose
from vilenkin.martingale import (
    AtomViolationError,
    MartingaleSpec,
    _block_level,
    build_counterexample,
    closed_partial_sum,
    counterexample_atom,
    default_alphas,
    phi_value,
    random_atom,
    select_gap_subsequence,
    spectral_profile,
    tail_certificate_terms,
    validate_atom,
)
from vilenkin.norms import hardy_norm, modulus_hp
from vilenkin.transform import (
    character_values,
    constant,
    dirichlet_closed,
    forward,
    grid_function,
    partial_sum,
)

TRIADIC = GeneratorSequence.parse("3^")
ALTERNATING = GeneratorSequence.parse("2,3^")


class TestValidateAtom:
    def test_two_level_atom_valid(self):
        # M_N^(1/p) (1_{I_{N+1}(0)} - (1/m_N) 1_{I_N(0)}) style function
        m, rank, resolution, p = WALSH, 2, 5, 0.5
        vals = np.zeros(m.size(resolution))
        in_parent = (np.arange(m.size(resolution)) % m.base(rank)) == 0
        in_child = (np.arange(m.size(resolution)) % m.base(rank + 1)) == 0
        vals[in_parent] = -m.base(rank) ** (1 / p) / m.radix(rank)
        vals[in_child] += m.base(rank) ** (1 / p)
        atom = validate_atom(grid_function(m, resolution, vals), p, rank)
        assert atom.support_rank == rank

    def test_constant_rejected_for_mean(self):
        with pytest.raises(AtomViolationError) as err:
            validate_atom(constant(WALSH, 4), 0.5, 0)
        assert "mean" in err.value.failures

    def test_sup_bound_violation_named(self):
        vals = np.zeros(16)
        vals[0], vals[8] = 100.0, -100.0  # mean zero on I_3(0), way over M_3^2
        with pytest.raises(AtomViolationError) as err:
            validate_atom(grid_function(WALSH, 4, vals), 0.5, 3)
        assert err.value.failures == ["bound"]

    def test_support_violation_named(self):
        vals = np.ones(16) * 1e-3
        vals[0], vals[8] = 1.0, -1.0
        with pytest.raises(AtomViolationError) as err:
            validate_atom(grid_function(WALSH, 4, vals), 0.5, 3)
        assert "support" in err.value.failures

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            validate_atom(constant(WALSH, 3), 1.5, 0)
        # the atom builders check p on entry, with the validator's message
        with pytest.raises(ValueError, match=r"p = 0.0 must lie in \(0, 1\]"):
            random_atom(WALSH, 0.0, 2, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"p = 0.0 must lie in \(0, 1\]"):
            build_counterexample(WALSH, 0.0, [3, 5], resolution=6)

    def test_random_atom_respects_base_point(self):
        rng = np.random.default_rng(0)
        atom = random_atom(WALSH, 0.5, 2, 5, rng, base_index=3)
        mask = (np.arange(32) % 4) == 3
        assert np.all(atom.values.values[~mask] == 0)
        assert np.abs(atom.values.values[mask]).max() > 0

    @pytest.mark.parametrize("base", [-1, 4, 99])
    def test_base_outside_the_cosets_refused(self, base):
        # I_2 has M_2 = 4 cosets: a base past them once wrapped to base % 4.
        atom = random_atom(WALSH, 0.5, 2, 5, np.random.default_rng(0), base_index=base % 4)
        with pytest.raises(ValueError, match=rf"coset base index {base} is not an integer in 0\.\.3"):
            validate_atom(atom.values, 0.5, 2, base)
        with pytest.raises(ValueError, match=rf"coset base index {base} is not an integer in 0\.\.3"):
            random_atom(WALSH, 0.5, 2, 5, np.random.default_rng(0), base_index=base)


class TestCounterexampleAtom:
    @pytest.mark.parametrize("m", [WALSH, TRIADIC, ALTERNATING], ids=lambda m: m.format())
    @pytest.mark.parametrize("p", [0.5, 2 / 3, 1.0])
    def test_validator_passes_for_every_k(self, m, p):
        for alpha_top in (1, 2, 3):
            alpha = m.base(alpha_top) + 1
            atom = counterexample_atom(m, alpha, p, 5)
            assert atom.support_rank == alpha_top

    def test_mean_zero_over_support(self):
        atom = counterexample_atom(TRIADIC, 4, 0.5, 4)
        vals = atom.values.values
        mask = (np.arange(81) % 3) == 0  # I_1
        assert abs(vals[mask].mean()) < 1e-12

    def test_piecewise_magnitudes(self):
        # (M^{1/p-1}/lambda)(M_{|a|+1} - M_{|a|}) inside, M_{|a|} scale outside
        m, p = TRIADIC, 2 / 3
        atom = counterexample_atom(m, m.base(2) + 1, p, 4).values.values.real
        scale = m.base(2) ** (1 / p - 1) / m.max_radix
        grid = np.arange(81)
        inner = grid % m.base(3) == 0
        ring = (grid % m.base(2) == 0) & ~inner
        assert np.abs(atom[inner] - scale * (m.base(3) - m.base(2))).max() < 1e-9
        assert np.abs(atom[ring] + scale * m.base(2)).max() < 1e-9

    def test_resolution_too_small(self):
        with pytest.raises(ValueError):
            counterexample_atom(WALSH, 2**5 + 1, 0.5, 5)

    @pytest.mark.parametrize("resolution", [0, 1])
    def test_default_alphas_need_two_digits(self, resolution):
        with pytest.raises(ValueError, match=rf"^the default alphas need N >= 2 .*, not N = {resolution}$"):
            default_alphas(WALSH, resolution)
        assert default_alphas(WALSH, 2) == [3]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBatchedRows:
    """A sequence of alphas or orders gives rows that are bitwise the lone calls."""

    GRIDS = [(WALSH, 9), (TRIADIC, 6), (GeneratorSequence.parse("4^"), 5), (ALTERNATING, 7),
             (GeneratorSequence.parse("2,3,4^"), 5)]

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=lambda v: getattr(v, "format", lambda: str(v))())
    def test_atoms_are_lone_atoms(self, m, resolution):
        alphas = [m.base(t) + d for t in range(1, resolution) for d in (0, 1) if m.base(t) + d < m.base(t + 1)]
        for items in (alphas, [decompose(a, m) for a in alphas], np.asarray(alphas)):
            atoms = counterexample_atom(m, items, 0.5, resolution)
            assert len(atoms) == len(alphas)
            for alpha, atom in zip(alphas, atoms):
                lone = counterexample_atom(m, alpha, 0.5, resolution)
                assert atom.support_rank == lone.support_rank
                assert np.array_equal(_bits(atom.values.values), _bits(lone.values.values)), alpha
        assert counterexample_atom(m, [], 0.5, resolution) == []

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=lambda v: getattr(v, "format", lambda: str(v))())
    def test_build_is_the_sum_of_lone_atoms(self, monkeypatch, m, resolution):
        # the kernel runs do not move a bit: realized is the lone atoms added in order
        import vilenkin.martingale as martingale

        monkeypatch.setattr(martingale, "_BATCH_POINTS", 4 * m.size(resolution))  # several runs
        alphas = [m.base(t) + 1 for t in range(1, resolution)]
        lambdas = [1.5**-k for k in range(len(alphas))]
        spec = build_counterexample(m, 2 / 3, alphas, rule="explicit", lambdas=lambdas, resolution=resolution)
        acc = np.zeros(m.size(resolution), np.complex128)
        for alpha, lam in zip(alphas, lambdas):
            acc = acc + lam * counterexample_atom(m, alpha, 2 / 3, resolution).values.values
        assert np.array_equal(_bits(spec.realized.values), _bits(acc))

    def test_one_kernel_call_per_run(self, monkeypatch):
        import vilenkin.martingale as martingale

        calls = []
        closed = martingale.dirichlet_closed
        monkeypatch.setattr(martingale, "dirichlet_closed", lambda m, n, N: calls.append(list(n)) or closed(m, n, N))
        build_counterexample(WALSH, 0.5, default_alphas(WALSH, 10), resolution=10)
        assert calls == [[2, 4, 8, 16, 32, 256, 512]]  # D_{M_t} for t in {1, 2, 3, 4, 5, 8, 9}
        calls.clear()
        # at 2^13 a run holds at most four kernel rows (2^15 points): the tops
        # 1..12 go three to a run, D_{M_4}, D_{M_7}, D_{M_10} in two runs each
        build_counterexample(WALSH, 0.5, [2**k + 1 for k in range(1, 13)], resolution=13)
        assert calls == [[2**t for t in range(lo, lo + 4)] for lo in (1, 4, 7, 10)]

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=lambda v: getattr(v, "format", lambda: str(v))())
    def test_closed_sums_are_lone_closed_sums(self, m, resolution):
        spec = build_counterexample(m, 0.5, default_alphas(m, resolution), resolution=resolution)
        size = spec.realized.size
        orders = sorted({0, 1, size, *spec.alphas, *(a - 1 for a in spec.alphas), *range(0, size, max(1, size // 40))})
        rows = closed_partial_sum(spec, orders).values
        assert rows.shape == (len(orders), size)
        for j, row in zip(orders, rows):
            assert np.array_equal(_bits(row), _bits(closed_partial_sum(spec, j).values)), j
            assert np.array_equal(_bits(row), _bits(_closed_partial_sum_masked(spec, j))), j
        assert closed_partial_sum(spec, []).values.shape == (0, size)


class TestBuildCounterexample:
    def test_coefficient_table_matches_transform(self):
        spec = build_counterexample(WALSH, 0.5, default_alphas(WALSH, 10), resolution=10)
        profile = spectral_profile(spec)
        fft = forward(spec.realized).coeffs
        assert np.abs(profile - fft).max() < 1e-9

    def test_block_levels(self):
        spec = build_counterexample(WALSH, 0.5, [3, 5], rule="explicit", lambdas=[1.0, 2.0], resolution=6)
        profile = spectral_profile(spec)
        # level on block k is lambda_k M_{|a_k|}^{1/p-1} / lambda
        assert np.allclose(profile[2:4], 1.0 * 2 / 2)
        assert np.allclose(profile[4:8], 2.0 * 4 / 2)
        assert np.abs(profile[[0, 1]]).max() == 0
        assert np.abs(profile[8:]).max() == 0

    def test_single_atom_spec(self):
        spec = build_counterexample(WALSH, 0.5, [3], rule="explicit", lambdas=[1.0], resolution=5)
        atom = counterexample_atom(WALSH, 3, 0.5, 5)
        assert np.abs(spec.realized.values - atom.values.values).max() < 1e-12
        assert np.isfinite(hardy_norm(spec.realized, 0.5))

    def test_gap_rule_budget_converges(self):
        spec = build_counterexample(WALSH, 0.5, default_alphas(WALSH, 12), rule="unit_kernel", resolution=12)
        terms = [abs(l) ** spec.p for l in spec.lambdas]
        assert all(b < a for a, b in zip(terms, terms[1:]))
        assert spec.coefficient_budget < 4.0

    def test_gap_filter_keeps_doubling_family(self):
        alphas = default_alphas(WALSH, 12)
        kept = select_gap_subsequence([decompose(a, WALSH) for a in alphas], 0.5)
        assert [idx.value for idx in kept] == alphas

    def test_gap_filter_rejects_flat_family(self):
        flat = [WALSH.base(k) + WALSH.base(k - 1) for k in range(2, 8)]
        with pytest.raises(ValueError):
            build_counterexample(WALSH, 0.5, flat, rule="unit_kernel", resolution=9)

    def test_tail_certificate_rejects_flat_terms(self):
        flat = [WALSH.base(k) + WALSH.base(k - 1) for k in range(2, 8)]
        terms = tail_certificate_terms([decompose(a, WALSH) for a in flat], 0.5, None)
        assert max(terms) / min(terms) == pytest.approx(1.0)
        with pytest.raises(ValueError) as err:
            build_counterexample(WALSH, 0.5, flat, rule="balanced", resolution=9)
        assert "certificate" in str(err.value)

    def test_explicit_needs_matching_lambdas(self):
        with pytest.raises(ValueError):
            build_counterexample(WALSH, 0.5, [3, 5], rule="explicit", lambdas=[1.0], resolution=6)
        with pytest.raises(ValueError, match="finite"):
            build_counterexample(WALSH, 0.5, [3, 5], rule="explicit", lambdas=[np.inf, 1.0], resolution=6)

    def test_non_increasing_alphas_rejected(self):
        with pytest.raises(ValueError):
            build_counterexample(WALSH, 0.5, [5, 3], resolution=6)
        with pytest.raises(ValueError):
            build_counterexample(WALSH, 0.5, [3, 4], resolution=6)  # same top block

    def test_atomic_budget_constant(self):
        # ||f||_{H_p}^p <= sum |lambda_k|^p (atom Hardy norms are <= 1)
        for rule in ("balanced", "unit_kernel"):
            spec = build_counterexample(WALSH, 0.5, default_alphas(WALSH, 10), rule=rule, resolution=10)
            assert hardy_norm(spec.realized, 0.5) ** 0.5 <= spec.coefficient_budget + 1e-9

    def test_json_round_trip(self):
        spec = build_counterexample(
            ALTERNATING, 2 / 3, default_alphas(ALTERNATING, 8), resolution=8
        )
        clone = MartingaleSpec.from_json(spec.to_json())
        assert clone.alphas == spec.alphas
        assert np.allclose(clone.lambdas, spec.lambdas)
        assert np.abs(clone.realized.values - spec.realized.values).max() < 1e-12


@st.composite
def _block_case(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 1
    while m.size(top + 1) <= 1024:
        top += 1
    resolution = draw(st.integers(1, top))
    tops = draw(st.lists(st.integers(0, resolution - 1), min_size=1, unique=True).map(sorted))
    alphas = [draw(st.integers(m.base(t), m.base(t + 1) - 1)) for t in tops]
    lambdas = draw(st.lists(st.floats(0.01, 10.0), min_size=len(alphas), max_size=len(alphas)))
    p = draw(st.sampled_from((0.5, 2.0 / 3.0, 0.9)))
    spec = build_counterexample(m, p, alphas, rule="explicit", lambdas=lambdas, resolution=resolution)
    return spec, draw(st.integers(0, m.size(resolution)))


def _closed_partial_sum_masked(spec, j):
    """``closed_partial_sum`` with each finished block added through two
    full-grid coset masks, as it did before it added on coset slices."""
    m, resolution = spec.generators, spec.truncation
    acc = np.zeros(m.size(resolution), dtype=np.complex128)
    for idx, lam_k in zip(spec.indices, spec.lambdas):
        level = _block_level(m, idx, spec.p, lam_k)
        m_top1 = m.base(idx.top + 1)
        if j >= m_top1:
            acc += level * (
                m_top1 * coset_mask(m, resolution, idx.top + 1)
                - idx.m_top * coset_mask(m, resolution, idx.top)
            )
        elif j > idx.m_top:
            twist = character_values(m, idx.m_top, resolution)
            acc += level * twist * dirichlet_closed(m, j - idx.m_top, resolution).values
            break
        else:
            break
    return acc


class TestClosedPartialSum:
    @pytest.mark.parametrize("m", [WALSH, ALTERNATING], ids=lambda m: m.format())
    def test_matches_spectral_truncation_everywhere(self, m):
        resolution = 8
        spec = build_counterexample(m, 0.5, default_alphas(m, resolution), resolution=resolution)
        bases = m.scaled_bases(resolution)
        tops = [decompose(a, m).top for a in spec.alphas]
        probe = {0, 1, spec.realized.size}
        for a, top in zip(spec.alphas, tops):
            probe.update({bases[top], bases[top] + 1, bases[top + 1], a})
        rng = np.random.default_rng(3)
        probe.update(int(j) for j in rng.integers(1, spec.realized.size, size=12))
        for j in sorted(probe):
            closed = closed_partial_sum(spec, j)
            spectral = partial_sum(spec.realized, j)
            assert np.abs(closed.values - spectral.values).max() < 1e-9, j

    @settings(max_examples=80, deadline=None)
    @given(case=_block_case())
    def test_bitwise_equal_to_masked_blocks(self, case):
        spec, j = case
        fast = closed_partial_sum(spec, j).values
        ref = _closed_partial_sum_masked(spec, j)
        assert np.array_equal(fast.view(np.uint64), ref.view(np.uint64))

    def test_two_term_decomposition_at_alpha(self):
        # S_{a_k} f = S_{M_{|a_k|}} f + lambda_k M^{1/p-1} psi_{M_{|a_k|}} D_{a_k - M} / lambda
        m, p, resolution = WALSH, 0.5, 9
        spec = build_counterexample(m, p, default_alphas(m, resolution), resolution=resolution)
        k = 2
        a = spec.alphas[k]
        top = decompose(a, m).top
        m_top = m.base(top)
        term1 = partial_sum(spec.realized, m_top).values
        scale = spec.lambdas[k] * m_top ** (1 / p - 1) / m.max_radix
        term2 = scale * character_values(m, m_top, resolution) * dirichlet_closed(
            m, a - m_top, resolution
        ).values
        assert np.abs(closed_partial_sum(spec, a).values - (term1 + term2)).max() < 1e-9

    def test_floor_ingredient_on_bottom_coset(self):
        # |D_{a_k - M_{|a_k|}}| >= M_<a_k> on I_<a_k> \ I_<a_k>+1
        for m in (WALSH, TRIADIC):
            spec = build_counterexample(m, 0.5, default_alphas(m, 8), resolution=8)
            grid = np.arange(m.size(8))
            for a in spec.alphas:
                idx = decompose(a, m)
                shifted = np.abs(dirichlet_closed(m, a - m.base(idx.top), 8).values)
                shell = ((grid % m.base(idx.bottom)) == 0) & ((grid % m.base(idx.bottom + 1)) != 0)
                assert shifted[shell].min() >= m.base(idx.bottom) - 1e-9


class TestModulusDecay:
    @pytest.mark.parametrize("rule", ["balanced", "unit_kernel"])
    def test_tail_bound_every_truncation(self, rule):
        # omega(1/M_n, f)^p <= sum_{|a_k| >= n} |lambda_k|^p, constant 1
        m, p, resolution = WALSH, 0.5, 10
        spec = build_counterexample(m, p, default_alphas(m, resolution), rule=rule, resolution=resolution)
        tops = [decompose(a, m).top for a in spec.alphas]
        for n in range(resolution + 1):
            tail = sum(abs(l) ** p for l, top in zip(spec.lambdas, tops) if top >= n)
            omega = modulus_hp(spec.realized, n, p)
            if tail == 0:
                assert omega < 1e-9
            else:
                assert omega**p <= tail + 1e-9


class TestPhi:
    def test_constant(self):
        assert phi_value(("constant", 2.5), decompose(7, WALSH)) == 2.5
        assert phi_value(None, decompose(7, WALSH)) == 1.0

    def test_log_and_power(self):
        n = decompose(WALSH.base(4) + 1, WALSH)
        assert phi_value(("log",), n) == pytest.approx(1 + np.log(16))
        assert phi_value(("power", 0.5), n) == pytest.approx(4.0)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            phi_value(("mystery",), decompose(3, WALSH))

    @pytest.mark.parametrize("phi", [("constant", -1.0), ("constant", np.inf), ("power", np.nan)])
    def test_value_must_be_positive_and_finite(self, phi):
        with pytest.raises(ValueError, match="positive and finite"):
            phi_value(phi, decompose(5, WALSH))
