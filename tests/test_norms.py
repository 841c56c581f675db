import numpy as np
import pytest

from vilenkin.group import GeneratorSequence, WALSH
from vilenkin.martingale import random_atom
from vilenkin.norms import (
    NormReport,
    hardy_norm,
    lebesgue_constant,
    lebesgue_table,
    lp_norm,
    maximal_function,
    modulus_hp,
    restricted_maximal,
    select_variation_convention,
    support_measure,
    weak_lp,
)
from vilenkin.transform import (
    character_values,
    constant,
    dirichlet_closed,
    dirichlet_direct,
    grid_function,
    partial_sum,
)

TRIADIC = GeneratorSequence.parse("3^")
ALTERNATING = GeneratorSequence.parse("2,3^")


def random_grid(m, resolution, seed=0):
    rng = np.random.default_rng(seed)
    size = m.size(resolution)
    return grid_function(m, resolution, rng.standard_normal(size) + 1j * rng.standard_normal(size))


class TestLp:
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0])
    def test_constant(self, p):
        assert lp_norm(constant(WALSH, 4, -1.5), p) == pytest.approx(1.5)

    def test_block_kernel_l1_is_one(self):
        for k in range(5):
            assert lp_norm(dirichlet_closed(WALSH, 2**k, 5), 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_block_kernel_lp(self, p):
        # ||D_{M_k}||_p = M_k^(1 - 1/p)
        for k in range(4):
            kernel = dirichlet_closed(TRIADIC, 3**k, 4)
            assert lp_norm(kernel, p) == pytest.approx((3.0**k) ** (1 - 1 / p))

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(constant(WALSH, 2), 0.0)


class TestWeakLp:
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_indicator_of_i1(self, p):
        vals = np.zeros(8)
        vals[::2] = 1.0
        f = grid_function(WALSH, 3, vals)
        assert weak_lp(f, p) == pytest.approx(0.5 ** (1 / p), rel=1e-9)

    def test_constant(self):
        assert weak_lp(constant(WALSH, 3, 2.0), 0.5) == pytest.approx(2.0, rel=1e-9)

    def test_zero(self):
        vals = np.zeros(8)
        assert weak_lp(grid_function(WALSH, 3, vals), 0.5) == 0.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_chebyshev_dominated_by_lp(self, p):
        # lambda^p mu(|f|>lambda) <= integral |f|^p gives weak <= strong.
        for seed in range(10):
            f = random_grid(ALTERNATING, 4, seed=seed)
            assert weak_lp(f, p) <= lp_norm(f, p) + 1e-12

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            weak_lp(constant(WALSH, 2), -1.0)


class TestLebesgue:
    def test_l1_is_one(self):
        assert lebesgue_constant(WALSH, 1, 4).value == pytest.approx(1.0)

    def test_block_indices(self):
        for k in range(1, 5):
            assert lebesgue_constant(WALSH, 2**k, 5).value == pytest.approx(1.0)

    def test_walsh_l3(self):
        # D_3 takes values 3, 1, 1, -1 on the four rank-2 cosets.
        kernel = dirichlet_direct(WALSH, 3, 2).values
        assert sorted(np.round(kernel.real).astype(int)) == [-1, 1, 1, 3]
        assert lebesgue_constant(WALSH, 3, 4).value == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "mtext,resolution", [("2^", 10), ("2,3^", 8), ("3^", 7)]
    )
    def test_oracle_finds_clean_convention(self, mtext, resolution):
        m = GeneratorSequence.parse(mtext)
        winner, violations = select_variation_convention(m, resolution, 512)
        assert winner == "from0"
        assert violations["from0"] == []
        assert violations["from1"]  # the printed-form indexing fails at small n

    @pytest.mark.parametrize("mtext,resolution", [("2^", 10), ("2,3^", 8)])
    def test_bracket_exhaustive_under_winner(self, mtext, resolution):
        m = GeneratorSequence.parse(mtext)
        table = lebesgue_table(m, resolution, 512, convention="from0")
        assert len(table) == 511
        for report in table:
            assert report.in_bracket, (report.n, report.value, report.lower_bound, report.upper_bound)

    def test_table_default_covers_n_below_mn(self):
        table = lebesgue_table(WALSH, 5)
        assert [r.n for r in table] == list(range(1, 32))


class TestHardy:
    def test_psi0(self):
        assert hardy_norm(constant(WALSH, 4), 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_dominates_lp(self, p):
        for seed in range(5):
            f = random_grid(WALSH, 5, seed=seed)
            assert hardy_norm(f, p) >= lp_norm(f, p) - 1e-12

    def test_random_atoms_have_unit_budget(self):
        # ||a||_{H_p}^p <= 1 for every p-atom: the recorded constant.
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(50):
            p = float(rng.choice([0.5, 2 / 3, 1.0]))
            rank = int(rng.integers(1, 4))
            atom = random_atom(WALSH, p, rank, 6, rng)
            worst = max(worst, hardy_norm(atom.values, p) ** p)
        assert worst <= 1.0 + 1e-9

    def test_quasi_triangle(self):
        # ||f+g||_p^p <= ||f||_p^p + ||g||_p^p for p <= 1
        for seed in range(8):
            f = random_grid(ALTERNATING, 4, seed=seed)
            g = random_grid(ALTERNATING, 4, seed=seed + 100)
            for p in (0.4, 0.5, 1.0):
                assert lp_norm(f + g, p) ** p <= lp_norm(f, p) ** p + lp_norm(g, p) ** p + 1e-9


class TestRestrictedMaximal:
    def test_top_index_gives_abs(self):
        f = random_grid(WALSH, 4, seed=1)
        out = restricted_maximal(f, [16])
        assert np.abs(out.values.real - np.abs(f.values)).max() < 1e-10

    def test_unbounded_spread_indices_grow_on_martingale(self):
        # sup_k |S_{M_k+1} f| over the counterexample family: its p-quasi-norm
        # grows with the truncation, unlike the block-index maximal.
        from vilenkin.martingale import build_counterexample, default_alphas

        p = 0.5
        norms = []
        for resolution in (6, 9, 12):
            spec = build_counterexample(
                WALSH, p, default_alphas(WALSH, resolution), resolution=resolution
            )
            indices = [WALSH.base(k) + 1 for k in range(1, resolution)]
            norms.append(lp_norm(restricted_maximal(spec.realized, indices), p))
        assert norms[0] < norms[1] < norms[2]
        assert norms[2] > 2 * norms[0]

    def test_block_indices_give_maximal_function(self):
        f = random_grid(WALSH, 4, seed=2)
        out = restricted_maximal(f, [1, 2, 4, 8, 16])
        assert np.abs(out.values - maximal_function(f).values).max() < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            restricted_maximal(random_grid(WALSH, 3), [])


class TestSandwich:
    """The partial-sum Hardy norm sits between the plain norm and the
    restricted-maximal bound.  At p < 1 the quasi-norm only gives the
    p-th-power form of the upper half; the plain-sum reading fails on
    spiky functions, so the power form is what gets asserted."""

    @pytest.mark.parametrize("p", [0.5, 2 / 3, 1.0])
    def test_sandwich_power_form(self, p):
        m = WALSH
        bases = m.scaled_bases(5)
        rng = np.random.default_rng(6)
        for seed in range(6):
            f = random_grid(m, 5, seed=seed)
            for n in rng.integers(1, f.size + 1, size=5):
                n = int(n)
                k = max(l for l in range(6) if bases[l] <= n)
                snf = partial_sum(f, n)
                lower = lp_norm(snf, p)
                middle = hardy_norm(snf, p)
                restricted = lp_norm(restricted_maximal(f, [bases[l] for l in range(k + 1)]), p)
                assert lower <= middle + 1e-9
                assert middle**p <= restricted**p + lower**p + 1e-9


class TestModulus:
    def test_full_rank_vanishes(self):
        f = random_grid(WALSH, 5, seed=3)
        assert modulus_hp(f, 5, 0.5) < 1e-12

    def test_character_annihilation(self):
        # f = psi_{M_k}: S_{M_n} kills it for n <= k, so omega = ||f||_{H_p}.
        psi = grid_function(WALSH, 5, character_values(WALSH, 8, 5))
        for n in range(4):
            assert modulus_hp(psi, n, 0.5) == pytest.approx(hardy_norm(psi, 0.5))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            modulus_hp(random_grid(WALSH, 4), 5, 0.5)


class TestSupportMeasure:
    @pytest.mark.parametrize("m", [WALSH, ALTERNATING], ids=lambda m: m.format())
    def test_kernel_support_bracket(self, m):
        # 1/(2 M_<n>) <= mu(supp D_n) <= 1/M_<n>, exhaustively at small scale
        from vilenkin.group import decompose

        resolution = 6 if m is WALSH else 5
        for n in range(1, m.size(resolution)):
            idx = decompose(n, m)
            m_bottom = m.base(idx.bottom)
            mu = support_measure(dirichlet_closed(m, n, resolution))
            assert 1.0 / (2 * m_bottom) - 1e-12 <= mu <= 1.0 / m_bottom + 1e-12

    def test_report_row(self):
        report = NormReport(n=5, resolution=4, p=0.5, kind="Lp", value=1.25, lower_bound=1.0)
        assert report.csv_row() == "5,4,0.5,Lp,1.25,1,"


class TestNonFiniteRefused:
    """A nan used to drop out of weak_lp (0.999...) and turn hardy_norm into nan."""

    @pytest.mark.filterwarnings("error")  # refused without a numpy RuntimeWarning first
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "imag-inf"])
    @pytest.mark.parametrize("norm", [weak_lp, hardy_norm], ids=lambda f: f.__name__)
    def test_refused(self, norm, bad):
        values = np.ones(8, dtype=np.complex128)
        values[5] = bad
        with pytest.raises(ValueError, match=rf"{norm.__name__}: .*finite"):
            norm(grid_function(WALSH, 3, values), 0.5)
