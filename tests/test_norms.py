import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import GeneratorSequence, WALSH
from vilenkin.martingale import random_atom
from vilenkin.norms import (
    SUPPORT_THRESHOLD,
    WEAK_LEVEL_OFFSET,
    hardy_norm,
    lebesgue_constant,
    lebesgue_table,
    lp_norm,
    modulus_hp,
    restricted_maximal,
    select_variation_convention,
    weak_lp,
)
from vilenkin.transform import (
    GridFunction,
    constant,
    dirichlet_closed,
    dirichlet_direct,
    grid_function,
    partial_sum,
)

ALTERNATING = GeneratorSequence.parse("2,3^")


def random_grid(m, resolution, seed=0):
    rng = np.random.default_rng(seed)
    size = m.size(resolution)
    return grid_function(m, resolution, rng.standard_normal(size) + 1j * rng.standard_normal(size))


class TestLp:
    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(constant(WALSH, 2), 0.0)


def _weak_lp_literal(f, p):
    """weak_lp's formula with np.unique levels and searchsorted counts."""
    mags = np.abs(f.values)
    levels = np.unique(mags)
    levels = levels[levels > 0]
    if levels.size == 0:
        return 0.0
    count_ge = mags.size - np.searchsorted(np.sort(mags), levels, side="left")
    return float((levels * (1.0 - WEAK_LEVEL_OFFSET) * (count_ge / mags.size) ** (1.0 / p)).max())


@st.composite
def _tied_function(draw):
    """A function on radices 2, 3, 4 or mixed, with some cells set to zero and
    some to values of one magnitude at several phases (ties in |f|)."""
    m = GeneratorSequence.parse(draw(st.sampled_from(["2^", "3^", "4^", "2,3^", "2,3,4^", "4,3,2"])))
    resolution = draw(st.integers(0, 4))
    size = m.size(resolution)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** draw(st.integers(-6, 6))
    tied = rng.random(size) < draw(st.floats(0.0, 1.0))
    values[tied] = rng.choice(np.array([5.0, -5.0, 5j, 3 + 4j, -4 - 3j, 2.5, 2.5j]), size=int(tied.sum()))
    values[rng.random(size) < draw(st.floats(0.0, 1.0))] = 0.0
    return grid_function(m, resolution, values)


class TestWeakLp:
    @settings(max_examples=150, deadline=None)
    @given(f=_tied_function(), p=st.sampled_from([0.3, 0.5, 2 / 3, 1.0, 2.0]))
    def test_one_sort_equals_unique_and_searchsorted(self, f, p):
        assert weak_lp(f, p).hex() == _weak_lp_literal(f, p).hex()

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

    @pytest.mark.parametrize("rows", [1, 2])
    def test_batch_refused(self, rows):
        values = np.stack([random_grid(WALSH, 4, seed=s).values for s in range(rows)])
        with pytest.raises(ValueError, match="one function, not a batch"):
            weak_lp(GridFunction(WALSH, 4, values), 0.5)


class TestLebesgue:
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

    def test_convention_pick_sums_kernels_once(self, monkeypatch):
        import vilenkin.norms as norms

        passes = []
        blocks = norms.dirichlet_kernel_blocks
        monkeypatch.setattr(
            norms, "dirichlet_kernel_blocks", lambda *a: passes.append(a) or blocks(*a)
        )
        winner, violations = select_variation_convention(ALTERNATING, 5, 73)
        assert len(passes) == 1
        # the same picks as two full tables
        for convention in ("from1", "from0"):
            table = lebesgue_table(ALTERNATING, 5, 73, convention)
            assert violations[convention] == [r.n for r in table if not r.in_bracket]

    def test_table_default_covers_n_below_mn(self):
        table = lebesgue_table(WALSH, 5)
        assert [r.n for r in table] == list(range(1, 32))


@st.composite
def _batch(draw):
    """1-6 functions on one grid (radices 2-5, cyclic or repeat-last, N >= 0),
    each row at its own scale from 1e-8 to 1e8, and some rows 0."""
    m = GeneratorSequence(tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))), draw(st.booleans()))
    top = 0
    while top < 6 and m.size(top + 1) <= 1 << 10:
        top += 1
    resolution = draw(st.integers(0, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), m.size(resolution))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values *= 10.0 ** rng.integers(-8, 9, size=(shape[0], 1))
    values[rng.random(shape[0]) < 0.2] = 0.0
    return GridFunction(m, resolution, values)


class TestHardy:
    @settings(max_examples=80, deadline=None)
    @given(batch=_batch(), p=st.sampled_from([0.3, 0.5, 2 / 3, 1.0, 2.0]))
    def test_batch_gives_each_lone_norm_bitwise(self, batch, p):
        lone = [hardy_norm(GridFunction(batch.generators, batch.resolution, row), p) for row in batch.values]
        assert all(isinstance(value, float) for value in lone)
        norms = hardy_norm(batch, p)
        assert norms.shape == (batch.values.shape[0],)
        assert np.array_equal(norms.view(np.uint64), np.array(lone).view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(batch=_batch(), p=st.sampled_from([0.3, 0.5, 2 / 3, 1.0, 2.0]), real=st.booleans())
    def test_lp_norm_of_an_array_is_that_of_its_grid_function(self, batch, p, real):
        values = np.abs(batch.values) if real else batch.values
        m, resolution = batch.generators, batch.resolution
        norms = lp_norm(values, p)
        assert np.array_equal(norms.view(np.uint64), lp_norm(GridFunction(m, resolution, values), p).view(np.uint64))
        for row, norm in zip(values, norms):
            lone = lp_norm(row, p)
            assert isinstance(lone, float)
            assert np.float64(lone).view(np.uint64) == norm.view(np.uint64)
            assert lone == lp_norm(GridFunction(m, resolution, row), p)

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
            kernel = dirichlet_closed(m, n, resolution).values
            mu = np.count_nonzero(np.abs(kernel) > SUPPORT_THRESHOLD) / kernel.size
            assert 1.0 / (2 * m_bottom) - 1e-12 <= mu <= 1.0 / m_bottom + 1e-12


class TestNonFiniteRefused:
    """A nan used to drop out of weak_lp (0.999...) and turn hardy_norm into nan.

    grid_function refuses non-finite values, so the functions here are built
    with the GridFunction constructor, which the norms must still guard against."""

    @pytest.mark.filterwarnings("error")  # refused without a numpy RuntimeWarning first
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "imag-inf"])
    @pytest.mark.parametrize("norm", [weak_lp, hardy_norm], ids=lambda f: f.__name__)
    def test_refused(self, norm, bad):
        values = np.ones(8, dtype=np.complex128)
        values[5] = bad
        with pytest.raises(ValueError, match=rf"{norm.__name__}: .*finite"):
            norm(GridFunction(WALSH, 3, values), 0.5)
