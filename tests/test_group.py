import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import (
    BaseOverflowError,
    _digit_arrays,
    GeneratorSequence,
    GroupPoint,
    WALSH,
    compose,
    coset_mask,
    decompose,
    digit_table,
    digits_of,
    group_add,
    group_sub,
    index_add,
    index_stats,
    index_sub,
    index_to_point,
    point_to_index,
    variation,
    variation_counts,
)

TRIADIC = GeneratorSequence.parse("3^")
MIXED = GeneratorSequence.parse("2,3,4")
ALTERNATING = GeneratorSequence.parse("2,3^")


class TestGeneratorSequence:
    def test_parse_forms(self):
        assert GeneratorSequence.parse("2^").radices(4) == (2, 2, 2, 2)
        assert GeneratorSequence.parse("2,3,4").radices(6) == (2, 3, 4, 4, 4, 4)
        assert GeneratorSequence.parse("2,3^").radices(5) == (2, 3, 2, 3, 2)

    def test_parse_round_trip(self):
        for text in ("2^", "2,3,4", "2,3^", "5^"):
            assert GeneratorSequence.parse(text).format() == text

    @pytest.mark.parametrize("bad", ["", "^", "2,", "2,1", "1^", "abc"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            GeneratorSequence.parse(bad)

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_parse_any_text(self, text):
        try:
            m = GeneratorSequence.parse(text)
        except (ValueError, OverflowError):
            return
        assert GeneratorSequence.parse(m.format()) == m

    def test_max_radix(self):
        assert WALSH.max_radix == 2
        assert MIXED.max_radix == 4
        assert ALTERNATING.max_radix == 3

    def test_overflow_is_explicit(self):
        with pytest.raises(BaseOverflowError):
            GeneratorSequence.parse("2^").scaled_bases(64)


class TestDecompose:
    @pytest.mark.parametrize("m", [WALSH, TRIADIC, MIXED, ALTERNATING], ids=lambda m: m.format())
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_statistics_mk_plus_1(self, m, k):
        idx = decompose(m.base(k) + 1, m)
        assert (idx.top, idx.bottom, idx.rho) == (k, 0, k)

    @pytest.mark.parametrize("m", [WALSH, TRIADIC, MIXED], ids=lambda m: m.format())
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_statistics_mk_plus_mk_minus_1(self, m, k):
        idx = decompose(m.base(k) + m.base(k - 1), m)
        assert (idx.top, idx.bottom, idx.rho) == (k, k - 1, 1)

    @pytest.mark.parametrize("m", [WALSH, TRIADIC, MIXED], ids=lambda m: m.format())
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_statistics_mk(self, m, k):
        idx = decompose(m.base(k), m)
        assert (idx.top, idx.bottom, idx.rho) == (k, k, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose(0, WALSH)

    @pytest.mark.parametrize("m", [WALSH, ALTERNATING, MIXED], ids=lambda m: m.format())
    def test_round_trip_exhaustive(self, m):
        # every n below a resolution with M_N <= 4096
        resolution = 12 if m is WALSH else 8
        size = min(m.size(resolution), 4096)
        for n in range(1, size):
            idx = decompose(n, m)
            assert compose(idx.digits, m) == n
            assert idx.value == n
            assert idx.digits[idx.top] != 0
            assert all(d == 0 for d in idx.digits[: idx.bottom])

    @pytest.mark.parametrize("m", [WALSH, ALTERNATING, MIXED, TRIADIC], ids=lambda m: m.format())
    def test_spread_bracket(self, m):
        # 2^rho <= M_|n| / M_<n> <= lambda^rho
        for n in range(1, 1024):
            idx = decompose(n, m)
            bases = m.scaled_bases(idx.top + 1)
            spread = bases[idx.top] / bases[idx.bottom]
            assert 2**idx.rho <= spread <= m.max_radix**idx.rho


def _variation_literal(n: int, m: GeneratorSequence, convention: str) -> tuple[int, int]:
    """The variation counts as a scalar loop over the digits of one n."""
    idx = decompose(n, m)
    start = 0 if convention == "from0" else 1

    def digit(j: int) -> int:
        return idx.digits[j] if j <= idx.top else 0

    def delta(j: int) -> int:
        return 1 if digit(j) else 0

    v = delta(0)
    for j in range(start, idx.top + 1):
        v += abs(delta(j + 1) - delta(j))
    v_star = 0
    for j in range(start, idx.top + 1):
        if digit(j):
            v_star += m.radix(j) - digit(j) - 1
    return v, v_star


class TestVariation:
    def test_walsh_vstar_always_zero(self):
        for n in range(1, 256):
            for conv in ("from0", "from1"):
                assert variation(decompose(n, WALSH), WALSH, conv)[1] == 0

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            variation(decompose(1, WALSH), WALSH, "sideways")
        with pytest.raises(ValueError, match="unknown variation convention"):
            variation_counts(np.arange(1, 9), WALSH, 3, "sideways")

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.lists(st.integers(2, 6), min_size=1, max_size=4),
        cyclic=st.booleans(),
        resolution=st.integers(0, 4),
        convention=st.sampled_from(["from0", "from1"]),
    )
    def test_counts_match_digit_loop(self, pattern, cyclic, resolution, convention):
        # every n from 1 up to and including M_N, whose one digit sits at N
        m = GeneratorSequence(tuple(pattern), cyclic=cyclic)
        ns = list(range(1, m.size(resolution) + 1))
        v, v_star = variation_counts(np.array(ns), m, resolution, convention)
        literal = [_variation_literal(n, m, convention) for n in ns]
        assert list(zip(v.tolist(), v_star.tolist())) == literal
        assert variation(decompose(ns[-1], m), m, convention) == literal[-1]

    def test_only_m_top_needs_64_bits(self):
        # |n| = 61: M_62 fits in int64, M_63 would not
        assert variation(decompose(2**61 + 5, WALSH), WALSH) == (5, 0)

    @pytest.mark.parametrize("n", [0, 9])
    def test_counts_refuse_out_of_range(self, n):
        with pytest.raises(ValueError, match=f"index {n} is not an integer in 1..8"):
            variation_counts(np.array([1, n]), WALSH, 3)


class TestGroupLaw:
    @pytest.mark.parametrize("m", [WALSH, TRIADIC, MIXED], ids=lambda m: m.format())
    def test_sub_is_inverse(self, m):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coords = tuple(int(rng.integers(0, m.radix(k))) for k in range(5))
            x = GroupPoint(coords, m)
            assert group_sub(x, x).coords == (0,) * 5

    def test_mismatched_resolution_rejected(self):
        with pytest.raises(ValueError):
            group_add(GroupPoint((1,), WALSH), GroupPoint((1, 0), WALSH))

    def test_mismatched_radices_rejected(self):
        with pytest.raises(ValueError):
            group_add(GroupPoint((1, 1), WALSH), GroupPoint((1, 1), TRIADIC))

    def test_coordinate_range_checked(self):
        with pytest.raises(ValueError):
            GroupPoint((2, 0), WALSH)


@st.composite
def _points_triple(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    resolution = draw(st.integers(1, 6))
    coords = lambda: tuple(
        draw(st.integers(0, m.radix(k) - 1)) for k in range(resolution)
    )
    return m, GroupPoint(coords(), m), GroupPoint(coords(), m), GroupPoint(coords(), m)


class TestGroupProperties:
    @given(_points_triple())
    @settings(max_examples=100, deadline=None)
    def test_abelian_group(self, data):
        m, x, y, z = data
        zero_pt = GroupPoint((0,) * x.resolution, m)
        assert group_add(group_add(x, y), z) == group_add(x, group_add(y, z))
        assert group_add(x, y) == group_add(y, x)
        assert group_add(x, zero_pt) == x
        assert group_add(x, group_sub(zero_pt, x)) == zero_pt

    @given(_points_triple())
    @settings(max_examples=50, deadline=None)
    def test_index_bijection(self, data):
        m, x, _, _ = data
        i = point_to_index(x)
        assert index_to_point(i, m, x.resolution) == x

    @given(_points_triple())
    @settings(max_examples=50, deadline=None)
    def test_index_arithmetic_matches_points(self, data):
        m, x, y, _ = data
        i = index_add(point_to_index(x), point_to_index(y), m, x.resolution)
        assert int(i) == point_to_index(group_add(x, y))
        j = index_sub(point_to_index(x), point_to_index(y), m, x.resolution)
        assert int(j) == point_to_index(group_sub(x, y))


class TestScaledBasesCache:
    def test_mutating_the_result_does_not_leak(self):
        bases = MIXED.scaled_bases(3)
        bases[0] = 99
        bases.append(7)
        assert MIXED.scaled_bases(3) == [1, 2, 6, 24]

    def test_overflow_raised_on_every_call(self):
        m = GeneratorSequence.parse("3^")
        for _ in range(2):
            with pytest.raises(BaseOverflowError):
                m.scaled_bases(50)

    def test_cache_key_includes_cyclic(self):
        assert GeneratorSequence((2, 3), cyclic=True).scaled_bases(4) == [1, 2, 6, 12, 36]
        assert GeneratorSequence((2, 3)).scaled_bases(4) == [1, 2, 6, 18, 54]


def _literal_index_sub(i, j, m, resolution):
    radices = np.asarray(m.radices(resolution), dtype=np.int64)
    bases = np.asarray(m.scaled_bases(resolution), dtype=np.int64)
    return ((digits_of(i, m, resolution) - digits_of(j, m, resolution)) % radices) @ bases[:-1]


@st.composite
def _index_pair(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    resolution = draw(st.integers(0, 7))
    size = m.size(resolution)
    shapes = draw(st.sampled_from([
        ((), ()), ((), (5,)), ((5,), ()), ((1,), (5,)), ((5,), (5,)),
        ((4, 1), (1, 3)), ((4, 1), (3,)), ((1, 3), (4, 3)), ((2, 1, 3), (4, 1)),
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 30)))
    operands = []
    for shape in shapes:
        if shape == () and draw(st.booleans()):
            operands.append(int(rng.integers(0, size)))  # a plain Python int
        else:
            operands.append(rng.integers(0, size, size=shape))
    return m, resolution, operands[0], operands[1]


class TestIndexSubPerDigit:
    @given(_index_pair())
    @settings(max_examples=150, deadline=None)
    def test_equals_digit_tensor_form(self, case):
        m, resolution, i, j = case
        fast = index_sub(i, j, m, resolution)
        slow = _literal_index_sub(i, j, m, resolution)
        assert np.shape(fast) == np.shape(slow)
        assert np.asarray(fast).dtype == np.int64
        assert np.array_equal(fast, slow)

    def test_full_grid_table(self):
        grid = np.arange(MIXED.size(4))
        fast = index_sub(grid[:, None], grid[None, :], MIXED, 4)
        assert np.array_equal(fast, _literal_index_sub(grid[:, None], grid[None, :], MIXED, 4))


class TestTables:
    @pytest.mark.parametrize("m", [WALSH, ALTERNATING, MIXED], ids=lambda m: m.format())
    def test_digit_table_matches_decompose(self, m):
        table = digit_table(m, 5)
        for i in range(1, m.size(5)):
            idx = decompose(i, m)
            row = tuple(table[i][: idx.top + 1])
            assert row == idx.digits

    @pytest.mark.parametrize(
        "spec,resolution,dtype",
        [("2^", 9, np.uint8), ("3^", 6, np.uint8), ("2,3^", 7, np.uint8), ("2,3,4^", 5, np.uint8), ("2,300", 2, np.uint16)],
        ids=["2^", "3^", "2,3^", "2,3,4^", "2,300"],
    )
    def test_digit_table_is_narrow_digit_columns(self, spec, resolution, dtype):
        m = GeneratorSequence.parse(spec)
        table = digit_table(m, resolution)
        assert np.array_equal(table, digits_of(np.arange(m.size(resolution)), m, resolution))
        assert table.shape == (m.size(resolution), resolution)
        assert table.dtype == dtype
        assert not table.flags.writeable
        assert all(table[:, k].flags.c_contiguous for k in range(resolution))
        assert digit_table(m, resolution) is table

    def test_coset_mask(self):
        mask = coset_mask(WALSH, 4, 2)
        assert mask.sum() == 4  # M_4 / M_2 points in I_2
        assert mask[0] and mask[4] and not mask[1]
        shifted = coset_mask(WALSH, 4, 2, base_index=3)
        assert shifted[3] and not shifted[0]


def _literal_point_law(x, y, sign):
    m = x.generators
    coords = tuple((a + sign * b) % m.radix(k) for k, (a, b) in enumerate(zip(x.coords, y.coords)))
    return GroupPoint(coords, m)


def _literal_index_to_point(i, m, resolution):
    coords = []
    for k in range(resolution):
        coords.append(i % m.radix(k))
        i //= m.radix(k)
    return GroupPoint(tuple(coords), m)


class TestGroupLawIsIndexSub:
    """group_add, group_sub, index_add and index_to_point all go through
    index_sub or digits_of; these references are the literal forms."""

    @given(_points_triple())
    @settings(max_examples=150, deadline=None)
    def test_point_law_is_coordinatewise(self, data):
        _, x, y, _ = data
        assert group_add(x, y) == _literal_point_law(x, y, +1)
        assert group_sub(x, y) == _literal_point_law(x, y, -1)

    @given(_index_pair())
    @settings(max_examples=150, deadline=None)
    def test_index_add_equals_digit_tensor_form(self, case):
        m, resolution, i, j = case
        radices = np.asarray(m.radices(resolution), dtype=np.int64)
        bases = np.asarray(m.scaled_bases(resolution), dtype=np.int64)
        slow = ((digits_of(i, m, resolution) + digits_of(j, m, resolution)) % radices) @ bases[:-1]
        fast = index_add(i, j, m, resolution)
        assert np.shape(fast) == np.shape(slow)
        assert np.asarray(fast).dtype == np.int64
        assert np.array_equal(fast, slow)

    @given(_points_triple())
    @settings(max_examples=100, deadline=None)
    def test_index_to_point_equals_digit_loop(self, data):
        m, x, _, _ = data
        for i in range(min(m.size(x.resolution), 64)):
            assert index_to_point(i, m, x.resolution) == _literal_index_to_point(i, m, x.resolution)

    def test_index_to_point_range_checked(self):
        with pytest.raises(ValueError):
            index_to_point(8, WALSH, 3)


class TestVIndexBases:
    @given(
        st.lists(st.integers(2, 6), min_size=1, max_size=4),
        st.booleans(),
        st.integers(1, 2**40),
    )
    @settings(max_examples=300, deadline=None)
    def test_m_top_and_m_bottom(self, pattern, cyclic, n):
        m = GeneratorSequence(tuple(pattern), cyclic=cyclic)
        idx = decompose(n, m)
        assert idx.m_top == m.base(idx.top)
        assert idx.m_bottom == m.base(idx.bottom)
        assert idx.m_bottom <= n < m.base(idx.top + 1)

    def test_largest_index(self):
        idx = decompose(2**63 - 1, WALSH)
        assert (idx.top, idx.m_top, idx.m_bottom) == (62, 2**62, 1)


class TestIndexStats:
    @given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_decompose(self, pattern, cyclic, data):
        m = GeneratorSequence(tuple(pattern), cyclic=cyclic)
        resolution = data.draw(st.integers(0, 6))
        while m.size(resolution) > 1024:
            resolution -= 1
        ns = np.arange(1, m.size(resolution) + 1)
        stats = index_stats(ns, m, resolution)
        expected = [decompose(int(n), m) for n in ns]
        for field in ("top", "bottom", "m_top", "m_bottom"):
            column = getattr(stats, field)
            assert column.dtype == np.int64
            assert column.tolist() == [getattr(idx, field) for idx in expected], field

    def test_out_of_range_rejected(self):
        for n in (0, 17):
            with pytest.raises(ValueError):
                index_stats([1, n], WALSH, 4)


class TestDigitArraysCache:
    def test_one_read_only_pair_per_grid(self):
        bases, radices = _digit_arrays(MIXED.pattern, MIXED.cyclic, 3)
        assert (bases.tolist(), radices.tolist()) == ([1, 2, 6, 24], [2, 3, 4])
        assert not bases.flags.writeable and not radices.flags.writeable
        assert _digit_arrays(MIXED.pattern, MIXED.cyclic, 3)[0] is bases
        digits = digits_of(np.arange(24), MIXED, 3)
        digits[0, 0] = 7  # a fresh result array: the shared pair is untouched
        assert digits_of(0, MIXED, 3).tolist() == [0, 0, 0]

    def test_cache_key_includes_cyclic(self):
        n = np.int64(23)
        assert digits_of(n, GeneratorSequence((2, 3), cyclic=True), 3).tolist() == [1, 2, 1]
        assert digits_of(n, GeneratorSequence((2, 3)), 3).tolist() == [1, 2, 0]
        assert digits_of(n, GeneratorSequence((2, 3), cyclic=True), 4).tolist() == [1, 2, 1, 1]
        assert digits_of(n, GeneratorSequence((2, 3)), 4).tolist() == [1, 2, 0, 1]
