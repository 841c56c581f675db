import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import ALTERNATING, TRIADIC, any_grid
from vilenkin.group import (
    BaseOverflowError,
    _digit_arrays,
    GeneratorSequence,
    GroupPoint,
    WALSH,
    coset_mask,
    decompose,
    digit_table,
    digits_of,
    group_add,
    group_sub,
    variation,
    variation_counts,
)

MIXED = GeneratorSequence.parse("2,3,4")


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

    @pytest.mark.parametrize("m", [WALSH, ALTERNATING, MIXED, TRIADIC], ids=lambda m: m.format())
    def test_spread_bracket(self, m):
        # 2^rho <= M_|n| / M_<n> <= lambda^rho
        for n in range(1, 1024):
            idx = decompose(n, m)
            bases = m.scaled_bases(idx.top + 1)
            spread = bases[idx.top] / bases[idx.bottom]
            assert 2**idx.rho <= spread <= m.max_radix**idx.rho


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

    def test_only_m_top_needs_64_bits(self):
        # |n| = 61: M_62 fits in int64, M_63 would not
        assert variation(decompose(2**61 + 5, WALSH), WALSH) == (5, 0)


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
    m, resolution = draw(any_grid(max_size=4096, min_resolution=1))
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


class TestTables:
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


class TestVIndexBases:
    def test_largest_index(self):
        idx = decompose(2**63 - 1, WALSH)
        assert (idx.top, idx.m_top, idx.m_bottom) == (62, 2**62, 1)


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
