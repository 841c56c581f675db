import io
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import GeneratorSequence, GroupPoint, WALSH, decompose, digit_table, digits_of
from vilenkin.norms import SUPPORT_THRESHOLD, lebesgue_table, modulus_hp
from vilenkin.martingale import build_counterexample, default_alphas
from vilenkin import transform
from vilenkin.transform import (
    _CSV_BLOCK,
    SIZE_CAP,
    _digit_passes,
    _live_columns,
    _prefix_stop,
    GridFunction,
    SpectralVector,
    character,
    character_block,
    character_values,
    dirichlet_average,
    dirichlet_closed,
    dirichlet_direct,
    dirichlet_kernel_blocks,
    dirichlet_shells,
    conditional_expectation,
    coarse_sums,
    cumulative_rows,
    forward,
    forward_naive,
    grid_function,
    inverse,
    inverse_naive,
    partial_sum,
    partial_sum_convolution,
    read_grid_binary,
    read_grid_csv,
    read_spectral_binary,
    read_spectral_csv,
    unit_roots,
    write_csv_rows,
    write_grid_binary,
    write_grid_csv,
    write_spectral_csv,
    zero,
)

TRIADIC = GeneratorSequence.parse("3^")
ALTERNATING = GeneratorSequence.parse("2,3^")
MIXED_CYCLE = GeneratorSequence.parse("2,3,4^")

SEQUENCES = [WALSH, TRIADIC, ALTERNATING, MIXED_CYCLE]


def random_grid(m, resolution, seed=0):
    rng = np.random.default_rng(seed)
    size = m.size(resolution)
    return grid_function(m, resolution, rng.standard_normal(size) + 1j * rng.standard_normal(size))


class TestCharacters:
    def test_triadic_psi1(self):
        x = GroupPoint((1, 0, 0), TRIADIC)
        assert abs(character(decompose(1, TRIADIC), x) - np.exp(2j * np.pi / 3)) < 1e-12

    def test_unimodular(self):
        for m in SEQUENCES:
            vals = character_values(m, 7, 4)
            assert np.abs(np.abs(vals) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("bad", [-1, -8, 8])
    def test_unresolvable_index_refused(self, bad):
        # digits are taken mod m_k, so -1 would silently give the row of 7
        with pytest.raises(ValueError, match=rf"character index {bad} is not an integer in 0\.\.7"):
            character_block(WALSH, 3, [0, bad])
        with pytest.raises(ValueError, match=rf"character index {bad} is not an integer in 0\.\.7"):
            character_values(WALSH, bad, 3)


@st.composite
def _fft_case(draw):
    radix = st.one_of(st.integers(2, 7), st.just(97))
    m = GeneratorSequence(tuple(draw(st.lists(radix, min_size=1, max_size=4))), cyclic=draw(st.booleans()))
    top = 0
    while top < 6 and m.size(top + 1) <= 1 << 14:
        top += 1
    resolution = draw(st.integers(0, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = m.size(resolution)
    return m, resolution, rng.standard_normal(size) + 1j * rng.standard_normal(size)


@st.composite
def _batch_case(draw):
    """1-6 random functions on one grid: radices 2-5, cyclic or repeat-last, N >= 0."""
    m = GeneratorSequence(tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))), draw(st.booleans()))
    top = 0
    while top < 6 and m.size(top + 1) <= 1 << 10:
        top += 1
    resolution = draw(st.integers(0, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), m.size(resolution))
    return m, resolution, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _fftn_reference(values, m, resolution, inverse=False):
    """The transform as numpy's n-D FFT over the C-order digit cube (m_{N-1}, ..., m_0)."""
    cube = values.reshape(tuple(reversed(m.radices(resolution))))
    if inverse:
        return np.fft.ifftn(cube).reshape(-1) * values.size
    return np.fft.fftn(cube).reshape(-1) / values.size


class TestTransform:
    @pytest.mark.parametrize("j", [0, 1, 5, 11])
    def test_character_gives_basis_vector(self, j):
        f = grid_function(ALTERNATING, 4, character_values(ALTERNATING, j, 4))
        coeffs = forward(f).coeffs
        expected = np.zeros(f.size)
        expected[j] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_fast_equals_naive_spec_example(self):
        # m = (2,3,2,3,2,3), N = 6
        f = random_grid(ALTERNATING, 6, seed=42)
        fast = forward(f).coeffs
        naive = forward_naive(f).coeffs
        scale = np.abs(naive).max()
        assert np.abs(fast - naive).max() <= 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("m", SEQUENCES, ids=lambda m: m.format())
    def test_fast_equals_naive_and_round_trip(self, m):
        resolution = 5 if m.max_radix > 2 else 7
        f = random_grid(m, resolution, seed=7)
        sv = forward(f)
        sv_naive = forward_naive(f)
        assert np.abs(sv.coeffs - sv_naive.coeffs).max() <= 1e-10 * max(np.abs(sv.coeffs).max(), 1.0)
        back = inverse(sv)
        assert np.abs(back.values - f.values).max() < 1e-10
        back_naive = inverse_naive(sv)
        assert np.abs(back_naive.values - f.values).max() < 1e-9

    @pytest.mark.parametrize("m", SEQUENCES, ids=lambda m: m.format())
    def test_plancherel(self, m):
        f = random_grid(m, 4, seed=3)
        lhs = np.mean(np.abs(f.values) ** 2)
        rhs = np.abs(forward(f).coeffs ** 2).sum()
        assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_size_cap(self):
        with pytest.raises(ValueError):
            zero(WALSH, 21)

    @pytest.mark.parametrize("cls", [GridFunction, SpectralVector])
    def test_size_cap_message_is_shared(self, cls):
        with pytest.raises(ValueError, match=r"^M_N = 2097152 exceeds the size cap 1048576$"):
            cls(WALSH, 21, np.zeros(1))

    @settings(max_examples=80, deadline=None)
    @given(case=_fft_case())
    def test_bitwise_equal_to_fftn(self, case):
        m, resolution, values = case
        kept = values.copy()
        fast = forward(GridFunction(m, resolution, values)).coeffs
        back = inverse(SpectralVector(m, resolution, values)).values
        assert np.array_equal(fast.view(np.uint64), _fftn_reference(kept, m, resolution).view(np.uint64))
        assert np.array_equal(back.view(np.uint64), _fftn_reference(kept, m, resolution, True).view(np.uint64))
        assert np.array_equal(values.view(np.uint64), kept.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(case=_batch_case())
    def test_batch_rows_are_lone_transforms(self, case):
        m, resolution, values = case
        fast = forward(GridFunction(m, resolution, values)).coeffs
        back = inverse(SpectralVector(m, resolution, values)).values
        for i, row in enumerate(values):
            lone_fast = forward(GridFunction(m, resolution, row)).coeffs
            lone_back = inverse(SpectralVector(m, resolution, row)).values
            assert np.array_equal(fast[i].view(np.uint64), lone_fast.view(np.uint64))
            assert np.array_equal(back[i].view(np.uint64), lone_back.view(np.uint64))


# Signed zeros, subnormals, sums that overflow to inf (and then inf - inf),
# and ordinary normals.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _radix2_case(draw):
    """Values on `2^` at N = 1..6, unbatched or with 1-3 batch rows."""
    resolution = draw(st.integers(1, 6))
    shape = (*draw(st.sampled_from([(), (1,), (2,), (3,)])), 1 << resolution)
    count = 2 * int(np.prod(shape))
    parts = np.array(draw(st.lists(_EDGE_FLOATS, min_size=count, max_size=count)))
    values = np.empty(shape, np.complex128)
    values.real, values.imag = parts[: count // 2].reshape(shape), parts[count // 2 :].reshape(shape)
    return resolution, values


def _pocketfft_radix2_passes(values, resolution, inverse):
    """The radix-2 digit passes as one np.fft call per digit on the (..., M/2, 2) fibers."""
    fft = np.fft.ifft if inverse else np.fft.fft
    *lead, size = values.shape
    x = values
    for _ in range(resolution):
        out = np.empty(values.shape, np.complex128)
        fft(x.reshape(*lead, size // 2, 2), out=out.reshape(*lead, 2, size // 2).swapaxes(-1, -2))
        x = out
    return x


def _edge_values(shape, seed):
    """Normals mixed with signed zeros, subnormals and values whose sums overflow."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, 1.7e308])
    parts = np.where(rng.random((2, *shape)) < 0.3, rng.choice(special, (2, *shape)), rng.standard_normal((2, *shape)))
    values = np.empty(shape, np.complex128)
    values.real, values.imag = parts
    return values


class TestRadix2Pass:
    @settings(max_examples=150, deadline=None)
    @given(case=_radix2_case(), inverse=st.booleans())
    @np.errstate(over="ignore", invalid="ignore")
    def test_bitwise_equal_to_pocketfft_length2(self, case, inverse):
        resolution, values = case
        fast = _digit_passes(values, WALSH, resolution, inverse)
        expected = _pocketfft_radix2_passes(values, resolution, inverse)
        assert np.array_equal(fast.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("m", [WALSH, TRIADIC, ALTERNATING], ids=lambda m: m.format())
    @np.errstate(over="ignore", invalid="ignore")
    def test_layout_does_not_change_the_bits(self, m):
        resolution = 7 if m.max_radix == 2 else 4
        size = m.size(resolution)
        batch = _edge_values((size, 3), seed=size).T  # F-ordered rows
        strided = np.empty(2 * size, np.complex128)[::2]
        strided[...] = _edge_values((size,), seed=size + 1)
        for values in (batch, strided):
            assert not values.flags.c_contiguous
            copy = np.ascontiguousarray(values)
            pairs = [
                (forward(GridFunction(m, resolution, values)).coeffs, forward(GridFunction(m, resolution, copy)).coeffs),
                (inverse(SpectralVector(m, resolution, values)).values, inverse(SpectralVector(m, resolution, copy)).values),
            ]
            for got, want in pairs:
                assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("m, calls", [(WALSH, 0), (ALTERNATING, 3)], ids=["2^", "2,3^"])
    def test_pocketfft_runs_only_the_other_radices(self, monkeypatch, m, calls):
        counts = {"fft": 0, "ifft": 0}
        for name in counts:
            def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                counts[_name] += 1
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        f = random_grid(m, 6)
        inverse(forward(f))
        assert counts == {"fft": calls, "ifft": calls}


def _truncated(m, resolution, rows, stop, seed):
    """Random spectra that are +0.0 from column ``stop`` on, with exact zeros
    of both signs inside the prefix."""
    rng = np.random.default_rng(seed)
    shape = (*rows, m.size(resolution))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[rng.random(shape) < 0.2] = 0.0
    coeffs[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    coeffs[..., stop:] = 0.0
    return coeffs


def _column_view(coeffs):
    """The same values as a view whose last axis has a stride of two entries."""
    wide = np.empty((*coeffs.shape, 2), np.complex128)
    wide[..., 1] = coeffs
    return wide[..., 1]


class TestPrefixSynthesis:
    # 89 is a Bluestein length of pocketfft: its zero fibers come out with
    # -0.0 entries, so that grid must take the full passes.
    GRIDS = [(WALSH, 12), (TRIADIC, 7), (ALTERNATING, 9), (MIXED_CYCLE, 8), (GeneratorSequence.parse("89,2"), 7)]

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=lambda v: getattr(v, "format", lambda: str(v))())
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["lone", "batch"])
    @pytest.mark.parametrize("view", [False, True], ids=["c-order", "column-view"])
    def test_truncated_spectrum_is_bitwise_fftn(self, monkeypatch, m, resolution, rows, view):
        # With no per-pass minimum the prefix passes run on these small grids too.
        monkeypatch.setattr(transform, "_PASS_VALUES", 1)
        size = m.size(resolution)
        stops = sorted({0, 1, size} | {b + d for b in m.scaled_bases(resolution)[1:-1] for d in (-1, 0, 1)})
        rng = np.random.default_rng(size)
        pruned = 0
        for stop in stops:
            coeffs = _truncated(m, resolution, rows, stop, seed=stop)
            cases = [coeffs]
            if stop < size:  # a -0.0 in the tail is a live column
                signed = coeffs.copy()
                signed.reshape(-1, size)[rng.integers(signed.size // size), rng.integers(stop, size)] = -0.0
                cases.append(signed)
            for values in cases:
                want = np.stack([_fftn_reference(row, m, resolution, True) for row in values.reshape(-1, size)])
                if view:
                    values = _column_view(values)
                got = inverse(SpectralVector(m, resolution, values)).values
                assert np.array_equal(got.reshape(-1, size).view(np.uint64), want.view(np.uint64)), stop
                pruned += _prefix_stop(values, m, resolution) < size
        assert (pruned > 0) == (89 not in m.pattern)

    @pytest.mark.parametrize("rows", [(), (3,)], ids=["lone", "batch"])
    def test_live_columns_is_one_past_the_last_nonzero_bit(self, rows):
        rng = np.random.default_rng(len(rows))
        last = [complex(1.5, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324]
        for stop in range(0, 301):
            values = np.zeros((*rows, 300), np.complex128)
            values[..., : max(0, stop - 1)] = rng.standard_normal((*rows, max(0, stop - 1)))
            if stop:
                values.reshape(-1, 300)[rng.integers(values.size // 300), stop - 1] = last[stop % len(last)]
            assert _live_columns(values) == stop
            assert _live_columns(_column_view(values)) == stop

    def test_zero_tail_is_not_transformed(self, monkeypatch):
        m, resolution, orders = TRIADIC, 8, [100, 50, 7, 1]
        size = m.size(resolution)
        spectrum = forward(random_grid(m, resolution))
        points = []

        def counted(a, *args, _ifft=np.fft.ifft, **kwargs):
            points.append(np.size(a))
            return _ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        sums = partial_sum(spectrum, orders).values
        # about N stop + 2 M_N values per row, where the full passes take N M_N
        assert sum(points) <= len(orders) * (resolution * max(orders) + 2 * size)
        for row, n in zip(sums, orders):
            truncated = spectrum.coeffs.copy()
            truncated[n:] = 0.0
            assert np.array_equal(row.view(np.uint64), _fftn_reference(truncated, m, resolution, True).view(np.uint64))


@st.composite
def _small_grid(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    resolution = draw(st.integers(1, 4))
    size = m.size(resolution)
    reals = draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False, width=32), min_size=2 * size, max_size=2 * size
        )
    )
    values = np.asarray(reals[:size]) + 1j * np.asarray(reals[size:])
    return grid_function(m, resolution, values)


class TestTransformProperties:
    @given(_small_grid())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_plancherel(self, f):
        sv = forward(f)
        back = inverse(sv)
        scale = max(np.abs(f.values).max(), 1.0)
        assert np.abs(back.values - f.values).max() <= 1e-10 * scale
        lhs = float(np.mean(np.abs(f.values) ** 2))
        rhs = float((np.abs(sv.coeffs) ** 2).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-30)

    @given(_small_grid(), st.integers(0, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_truncation_is_projection(self, f, raw_n):
        n = raw_n % (f.size + 1)
        once = partial_sum(f, n)
        twice = partial_sum(once, n)
        assert np.abs(twice.values - once.values).max() <= 1e-9 * max(np.abs(f.values).max(), 1.0)


def _literal_rows(m, resolution, limit, weights, block, rows_of=character_block):
    """The blocked loop over literal character rows that cumulative_rows replaces."""
    carry = np.zeros(m.size(resolution), dtype=np.complex128)
    for lo in range(0, limit, block):
        hi = min(lo + block, limit)
        rows = rows_of(m, resolution, np.arange(lo, hi))
        if weights is not None:
            rows = rows * weights[lo:hi, None]
        sums = carry + np.cumsum(rows, axis=0)
        carry = sums[-1].copy()
        yield lo, sums


def _assert_rows_bit_identical(m, resolution, limit, weights, block):
    with mock.patch.object(transform, "_ROW_BLOCK", block):
        fast = list(cumulative_rows(m, resolution, limit, weights))
    slow = list(_literal_rows(m, resolution, limit, weights, block))
    assert [lo for lo, _ in fast] == [lo for lo, _ in slow]
    for (lo, a), (_, b) in zip(fast, slow):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), lo


@st.composite
def _row_scan(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 0
    while m.size(top + 1) <= 512:
        top += 1
    resolution = draw(st.integers(0, top))
    size = m.size(resolution)
    limit = draw(st.integers(1, size))
    block = draw(st.integers(1, 300))
    weights = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 1 << 30)))
        weights = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return m, resolution, limit, weights, block


class TestCumulativeRows:
    @given(_row_scan())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_literal_rows(self, scan):
        _assert_rows_bit_identical(*scan)

    @pytest.mark.parametrize(
        "spec,resolution", [("2^", 10), ("3^", 7), ("4^", 5), ("2,3,4^", 7)], ids=str
    )
    @pytest.mark.parametrize("weighted", [False, True], ids=["kernels", "weighted"])
    def test_full_scan_bit_identical(self, spec, resolution, weighted):
        m = GeneratorSequence.parse(spec)
        size = m.size(resolution)
        assert size >= 1024
        rng = np.random.default_rng(resolution)
        weights = rng.standard_normal(size) + 1j * rng.standard_normal(size) if weighted else None
        _assert_rows_bit_identical(m, resolution, size, weights, 256)

    def test_weighted_rows_bit_identical_at_4096(self, monkeypatch):
        # 2^12 has 64 low-digit rows and six high digits, so most runs carry
        # several factors.  Blocks of 40 straddle the runs and keep the two
        # streams compared block by block under about 20 MB.
        monkeypatch.setattr(transform, "_ROW_BLOCK", 40)
        m = WALSH
        size = m.size(12)
        rng = np.random.default_rng(12)
        weights = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        fast = cumulative_rows(m, 12, 300, weights)
        slow = _literal_rows(m, 12, 300, weights, 40)
        count = 0
        for (lo, a), (lo_ref, b) in zip(fast, slow):
            assert lo == lo_ref
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), lo
            count += a.shape[0]
        assert count == 300

    @pytest.mark.parametrize("weighted", [False, True], ids=["kernels", "weighted"])
    def test_each_block_owns_its_memory(self, monkeypatch, weighted):
        monkeypatch.setattr(transform, "_ROW_BLOCK", 50)
        m = ALTERNATING
        size = m.size(6)
        weights = np.arange(size) + 1j if weighted else None
        blocks = [rows for _, rows in cumulative_rows(m, 6, size, weights)]
        assert len(blocks) == 5
        for i, a in enumerate(blocks):
            assert a.flags.owndata
            for b in blocks[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_bad_arguments_rejected(self):
        for limit in (0, 17):
            with pytest.raises(ValueError):
                next(cumulative_rows(WALSH, 4, limit))
        with pytest.raises(ValueError):
            next(cumulative_rows(WALSH, 4, 16, weights=np.ones(8)))


@st.composite
def _spectrum_case(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 0
    while m.size(top + 1) <= 256:
        top += 1
    resolution = draw(st.integers(0, top))
    return random_grid(m, resolution, seed=draw(st.integers(0, 1 << 30)))


def _int64_character_block(m, resolution, indices):
    """Character rows with each factor r_k^(n_k x_k) read as unit_roots(m_k)[(n_k * x_k) % m_k]
    from int64 digits, over every digit k that some row has nonzero, x_0 first."""
    grid = digits_of(np.arange(m.size(resolution)), m, resolution)
    ndig = digits_of(np.asarray(indices, dtype=np.int64), m, resolution)
    out = np.ones((ndig.shape[0], grid.shape[0]), dtype=np.complex128)
    for k in range(resolution):
        if ndig[:, k].any():
            mk = m.radix(k)
            out *= unit_roots(mk)[(ndig[:, k, None] * grid[None, :, k]) % mk]
    return out


@st.composite
def _wide_radix_case(draw):
    """Radices 2, 3, 4, 17 and 300, alone or mixed: n_k x_k reaches 16 * 16 = 256
    and 299 * 299, past uint8 and uint16, the digit table's dtypes."""
    pattern = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 17, 300]), min_size=1, max_size=3)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 0
    while m.size(top + 1) <= 1200:
        top += 1
    resolution = draw(st.integers(0, top))
    size = m.size(resolution)
    rng = np.random.default_rng(draw(st.integers(0, 1 << 30)))
    indices = rng.integers(0, size, draw(st.integers(1, 8)))
    weights = rng.standard_normal(size) + 1j * rng.standard_normal(size) if draw(st.booleans()) else None
    return m, resolution, indices, weights, draw(st.integers(1, size)), draw(st.integers(1, 300))


class TestRowsEqualInt64Digits:
    """Character rows, closed-form kernels and cumulative rows gather root powers
    by narrow digits; each must be bitwise the literal int64 product form (for
    the kernels, the masked product formula, whose psi_n is a row checked first)."""

    @given(_wide_radix_case())
    @settings(max_examples=60, deadline=None)
    def test_rows_bitwise_equal(self, case):
        m, resolution, indices, weights, limit, block = case
        fast = character_block(m, resolution, indices)
        assert np.array_equal(fast.view(np.uint64), _int64_character_block(m, resolution, indices).view(np.uint64))
        for n in (indices + 1).tolist():
            fast = dirichlet_closed(m, n, resolution).values
            assert np.array_equal(fast.view(np.uint64), _dirichlet_closed_masked(m, n, resolution).view(np.uint64)), n
        with mock.patch.object(transform, "_ROW_BLOCK", block):
            fast = cumulative_rows(m, resolution, limit, weights)
            slow = _literal_rows(m, resolution, limit, weights, block, rows_of=_int64_character_block)
            for (lo, a), (lo_ref, b) in zip(fast, slow, strict=True):
                assert lo == lo_ref
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), lo


class TestPartialSumOfSpectrum:
    @given(_spectrum_case())
    @settings(max_examples=40, deadline=None)
    def test_spectrum_input_bit_identical(self, f):
        sv = forward(f)
        for n in range(f.size + 1):
            a = partial_sum(sv, n).values
            b = partial_sum(f, n).values
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), n
        for n in (-1, f.size + 1):
            with pytest.raises(ValueError):
                partial_sum(sv, n)
            with pytest.raises(ValueError):
                partial_sum(f, n)

    def test_spectrum_is_not_modified(self):
        sv = forward(random_grid(TRIADIC, 3, seed=4))
        before = sv.coeffs.copy()
        partial_sum(sv, 5)
        partial_sum(sv, [0, 5, 27])
        assert np.array_equal(sv.coeffs, before)


def _assert_rows_are_lone_sums(f, orders):
    sv = forward(f)
    for source in (f, sv):
        rows = partial_sum(source, orders).values
        assert rows.shape == (len(orders), f.size)
        for row, n in zip(rows, orders):
            lone = partial_sum(source, n).values
            assert np.array_equal(row.view(np.uint64), lone.view(np.uint64)), n


class TestPartialSumOrders:
    """A sequence of orders gives one row per order, each bitwise the lone S_n f."""

    @given(_spectrum_case(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_lone_sums(self, f, data):
        orders = data.draw(st.lists(st.integers(0, f.size), min_size=1, max_size=8))
        _assert_rows_are_lone_sums(f, orders)

    @pytest.mark.parametrize("m", SEQUENCES, ids=lambda m: m.format())
    def test_every_order(self, m):
        f = random_grid(m, 4 if m.max_radix > 2 else 6, seed=21)
        _assert_rows_are_lone_sums(f, list(range(f.size + 1)))
        _assert_rows_are_lone_sums(f, np.arange(f.size, -1, -1))

    def test_zero_order_row_is_positive_zero(self):
        f = random_grid(TRIADIC, 3, seed=2)
        rows = partial_sum(f, [0, 4, 0]).values
        assert not np.signbit(rows[[0, 2]].view(np.float64)).any()
        assert not rows[[0, 2]].any()

    @pytest.mark.parametrize("bad", [-1, 33])
    def test_out_of_range_order_refused(self, bad):
        f = random_grid(WALSH, 5)
        for source in (f, forward(f)):
            with pytest.raises(ValueError, match=rf"partial sum order {bad} is not an integer in 0\.\.32"):
                partial_sum(source, [0, 3, bad])

    def test_nested_orders_refused(self):
        f = random_grid(WALSH, 3)
        with pytest.raises(ValueError, match="1-D sequence"):
            partial_sum(f, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("rows", [1, 2])
    def test_batch_of_functions_refused(self, rows):
        # a batch would be truncated along its batch axis, not its spectrum
        values = np.stack([random_grid(WALSH, 4, seed=s).values for s in range(rows)])
        f = GridFunction(WALSH, 4, values)
        for source in (f, forward(f)):
            with pytest.raises(ValueError, match="one function, not a batch"):
                partial_sum(source, 3)


@st.composite
def _kernel_orders_case(draw):
    """Radices 2, 3, 4, 17 and 300, alone or mixed, with orders that hold M_N,
    a repeat and no particular order, and an averaging rank."""
    pattern = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 17, 300]), min_size=1, max_size=3)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 0
    while m.size(top + 1) <= 1200:
        top += 1
    resolution = draw(st.integers(0, top))
    size = m.size(resolution)
    drawn = draw(st.lists(st.integers(1, size), min_size=1, max_size=6))
    orders = draw(st.permutations(drawn + [size, drawn[0]]))
    return m, resolution, orders, draw(st.integers(0, resolution))


class TestKernelOrders:
    """A sequence of orders gives one kernel row per order, each bitwise the lone call."""

    @given(_kernel_orders_case())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_lone_kernels(self, case):
        m, resolution, orders, rank = case
        closed = dirichlet_closed(m, orders, resolution).values
        average = dirichlet_average(m, orders, rank, resolution).values
        assert closed.shape == average.shape == (len(orders), m.size(resolution))
        for n, row, avg in zip(orders, closed, average):
            lone = dirichlet_closed(m, n, resolution).values
            assert np.array_equal(row.view(np.uint64), lone.view(np.uint64)), n
            lone = dirichlet_average(m, n, rank, resolution).values
            assert np.array_equal(avg.view(np.uint64), lone.view(np.uint64)), n

    def test_top_order_row_is_the_point_mass(self):
        # D_{M_N} is M_N at the origin and +0.0 on every other cell, in a batch as alone
        rows = dirichlet_closed(TRIADIC, [27, 5, 27], 3).values
        for row in rows[[0, 2]]:
            assert row[0] == 27
            assert not row[1:].any()
            assert not np.signbit(row.view(np.float64)).any()

    def test_nested_orders_refused(self):
        with pytest.raises(ValueError, match="1-D sequence"):
            dirichlet_closed(WALSH, [[1, 2], [3, 4]], 3)
        with pytest.raises(ValueError, match="1-D sequence"):
            dirichlet_average(WALSH, [[1, 2], [3, 4]], 1, 3)

    @pytest.mark.parametrize("bad", [-1, 0, 9])
    def test_out_of_range_order_refused(self, bad):
        message = rf"Dirichlet kernel order {bad} is not an integer in 1\.\.8"
        with pytest.raises(ValueError, match=message):
            dirichlet_closed(WALSH, [1, 8, bad], 3)
        with pytest.raises(ValueError, match=message):
            dirichlet_average(WALSH, [1, 8, bad], 1, 3)


class TestDirichlet:
    @pytest.mark.parametrize("m", SEQUENCES, ids=lambda m: m.format())
    def test_block_kernel_identity(self, m):
        resolution = 6 if m.max_radix > 2 else 10
        size = m.size(resolution)
        grid = np.arange(size)
        for k in range(resolution + 1):
            mk = m.base(k)
            kernel = dirichlet_closed(m, mk, resolution).values
            mask = (grid % mk) == 0
            assert np.abs(kernel[mask] - mk).max() <= 1e-9
            assert np.abs(kernel[~mask]).max(initial=0.0) <= 1e-9

    def test_walsh_n5_closed_vs_direct(self):
        a = dirichlet_direct(WALSH, 5, 4).values
        b = dirichlet_closed(WALSH, 5, 4).values
        assert np.abs(a - b).max() <= 1e-9

    @pytest.mark.parametrize("m", SEQUENCES, ids=lambda m: m.format())
    def test_closed_equals_direct_exhaustive(self, m):
        resolution = 4 if m.max_radix > 2 else 6
        size = m.size(resolution)
        for n in range(1, size + 1):
            a = dirichlet_direct(m, n, resolution).values
            b = dirichlet_closed(m, n, resolution).values
            assert np.abs(a - b).max() <= 1e-9, n

    def test_kernel_blocks_match_direct(self):
        collected = {}
        # 300 kernels: the prefix carries over from the first 256-row block
        for lo, kernels in dirichlet_kernel_blocks(ALTERNATING, 7, 300):
            for i in range(kernels.shape[0]):
                collected[lo + i + 1] = kernels[i]
        for n in (1, 2, 7, 19, 30, 256, 257, 300):
            assert np.abs(collected[n] - dirichlet_direct(ALTERNATING, n, 7).values).max() < 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_closed(WALSH, 17, 4)
        with pytest.raises(ValueError):
            dirichlet_direct(WALSH, 0, 4)

    def test_direct_row_block_is_bounded_by_grid_size(self):
        # M_N = 2^15 in three digits, n = 512: one 512-row block of character
        # rows and its temporaries peak near 640 MiB; 128-row blocks (2^22
        # entries, 64 MiB) stay near 225 MiB.
        m = GeneratorSequence.parse("32^")
        dirichlet_direct(m, 1, 3)  # module-level caches are not part of the footprint
        tracemalloc.start()
        try:
            dirichlet_direct(m, 512, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 64 * 2**20, peak


@st.composite
def _shell_case(draw):
    pattern = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    m = GeneratorSequence(pattern, cyclic=draw(st.booleans()))
    top = 0
    while m.size(top + 1) <= 1024:
        top += 1
    resolution = draw(st.integers(0, top))
    return m, resolution, draw(st.integers(1, m.size(resolution)))


def _dirichlet_closed_masked(m, n, resolution):
    """The product formula with each digit's block added through a full-grid
    coset mask, as ``dirichlet_closed`` did before it read coset slices."""
    size = m.size(resolution)
    if n == size:
        values = np.zeros(size, dtype=np.complex128)
        values[0] = size
        return values
    bases = m.scaled_bases(resolution)
    xdig = digit_table(m, resolution)
    grid = np.arange(size, dtype=np.int64)
    acc = np.zeros(size, dtype=np.complex128)
    for j, nj in enumerate(decompose(n, m).digits):
        if nj == 0:
            continue
        mj = m.radix(j)
        roots = unit_roots(mj)
        geo = np.zeros(size, dtype=np.complex128)
        for u in range(mj - nj, mj):
            geo += roots[(u * xdig[:, j].astype(np.int64)) % mj]
        mask = (grid % bases[j]) == 0
        acc[mask] += bases[j] * geo[mask]
    return character_values(m, n, resolution) * acc


class TestDirichletCosetSlices:
    @settings(max_examples=80, deadline=None)
    @given(case=_shell_case())
    def test_bitwise_equal_to_masked_loop(self, case):
        m, resolution, n = case
        fast = dirichlet_closed(m, n, resolution).values
        ref = _dirichlet_closed_masked(m, n, resolution)
        assert np.array_equal(fast.view(np.uint64), ref.view(np.uint64))


class TestShellTable:
    """The shell table against the kernel paths it replaces in the scans:
    ``dirichlet_kernel_blocks``, ``dirichlet_direct`` and ``lebesgue_table``."""

    @given(_shell_case())
    @settings(max_examples=60, deadline=None)
    def test_support_and_magnitudes_match_kernel_blocks(self, case):
        m, resolution, limit = case
        ns = np.arange(1, limit + 1)
        grid = dirichlet_shells(m, resolution, ns).expand()
        for lo, kernels in dirichlet_kernel_blocks(m, resolution, limit):
            rows = grid[lo : lo + kernels.shape[0]]
            mags = np.abs(kernels)
            assert np.array_equal(rows > SUPPORT_THRESHOLD, mags > SUPPORT_THRESHOLD), lo
            assert (np.abs(rows - mags).max(axis=1) <= 1e-12 * ns[lo : lo + kernels.shape[0]]).all()

    @given(_shell_case(), st.lists(st.integers(0, 1 << 30), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_direct_kernel(self, case, draws):
        m, resolution, _ = case
        ns = [1 + d % m.size(resolution) for d in draws]
        grid = dirichlet_shells(m, resolution, ns).expand()
        for n, row in zip(ns, grid):
            assert np.abs(row - np.abs(dirichlet_direct(m, n, resolution).values)).max() <= 1e-12 * n

    @given(_shell_case())
    @settings(max_examples=40, deadline=None)
    def test_weighted_mean_is_lebesgue_constant(self, case):
        m, resolution, limit = case
        size = m.size(resolution)
        if size < 2:
            return
        stop = min(limit, size - 1) + 1
        table = dirichlet_shells(m, resolution, np.arange(1, stop))
        shell_l = (table.values @ table.points + table.indices) / size
        exact = [r.value for r in lebesgue_table(m, resolution, stop)]
        assert np.allclose(shell_l, exact, rtol=1e-12, atol=0)

    def test_cells_tile_the_grid(self):
        table = dirichlet_shells(MIXED_CYCLE, 4, [5])
        assert table.shell.tolist() == [0, 1, 1, 2, 2, 2, 3]
        assert table.coord.tolist() == [1, 1, 2, 1, 2, 3, 1]
        assert int(table.points.sum()) + 1 == MIXED_CYCLE.size(4)
        assert table.per_shell(np.minimum).shape == (1, 4)

    def test_top_index_is_the_block_kernel(self):
        # D_{M_N} is M_N at the origin and 0 on every shell
        table = dirichlet_shells(TRIADIC, 3, [27])
        assert not table.values.any()
        assert table.expand()[0].tolist() == [27.0] + [0.0] * 26

    def test_out_of_range_rejected(self):
        for n in (0, 17):
            with pytest.raises(ValueError):
                dirichlet_shells(WALSH, 4, [1, n])

    @pytest.mark.parametrize("m,resolution", [(WALSH, 7), (TRIADIC, 5)], ids=["2^N7", "3^N5"])
    def test_shift_identity_on_bottom_shell(self, m, resolution):
        # |D_n| = |D_{n - M_|n|}| on I_<n> \ I_<n>+1, for every n with |n| != <n>
        grid = np.arange(m.size(resolution))
        for n in range(1, m.size(resolution)):
            idx = decompose(n, m)
            if idx.top == idx.bottom:
                continue
            shell = (grid % idx.m_bottom == 0) & (grid % m.base(idx.bottom + 1) != 0)
            a = np.abs(dirichlet_closed(m, n, resolution).values[shell])
            b = np.abs(dirichlet_closed(m, n - idx.m_top, resolution).values[shell])
            assert np.abs(a - b).max() <= 1e-9, n


class TestPartialSums:
    @pytest.mark.parametrize("m", SEQUENCES, ids=lambda m: m.format())
    def test_coarse_sum_is_coset_average(self, m):
        f = random_grid(m, 4, seed=9)
        for k in range(5):
            spectral = partial_sum(f, m.base(k)).values
            averaged = conditional_expectation(f, k).values
            assert np.abs(spectral - averaged).max() < 1e-10

    @pytest.mark.parametrize("m", [WALSH, ALTERNATING], ids=lambda m: m.format())
    def test_spectral_equals_convolution(self, m):
        f = random_grid(m, 5, seed=11)
        rng = np.random.default_rng(2)
        for n in rng.integers(1, f.size + 1, size=6):
            a = partial_sum(f, int(n)).values
            b = partial_sum_convolution(f, int(n)).values
            assert np.abs(a - b).max() < 1e-9

    def test_zero_order(self):
        f = random_grid(WALSH, 4)
        assert np.abs(partial_sum(f, 0).values).max() == 0.0

    def test_order_out_of_range(self):
        f = random_grid(WALSH, 4)
        with pytest.raises(ValueError):
            partial_sum(f, f.size + 1)

    def test_coarse_sums_stack(self):
        # level k holds the M_k coset means; tiled, it is S_{M_k} f on the grid
        f = random_grid(WALSH, 5, seed=13)
        levels = coarse_sums(f)
        assert [level.shape for level in levels] == [(1,), (2,), (4,), (8,), (16,), (32,)]
        assert np.abs(levels[5] - f.values).max() < 1e-12
        assert np.abs(levels[0] - f.values.mean()).max() < 1e-12
        for k, level in enumerate(levels):
            assert np.abs(np.tile(level, 32 >> k) - partial_sum(f, 2**k).values).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=_batch_case())
    def test_levels_tile_to_conditional_expectations(self, case):
        m, resolution, values = case
        batch = coarse_sums(GridFunction(m, resolution, values))
        assert [level.shape for level in batch] == [values.shape[:-1] + (m.base(k),) for k in range(resolution + 1)]
        for i, row in enumerate(values):
            f = GridFunction(m, resolution, row)
            for k, (level, lone) in enumerate(zip(batch, coarse_sums(f))):
                expected = conditional_expectation(f, k).values.view(np.uint64)
                assert np.array_equal(np.tile(lone, f.size // lone.size).view(np.uint64), expected)
                assert np.array_equal(level[i].view(np.uint64), lone.view(np.uint64))


def _coset_loop(values, m_k):
    """Level M_k of each row, literally: every lane summed over the cosets in
    a Python loop, from +0 with j ascending, then numpy's complex ``/ R``."""
    size = values.shape[-1]
    count = size // m_k
    levels = []
    for row in np.reshape(values, (-1, size)):
        acc = np.zeros(m_k, np.complex128)
        for j in range(count):
            acc = acc + row[j * m_k : (j + 1) * m_k]
        levels.append(acc / count)
    return np.reshape(levels, values.shape[:-1] + (m_k,))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestCosetMeans:
    GRIDS = [
        (WALSH, 9),
        (TRIADIC, 5),
        (GeneratorSequence.parse("4^"), 4),
        (MIXED_CYCLE, 5),
        (GeneratorSequence.parse("89,2"), 4),
    ]
    LAYOUTS = {
        "lone": ((), lambda v: v),
        "rows2": ((2,), lambda v: v),
        "rows2x3": ((2, 3), lambda v: v),
        "f-order": ((2, 3), np.asfortranarray),
        "rows-reversed": ((3,), lambda v: v[::-1]),
        "lanes-reversed": ((2,), lambda v: v[..., ::-1]),
    }
    DATA = ["random", "signed-zeros", "subnormals", "negative-zero-row", "martingale", "overflowing-row"]

    @staticmethod
    def _data(kind, m, resolution, lead):
        rng = np.random.default_rng(25)
        size = m.size(resolution)
        values = rng.standard_normal(lead + (size,)) + 1j * rng.standard_normal(lead + (size,))
        row = values.reshape(-1, size)  # a view: writing a row writes values
        if kind == "signed-zeros":
            parts = values.view(np.float64)
            zeros = rng.random(parts.shape) < 0.5
            parts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        elif kind == "subnormals":  # the scaled means underflow, some to -0.0
            values *= 2e-323
        elif kind == "negative-zero-row":
            row[-1] = complex(-0.0, -0.0)
        elif kind == "martingale":
            spec = build_counterexample(m, 0.5, default_alphas(m, resolution), resolution=resolution)
            row[...] = spec.realized.values * np.arange(1, len(row) + 1)[:, None]
        elif kind == "overflowing-row":  # finite values whose coset sums overflow
            row[0] *= 1e308 / np.abs(row[0].view(np.float64)).max()
        return values

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=lambda v: getattr(v, "format", lambda: str(v))())
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("kind", DATA)
    @pytest.mark.parametrize("lane_run", [0, transform._LANE_RUN, SIZE_CAP], ids=["rows", "default", "lanes"])
    def test_levels_are_the_coset_loop(self, monkeypatch, m, resolution, layout, kind, lane_run):
        # lane_run 0 adds whole coset rows on every level and SIZE_CAP runs
        # every lane down its cosets: both einsum orders meet every level.
        monkeypatch.setattr(transform, "_LANE_RUN", lane_run)
        lead, arrange = self.LAYOUTS[layout]
        values = arrange(self._data(kind, m, resolution, lead))
        f = GridFunction(m, resolution, values)
        with np.errstate(over="ignore", invalid="ignore"):
            levels = coarse_sums(f)
            finite = []
            for k, level in enumerate(levels):
                m_k = m.base(k)
                if k == 0:  # numpy's own reduce along the row, pairwise where the row is contiguous
                    want = np.add.reduce(values.reshape(lead + (f.size, 1)), axis=-2) / f.size
                else:
                    want = _coset_loop(values, m_k)
                assert level.shape == lead + (m_k,)
                assert np.array_equal(_bits(level), _bits(want)), (k, m_k)
                tiled = np.tile(want, (1,) * len(lead) + (f.size // m_k,))
                assert np.array_equal(_bits(conditional_expectation(f, k).values), _bits(tiled)), (k, m_k)
                finite.append(bool(np.isfinite(want).all()))
        # The 1e308 row overflows its coarse sums: those levels take the / R path.
        assert not all(finite) if kind == "overflowing-row" else all(finite)


@pytest.mark.parametrize("m", [WALSH, TRIADIC, ALTERNATING], ids=lambda m: m.format())
def test_coset_levels_act_row_by_row(m):
    resolution = 4
    rows = np.stack([random_grid(m, resolution, seed=s).values for s in (31, 32)])
    batch = GridFunction(m, resolution, rows)
    for rank in range(resolution + 1):
        both = conditional_expectation(batch, rank).values
        omegas = modulus_hp(batch, rank, 0.5)
        for i, row in enumerate(rows):
            lone = GridFunction(m, resolution, row)
            assert np.array_equal(both[i].view(np.uint64), conditional_expectation(lone, rank).values.view(np.uint64))
            assert np.float64(omegas[i]).view(np.uint64) == np.float64(modulus_hp(lone, rank, 0.5)).view(np.uint64)


class TestKernelAverage:
    def test_point_mass_average(self):
        # Averaging over I_N (a single grid cell) is |D_n| / M_N.
        avg = dirichlet_average(WALSH, 5, 4, 4).values.real
        ref = np.abs(dirichlet_closed(WALSH, 5, 4).values) / 16
        assert np.abs(avg - ref).max() < 1e-12

    def test_shell_bound_constant_is_modest(self):
        # int_{I_R}|D_n(x-t)|dmu <= c M_s/M_R on I_s \ I_{s+1}: c stays O(1).
        for m, resolution, rank in [(WALSH, 8, 4), (ALTERNATING, 6, 3)]:
            bases = m.scaled_bases(resolution)
            grid = np.arange(m.size(resolution))
            worst = 0.0
            for n in range(1, 3 * bases[rank] + 1):
                avg = dirichlet_average(m, n, rank, resolution).values.real
                for s in range(rank):
                    shell = ((grid % bases[s]) == 0) & ((grid % bases[s + 1]) != 0)
                    c = avg[shell].max() * bases[rank] / bases[s]
                    worst = max(worst, c)
            assert worst <= 2.0 + 1e-9


def _literal_csv(kind, m, resolution, data):
    """The per-row f-string form of a CSV function file: the writer's oracle."""
    lines = [f"# vilenkin {kind} v1", f"# m={m.format()}", f"# N={resolution}", "index,re,im"]
    lines.extend(f"{i},{z.real:.12g},{z.imag:.12g}" for i, z in enumerate(data))
    return "\n".join(lines) + "\n"


# Grids of 1, block - 1, block, block + 1 and 3 block + 5 rows (4096-row
# blocks) over radix 2, radix 3 and mixed radices, plus 3^8 = 6561 rows.
_WRITER_GRIDS = [
    (WALSH, 0), (TRIADIC, 0), (ALTERNATING, 0),
    (GeneratorSequence((3, 3, 5, 7, 13)), 5),
    (WALSH, 12),
    (GeneratorSequence((17, 241)), 2),
    (GeneratorSequence((19, 647)), 2),
    (TRIADIC, 8),
]
_SPECIAL_CELLS = [-0.0, 5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf]
# Where %g changes its exponent or its layout: ties and round-ups into the
# next decade, and 1 ulp either side of each decade bounding the
# fixed-point range.
_DECADE_EDGES = [
    9.999999999995e-5, 99999999999.95, 999999999999.5,
    9.9999999999997e-5, -99999999999.97, 999999999999.7,
] + [float(np.nextafter(edge, toward)) for edge in (1e-5, 1e-4, 1e11, 1e12) for toward in (0.0, np.inf)]
# Every power of ten the writer formats itself, and 1 ulp either side:
# floor(log10) misses the decade on about a third of them.
_POWERS = np.array([float(f"1e{k}") for k in range(-290, 309)])
_POWER_CELLS = np.concatenate([np.nextafter(_POWERS, 0.0), _POWERS, np.nextafter(_POWERS, np.inf)])


@st.composite
def _csv_cells(draw, size):
    """``size`` complex values with exponents over +-300, and about a fifth
    each of near ties of the 12th digit (13-digit decimals ending in 5),
    random 64-bit patterns and powers of ten, with every special cell and
    decade edge somewhere among their real and imaginary parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * size
    cells = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    kind = rng.integers(0, 5, n)
    ties = np.flatnonzero(kind == 2)
    digits, exps = rng.integers(10**11, 10**12, len(ties)), rng.integers(-300, 290, len(ties))
    cells[ties] = [float(f"{d}5e{x}") for d, x in zip(digits.tolist(), exps.tolist())]
    cells[ties] *= rng.choice([-1.0, 1.0], len(ties))
    bits = np.flatnonzero(kind == 3)
    cells[bits] = rng.integers(0, 2**64, len(bits), dtype=np.uint64).view(np.float64)
    powers = np.flatnonzero(kind == 4)
    cells[powers] = rng.choice(_POWER_CELLS, len(powers)) * rng.choice([-1.0, 1.0], len(powers))
    fixed = _SPECIAL_CELLS + _DECADE_EDGES
    spots = draw(st.lists(st.integers(0, n - 1), min_size=len(fixed), max_size=len(fixed)))
    cells[spots] = fixed
    return cells.view(np.complex128)


class TestSerialization:
    def test_writer_grids_straddle_the_row_block(self):
        sizes = {m.size(resolution) for m, resolution in _WRITER_GRIDS}
        assert {1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 5} <= sizes

    @pytest.mark.parametrize("kind", ["grid", "spectral"])
    @pytest.mark.parametrize("m, resolution", _WRITER_GRIDS, ids=[f"{m.format()}-N{n}" for m, n in _WRITER_GRIDS])
    @settings(max_examples=5, deadline=None)
    @given(st.data())
    def test_csv_writer_matches_per_row_format(self, m, resolution, kind, data):
        values = data.draw(_csv_cells(m.size(resolution)))
        buf = io.StringIO()
        if kind == "grid":
            write_grid_csv(buf, GridFunction(m, resolution, values))
        else:
            write_spectral_csv(buf, SpectralVector(m, resolution, values))
        assert buf.getvalue() == _literal_csv(kind, m, resolution, values)

    def test_grid_csv_round_trip(self):
        f = random_grid(ALTERNATING, 3, seed=21)
        buf = io.StringIO()
        write_grid_csv(buf, f)
        buf.seek(0)
        g = read_grid_csv(buf)
        assert g.generators.format() == "2,3^"
        assert np.abs(g.values - f.values).max() < 1e-11

    def test_spectral_csv_round_trip(self):
        sv = forward(random_grid(WALSH, 4, seed=22))
        buf = io.StringIO()
        write_spectral_csv(buf, sv)
        buf.seek(0)
        back = read_spectral_csv(buf)
        assert np.abs(back.coeffs - sv.coeffs).max() < 1e-11

    def test_binary_round_trip_is_exact(self):
        f = random_grid(MIXED_CYCLE, 3, seed=23)
        buf = io.BytesIO()
        write_grid_binary(buf, f)
        buf.seek(0)
        g = read_grid_binary(buf)
        assert np.array_equal(g.values, f.values)
        assert g.generators == f.generators

    def test_kind_mismatch_rejected(self):
        f = random_grid(WALSH, 3)
        buf = io.StringIO()
        write_grid_csv(buf, f)
        buf.seek(0)
        with pytest.raises(ValueError):
            read_spectral_csv(buf)

    @pytest.mark.parametrize("kind", ["grid", "spectral"])
    def test_header_past_the_cap_is_refused_before_rows(self, kind):
        header = f"# vilenkin {kind} v1\n# m=2^\n# N=21\nindex,re,im\n"
        reader = read_grid_csv if kind == "grid" else read_spectral_csv
        with pytest.raises(ValueError, match="exceeds the size cap"):
            reader(io.StringIO(header))
        mstr = WALSH.format().encode()
        blob = b"VGF1" + struct.pack("<BIH", kind == "spectral", 21, len(mstr)) + mstr
        reader = read_grid_binary if kind == "grid" else read_spectral_binary
        with pytest.raises(ValueError, match="exceeds the size cap"):
            reader(io.BytesIO(blob))

    @pytest.mark.parametrize(
        "entries, message",
        [(3, "binary payload has 48 bytes, the header needs 64"), (5, "binary payload has more than 64 bytes, the header needs 64")],
        ids=["short", "long"],
    )
    def test_binary_payload_length(self, entries, message):
        buf = io.BytesIO()
        write_grid_binary(buf, random_grid(WALSH, 2, seed=24))
        blob = buf.getvalue()
        blob = blob[: len(blob) - 16] if entries < 4 else blob + bytes(16)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_grid_binary(io.BytesIO(blob))

    def test_csv_writer_refuses_rows_past_the_cap(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="exceed the size cap"):
            write_csv_rows(buf, np.zeros(SIZE_CAP + 1, dtype=np.complex128))
        assert buf.getvalue() == ""

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            read_grid_csv(io.StringIO("not,a,file\n"))
        with pytest.raises(ValueError):
            read_grid_binary(io.BytesIO(b"XXXX"))


class TestGridFunctionAlgebra:
    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            random_grid(WALSH, 3) + random_grid(WALSH, 4)
        with pytest.raises(ValueError):
            random_grid(WALSH, 3) + random_grid(TRIADIC, 3)

    def test_integral_is_mean(self):
        f = grid_function(WALSH, 2, [1, 2, 3, 4])
        assert f.integral() == pytest.approx(2.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "imag-inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="value 2 is not finite"):
            grid_function(WALSH, 2, [1.0, 2.0, bad, 4.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(WALSH, 3, np.ones(7))
