import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import GeneratorSequence, GroupPoint, WALSH, decompose, digit_table
from vilenkin.norms import SUPPORT_THRESHOLD, lebesgue_table
from vilenkin.transform import (
    _CSV_BLOCK,
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
    read_spectral_csv,
    unit_roots,
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


def _literal_rows(m, resolution, limit, weights, block):
    """The blocked loop over literal character rows that cumulative_rows replaces."""
    carry = np.zeros(m.size(resolution), dtype=np.complex128)
    for lo in range(0, limit, block):
        hi = min(lo + block, limit)
        rows = character_block(m, resolution, np.arange(lo, hi))
        if weights is not None:
            rows = rows * weights[lo:hi, None]
        sums = carry + np.cumsum(rows, axis=0)
        carry = sums[-1].copy()
        yield lo, sums


def _assert_rows_bit_identical(m, resolution, limit, weights, block):
    fast = list(cumulative_rows(m, resolution, limit, weights, block))
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

    def test_bad_arguments_rejected(self):
        for limit in (0, 17):
            with pytest.raises(ValueError):
                next(cumulative_rows(WALSH, 4, limit))
        with pytest.raises(ValueError):
            next(cumulative_rows(WALSH, 4, 16, block=0))
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
        assert np.array_equal(sv.coeffs, before)


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
            geo += roots[(u * xdig[:, j]) % mj]
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
        f = random_grid(WALSH, 5, seed=13)
        stack = coarse_sums(f)
        assert stack.shape == (6, 32)
        assert np.abs(stack[5] - f.values).max() < 1e-12
        assert np.abs(stack[0] - f.values.mean()).max() < 1e-12


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


@st.composite
def _csv_cells(draw, size):
    """``size`` complex values with exponents over +-300 and every special
    cell somewhere among their real and imaginary parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.standard_normal(2 * size) * 10.0 ** rng.integers(-300, 300, 2 * size)
    spots = draw(st.lists(st.integers(0, 2 * size - 1), min_size=len(_SPECIAL_CELLS), max_size=len(_SPECIAL_CELLS)))
    cells[spots] = _SPECIAL_CELLS
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
