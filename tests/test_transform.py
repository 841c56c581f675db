import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import ALTERNATING, MIXED_CYCLE, TRIADIC, any_grid, random_grid
from vilenkin import transform
from vilenkin.group import WALSH, GeneratorSequence, GroupPoint, decompose
from vilenkin.transform import (
    SIZE_CAP,
    GridFunction,
    SpectralVector,
    character,
    character_values,
    cumulative_rows,
    dirichlet_average,
    dirichlet_closed,
    dirichlet_direct,
    dirichlet_shells,
    forward,
    grid_function,
    inverse,
    partial_sum,
    read_grid_binary,
    read_grid_csv,
    read_spectral_binary,
    read_spectral_csv,
    write_csv_rows,
    write_grid_binary,
    write_grid_csv,
    write_spectral_csv,
    zero,
)

SEQUENCES = [WALSH, TRIADIC, ALTERNATING, MIXED_CYCLE]


class TestCharacters:
    def test_triadic_psi1(self):
        x = GroupPoint((1, 0, 0), TRIADIC)
        assert abs(character(decompose(1, TRIADIC), x) - np.exp(2j * np.pi / 3)) < 1e-12


class TestTransform:
    @pytest.mark.parametrize("j", [0, 1, 5, 11])
    def test_character_gives_basis_vector(self, j):
        f = grid_function(ALTERNATING, 4, character_values(ALTERNATING, j, 4))
        coeffs = forward(f).coeffs
        expected = np.zeros(f.size)
        expected[j] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            zero(WALSH, 21)

    @pytest.mark.parametrize("cls", [GridFunction, SpectralVector])
    def test_size_cap_message_is_shared(self, cls):
        with pytest.raises(ValueError, match=r"^M_N = 2097152 exceeds the size cap 1048576$"):
            cls(WALSH, 21, np.zeros(1))


@st.composite
def _small_grid(draw):
    m, resolution = draw(any_grid(max_size=256, min_resolution=1))
    size = m.size(resolution)
    reals = draw(st.lists(st.floats(-8, 8, allow_nan=False, width=32), min_size=2 * size, max_size=2 * size))
    values = np.asarray(reals[:size]) + 1j * np.asarray(reals[size:])
    return grid_function(m, resolution, values)


class TestTransformProperties:
    @given(_small_grid())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_plancherel(self, f):
        sv = forward(f)
        back = inverse(sv)
        assert np.abs(back.values - f.values).max() <= 1e-10
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


class TestCumulativeRows:
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

    def test_weights_of_the_wrong_length_refused(self):
        with pytest.raises(ValueError, match=r"weight vector has length \(8,\), expected M_N = 16"):
            next(cumulative_rows(WALSH, 4, 16, weights=np.ones(8)))


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
    """Grids of any family, with radices 17 and 300 in the mixed patterns,
    orders that hold M_N, a repeat and no particular order, and an averaging rank."""
    m, resolution = draw(any_grid(max_size=1200, extra=(17, 300)))
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


class TestShellTable:
    """The layout of the shell table; its values against ``dirichlet_direct``
    are a row of ``tests/test_oracles.py``."""

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


class TestKernelAverage:
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


class TestSerialization:
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
