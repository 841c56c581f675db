"""The argument contract of the library, as two tables.

``INTEGERS`` has one row per integer argument (an index n, an order, a
rank, a limit, a digit) of a public function of ``group``, ``transform``,
``norms`` and ``martingale``, and of the scans that take one: the function,
the parameter, a call that puts a value in its place, the valid range
``low``..``high`` (None: unbounded) and the shape rule, ``ONE`` (one integer),
``SEQ`` (one integer or a 1-D sequence) or ``ANY`` (an array of any shape).
Every row refuses low - 1, high + 1, a fraction, a float and a bool, and a
shape it does not take, with one ``ValueError`` in the shared wording of
``group._integers``.

``GRID_OPS`` has one row per operation on a ``GridFunction`` or
``SpectralVector``: ``PER_ROW`` (each row of a batch is bitwise the lone
row) or ``LONE_ONLY`` (a batch is refused with one ``ValueError``).  The
completeness tests fail on any public parameter that neither table lists.

``OVERSIZE`` has one row per call that must refuse a grid past its size cap,
in the one wording of ``group._checked_size``, before any array of the grid
exists.
"""

import inspect
import io
import json
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import FAMILIES, TRIADIC, batches, bits, public_functions
from vilenkin import experiments, group, martingale, norms, transform
from vilenkin.group import QUADRATIC_SIZE_CAP, SCAN_SIZE_CAP, SIZE_CAP, WALSH, GroupPoint
from vilenkin.transform import GridFunction, SpectralVector

ONE, SEQ, ANY = "one", "seq", "any"
PER_ROW, LONE_ONLY = "per_row", "lone_only"

# Fixtures of the valid calls: a function on the Walsh grid N = 3 (M_N = 8),
# the zero atom (valid on every coset) and a two-atom martingale at N = 4.
F = transform.grid_function(WALSH, 3, np.arange(8) + 1j)
ZERO = transform.zero(WALSH, 3)
SPEC = martingale.build_counterexample(WALSH, 0.5, [3, 5], rule="explicit", lambdas=[1.0, 1.0], resolution=4)


def _rng():
    return np.random.default_rng(0)


class Int(NamedTuple):
    func: Callable
    param: str
    call: Callable
    low: int | None
    high: int | None
    shape: str


INTEGERS = [
    # group
    Int(group.decompose, "n", lambda v: group.decompose(v, WALSH), 1, None, ONE),
    Int(group.index_stats, "indices", lambda v: group.index_stats(v, WALSH, 3), 1, 8, SEQ),
    Int(group.variation_counts, "indices", lambda v: group.variation_counts(v, WALSH, 3), 1, 8, SEQ),
    Int(group.compose, "digits", lambda v: group.compose((1, v), TRIADIC), 0, 2, ONE),
    Int(GroupPoint, "coords", lambda v: GroupPoint((0, v), TRIADIC), 0, 2, ONE),
    Int(group.index_to_point, "i", lambda v: group.index_to_point(v, WALSH, 3), 0, 7, ONE),
    Int(group.digits_of, "indices", lambda v: group.digits_of(v, WALSH, 3), None, None, ANY),
    Int(group.index_sub, "i", lambda v: group.index_sub(v, 1, WALSH, 3), None, None, ANY),
    Int(group.index_sub, "j", lambda v: group.index_sub(1, v, WALSH, 3), None, None, ANY),
    Int(group.index_add, "i", lambda v: group.index_add(v, 1, WALSH, 3), None, None, ANY),
    Int(group.index_add, "j", lambda v: group.index_add(1, v, WALSH, 3), None, None, ANY),
    Int(group.coset_mask, "rank", lambda v: group.coset_mask(WALSH, 3, v), 0, 3, ONE),
    Int(group.coset_mask, "base_index", lambda v: group.coset_mask(WALSH, 3, 2, v), 0, 3, ONE),
    # transform
    Int(transform.character_block, "indices", lambda v: transform.character_block(WALSH, 3, v), 0, 7, SEQ),
    Int(transform.character_values, "n", lambda v: transform.character_values(WALSH, v, 3), 0, 7, ONE),
    Int(transform.forward_naive, "block", lambda v: transform.forward_naive(F, v), 1, None, ONE),
    Int(transform.dirichlet_direct, "n", lambda v: transform.dirichlet_direct(WALSH, v, 3), 1, 8, ONE),
    Int(transform.dirichlet_closed, "n", lambda v: transform.dirichlet_closed(WALSH, v, 3), 1, 8, SEQ),
    Int(transform.dirichlet_shells, "indices", lambda v: transform.dirichlet_shells(WALSH, 3, v), 1, 8, SEQ),
    Int(transform.cumulative_rows, "limit", lambda v: next(transform.cumulative_rows(WALSH, 3, v)), 1, 8, ONE),
    Int(transform.dirichlet_kernel_blocks, "limit", lambda v: next(transform.dirichlet_kernel_blocks(WALSH, 3, v)),
        1, 8, ONE),
    Int(transform.partial_sum, "n", lambda v: transform.partial_sum(F, v), 0, 8, SEQ),
    Int(transform.partial_sum_convolution, "n", lambda v: transform.partial_sum_convolution(F, v), 0, 8, ONE),
    Int(transform.conditional_expectation, "rank", lambda v: transform.conditional_expectation(F, v), 0, 3, ONE),
    Int(transform.dirichlet_average, "n", lambda v: transform.dirichlet_average(WALSH, v, 1, 3), 1, 8, SEQ),
    Int(transform.dirichlet_average, "rank", lambda v: transform.dirichlet_average(WALSH, 3, v, 3), 0, 3, ONE),
    # norms
    Int(norms.lebesgue_constant, "n", lambda v: norms.lebesgue_constant(WALSH, v, 3), 1, 8, ONE),
    Int(norms.lebesgue_table, "limit", lambda v: norms.lebesgue_table(WALSH, 3, v), 2, 9, ONE),
    Int(norms.select_variation_convention, "limit", lambda v: norms.select_variation_convention(WALSH, 3, v),
        2, 9, ONE),
    Int(norms.restricted_maximal, "indices", lambda v: norms.restricted_maximal(F, v), 0, 8, SEQ),
    Int(norms.modulus_hp, "n", lambda v: norms.modulus_hp(F, v, 0.5), 0, 3, ONE),
    # martingale
    Int(martingale.validate_atom, "support_rank", lambda v: martingale.validate_atom(ZERO, 0.5, v), 0, 3, ONE),
    Int(martingale.validate_atom, "base_index", lambda v: martingale.validate_atom(ZERO, 0.5, 2, v), 0, 3, ONE),
    Int(martingale.random_atom, "support_rank", lambda v: martingale.random_atom(WALSH, 0.5, v, 3, _rng()),
        0, 2, ONE),
    Int(martingale.random_atom, "base_index", lambda v: martingale.random_atom(WALSH, 0.5, 2, 3, _rng(), v),
        0, 3, ONE),
    Int(martingale.counterexample_atom, "alpha", lambda v: martingale.counterexample_atom(WALSH, v, 0.5, 3),
        1, 7, SEQ),
    Int(martingale.build_counterexample, "alphas", lambda v: martingale.build_counterexample(
        WALSH, 0.5, [v], rule="explicit", lambdas=[1.0], resolution=3), 1, None, ONE),
    Int(martingale.closed_partial_sum, "j", lambda v: martingale.closed_partial_sum(SPEC, v), 0, 16, SEQ),
    # scans
    Int(experiments.supp_measure_scan, "n_limit", lambda v: experiments.supp_measure_scan(WALSH, 3, v), 1, 8, ONE),
    Int(experiments.dirichlet_floor_scan, "n_limit", lambda v: experiments.dirichlet_floor_scan(WALSH, 3, v),
        3, 8, ONE),
    Int(experiments.kernel_average_scan, "support_rank", lambda v: experiments.kernel_average_scan(WALSH, 3, v),
        0, 3, ONE),
    Int(experiments.kernel_average_scan, "n_limit", lambda v: experiments.kernel_average_scan(WALSH, 3, 1, v),
        1, 8, ONE),
]


def _int_id(row: Int) -> str:
    return f"{row.func.__name__}-{row.param}"


def _refusal(row: Int, value) -> str:
    with pytest.raises(ValueError) as err:
        row.call(value)
    assert type(err.value) is ValueError
    message = str(err.value)
    assert " is not an integer" in message, message
    return message


@pytest.mark.parametrize("row", INTEGERS, ids=_int_id)
def test_integer_bounds_are_accepted(row):
    for value in (row.low, row.high):
        if value is not None:
            row.call(value)


@pytest.mark.parametrize("row", INTEGERS, ids=_int_id)
def test_integer_out_of_range_refused(row):
    bad = [None if row.low is None else row.low - 1, None if row.high is None else row.high + 1]
    for value in (v for v in bad if v is not None):
        assert f" {value} is not an integer" in _refusal(row, value)
        if row.shape == SEQ:  # the first bad entry is named, after a valid one
            assert f" {value} is not an integer" in _refusal(row, [row.low, value, row.low])


@pytest.mark.parametrize("row", INTEGERS, ids=_int_id)
def test_non_integer_refused(row):
    # a fraction would be truncated to the integer below, and 2.0 or True read as an integer
    base = row.low if row.low is not None else 0
    for value in (base + 0.5, np.float64(base), True):
        assert f" {np.asarray(value).tolist()!r} is not an integer" in _refusal(row, value)
    if row.shape == SEQ:  # the fraction is named, not the valid entry before it
        assert f" {base + 0.5!r} is not an integer" in _refusal(row, [row.low, base + 0.5])


@pytest.mark.parametrize("row", [r for r in INTEGERS if r.shape == SEQ], ids=_int_id)
def test_entry_past_int64_is_named(row):
    # numpy reads [low, 2**63] as float64; the refusal names 2**63, not low as a float
    assert f" {2**63} is not an integer" in _refusal(row, [row.low, 2**63])


@pytest.mark.parametrize("row", [r for r in INTEGERS if r.shape != ANY], ids=_int_id)
def test_shape_not_taken_refused(row):
    value = [row.low] if row.shape == ONE else [[row.low]]
    shape = np.shape(value)
    message = _refusal(row, value)
    assert f" of shape {shape} is not an integer" in message
    assert message.endswith(" or a 1-D sequence of them") == (row.shape == SEQ), message


def test_empty_sequence_is_accepted():
    assert transform.dirichlet_closed(WALSH, [], 3).values.shape == (0, 8)
    assert transform.partial_sum(F, []).values.shape == (0, 8)
    assert group.index_stats([], WALSH, 3).top.shape == (0,)


def test_integer_past_int64_is_a_base_overflow():
    for value in (2**63, 2**70):
        with pytest.raises(group.BaseOverflowError):
            group.decompose(value, WALSH)
    with pytest.raises(ValueError, match=f"order {2**70} is not an integer"):
        transform.dirichlet_closed(WALSH, 2**70, 3)


class Op(NamedTuple):
    func: Callable
    kind: str
    call: Callable  # takes a GridFunction; a spectral operation reads its values as coefficients


def _spectrum(f: GridFunction) -> SpectralVector:
    return SpectralVector(f.generators, f.resolution, f.values)


GRID_OPS = [
    Op(transform.forward, PER_ROW, transform.forward),
    Op(transform.inverse, PER_ROW, lambda f: transform.inverse(_spectrum(f))),
    Op(transform.conditional_expectation, PER_ROW,
       lambda f: [transform.conditional_expectation(f, k) for k in range(f.resolution + 1)]),
    Op(transform.coarse_sums, PER_ROW, transform.coarse_sums),
    Op(GridFunction.__add__, PER_ROW, lambda f: f + f),
    Op(GridFunction.__sub__, PER_ROW, lambda f: f - 0.5 * f),
    Op(GridFunction.__rmul__, PER_ROW, lambda f: (1 + 2j) * f),
    Op(norms.lp_norm, PER_ROW, lambda f: norms.lp_norm(f, 0.5)),
    Op(norms.maximal_function, PER_ROW, norms.maximal_function),
    Op(norms.running_maxima, PER_ROW, lambda f: list(norms.running_maxima(f))),
    Op(norms.hardy_norm, PER_ROW, lambda f: [norms.hardy_norm(f, p) for p in (0.3, 0.5, 2 / 3, 1.0, 2.0)]),
    Op(norms.modulus_hp, PER_ROW, lambda f: [norms.modulus_hp(f, k, 0.5) for k in range(f.resolution + 1)]),
    Op(GridFunction.integral, LONE_ONLY, GridFunction.integral),
    Op(transform.forward_naive, LONE_ONLY, transform.forward_naive),
    Op(transform.inverse_naive, LONE_ONLY, lambda f: transform.inverse_naive(_spectrum(f))),
    Op(transform.partial_sum, LONE_ONLY, lambda f: transform.partial_sum(f, 3)),
    Op(transform.partial_sum, LONE_ONLY, lambda f: transform.partial_sum(_spectrum(f), 3)),
    Op(transform.partial_sum_convolution, LONE_ONLY, lambda f: transform.partial_sum_convolution(f, 3)),
    Op(transform.write_grid_csv, LONE_ONLY, lambda f: transform.write_grid_csv(io.StringIO(), f)),
    Op(transform.write_spectral_csv, LONE_ONLY, lambda f: transform.write_spectral_csv(io.StringIO(), _spectrum(f))),
    Op(transform.write_grid_binary, LONE_ONLY, lambda f: transform.write_grid_binary(io.BytesIO(), f)),
    Op(transform.write_spectral_binary, LONE_ONLY,
       lambda f: transform.write_spectral_binary(io.BytesIO(), _spectrum(f))),
    Op(norms.weak_lp, LONE_ONLY, lambda f: norms.weak_lp(f, 0.5)),
    Op(norms.restricted_maximal, LONE_ONLY, lambda f: norms.restricted_maximal(f, [1, 2])),
    Op(martingale.validate_atom, LONE_ONLY, lambda f: martingale.validate_atom(f, 0.5, 1)),
]


def _op_id(op: Op) -> str:
    return op.func.__qualname__


def _arrays(result) -> list[np.ndarray]:
    """An operation's result as arrays whose leading axis is the row of a batch."""
    if isinstance(result, list):
        return [a for item in result for a in _arrays(item)]
    if isinstance(result, GridFunction):
        return [result.values]
    if isinstance(result, SpectralVector):
        return [result.coeffs]
    return [np.asarray(result)]  # a level, or a norm: a float or one per row


@pytest.mark.parametrize("op", [op for op in GRID_OPS if op.kind == PER_ROW], ids=_op_id)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_per_row_batch_is_its_lone_rows(op, family, data):
    batch = data.draw(batches(family))
    m, resolution = batch.generators, batch.resolution
    together = _arrays(op.call(batch))
    for r, row in enumerate(batch.values):
        alone = _arrays(op.call(GridFunction(m, resolution, row)))
        assert len(alone) == len(together)
        for a, b in zip(alone, together):
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b[r]).view(np.uint64)), (op.func.__qualname__, r)


@pytest.mark.parametrize("op", [op for op in GRID_OPS if op.kind == LONE_ONLY], ids=_op_id)
@pytest.mark.parametrize("rows", [1, 2])
def test_lone_only_refuses_a_batch(op, rows):
    values = np.random.default_rng(rows).standard_normal((rows, 16)) + 0j
    with pytest.raises(ValueError, match="takes one function, not a batch"):
        op.call(GridFunction(WALSH, 4, values))


@pytest.mark.parametrize("m, resolution", [(WALSH, 5), (TRIADIC, 3)], ids=["2^", "3^"])
def test_partial_sum_rows_are_lone_calls_to_the_sign_of_zero(m, resolution):
    # S_6 psi_6 = 0 exactly, psi_6 given by its spectrum: 1 at 6 and -0.0
    # everywhere else, as a file may hold it.  Alone, S_6 is synthesized on
    # its own coarse grid (rank 3 on `2^`, 2 on `3^`); beside the order 9 or
    # M_N, on a higher rank, whose passes leave its zeros other signs.  Every
    # row is its lone call, bit for bit, and every exact zero is +0.0.
    size = m.size(resolution)
    coeffs = np.full(size, complex(-0.0, -0.0))
    coeffs[6] = 1.0
    psi = SpectralVector(m, resolution, coeffs)
    for source in (psi, transform.inverse(psi)):
        orders = [6, 9, size, 0, 6]
        rows = transform.partial_sum(source, orders).values
        assert not rows[0].any()
        for row, n in zip(rows, orders):
            assert np.array_equal(bits(row), bits(transform.partial_sum(source, n).values)), n
        parts = rows.view(np.float64)
        assert not np.signbit(parts[parts == 0]).any()


# Parameters named like an integer index that take VIndex expansions instead
# (already checked by decompose), and so are no row of INTEGERS.
VINDEX_PARAMS = {
    (group.variation, "n"),
    (transform.character, "n"),
    (martingale.select_gap_subsequence, "indices"),
    (martingale.tail_certificate_terms, "indices"),
}
INDEX_NAMES = {"n", "i", "j", "indices", "digits", "coords", "rank", "support_rank", "base_index", "limit",
               "n_limit", "alpha", "alphas"}


def test_every_integer_argument_is_a_row():
    listed = {(row.func, row.param) for row in INTEGERS}
    missing = [
        f"{func.__module__}.{func.__qualname__}({param})"
        for func in public_functions()
        for param in inspect.signature(func).parameters
        if param in INDEX_NAMES and (func, param) not in listed | VINDEX_PARAMS
    ]
    assert not missing, missing


def test_every_grid_operation_is_a_row():
    listed = {op.func for op in GRID_OPS}
    missing = [
        f"{func.__module__}.{func.__qualname__}"
        for func in public_functions()
        if func not in listed
        and any(
            "GridFunction" in str(p.annotation) or "SpectralVector" in str(p.annotation) or p.name == "self"
            for p in inspect.signature(func).parameters.values()
        )
    ]
    assert not missing, missing


# Calls on the Walsh grid at N = 46 (M_N = 2^46, a PiB of complex values),
# each with the cap that refuses it.
OVERSIZE = {
    "zero": ("transform.zero(WALSH, 46)", SIZE_CAP),
    "constant": ("transform.constant(WALSH, 46)", SIZE_CAP),
    "coset_mask": ("group.coset_mask(WALSH, 46, 1)", SIZE_CAP),
    "digit_table": ("group.digit_table(WALSH, 46)", SIZE_CAP),
    "character_block": ("transform.character_block(WALSH, 46, [1, 2])", SIZE_CAP),
    "cumulative_rows": ("next(transform.cumulative_rows(WALSH, 46, 3))", SCAN_SIZE_CAP),
    "lebesgue_table": ("norms.lebesgue_table(WALSH, 46)", SCAN_SIZE_CAP),
    "select_variation_convention": ("norms.select_variation_convention(WALSH, 46)", SCAN_SIZE_CAP),
    "dirichlet_average": ("transform.dirichlet_average(WALSH, 3, 0, 46)", QUADRATIC_SIZE_CAP),
    "random_atom": ("martingale.random_atom(WALSH, 0.5, 2, 46, np.random.default_rng(0))", SIZE_CAP),
    "build_counterexample": (
        "martingale.build_counterexample(WALSH, 0.5, martingale.default_alphas(WALSH, 46), resolution=46)", SIZE_CAP),
}

# Runs each call of OVERSIZE in turn and prints {name: [exception type, message]}.
_OVERSIZE_CHILD = """
import json, sys
import numpy as np
from vilenkin import group, martingale, norms, transform
from vilenkin.group import WALSH
refusals = {}
for name, call in json.loads(sys.argv[1]).items():
    try:
        eval(call)
    except Exception as err:
        refusals[name] = [type(err).__name__, str(err)]
print(json.dumps(refusals))
"""


@pytest.fixture(scope="module")
def oversize_refusals(capped_python):
    # one capped child for every row: a regression ends in its MemoryError
    child = capped_python(_OVERSIZE_CHILD, json.dumps({name: call for name, (call, _) in OVERSIZE.items()}))
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("name", sorted(OVERSIZE))
def test_oversize_grid_is_refused_before_any_array(oversize_refusals, name):
    cap = OVERSIZE[name][1]
    assert oversize_refusals.get(name) == ["ValueError", f"M_N = {2**46} exceeds the size cap {cap}"]
