"""Every fast path beside its literal path, as one table.

``ORACLES`` has one row per pair: a public fast function; its literal path,
an oracle of the package (``forward_naive``, ``inverse_naive``,
``dirichlet_direct``, ``partial_sum_convolution``) or a literal helper of
this file; ``BITWISE`` or a tolerance (a float: max |fast - literal| <= tol
* max(1, max |literal|); ``Abs``: max |fast - literal| <= tol; ``Rel``:
|fast - literal| <= tol * |literal| at each element); and how the
arguments of both are drawn.  Every row
runs on each family of ``shared.FAMILIES`` (``2^``, ``3^``, ``4^``, mixed
patterns cyclic and repeat-last), with the extra radices it names: 17 and
300 for digits past uint8, 97 for a Bluestein length of pocketfft.

A public function of ``group``, ``transform``, ``norms`` or ``martingale``
is a row's fast or literal path, or an entry of ``NO_ORACLE`` that says why
it has none, or ``test_every_public_function_is_a_row`` fails.  The classes
below the table keep the tests whose inputs are the point.
"""

import cmath
import dataclasses
import io
import math
import sys
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shared import ALTERNATING, FAMILIES, MIXED_CYCLE, QUATERNARY, TRIADIC, bits, grids, public_functions
from shared import random_grid, random_values
from vilenkin import experiments, group, martingale, norms, transform
from vilenkin.group import WALSH, GeneratorSequence, GroupPoint, decompose, digit_table, digits_of
from vilenkin.martingale import build_counterexample, default_alphas
from vilenkin.transform import _CSV_BLOCK, GridFunction, SpectralVector, character_block, character_values, unit_roots

BITWISE = None


class Abs(float):
    """A tolerance on max |fast - literal| itself."""


class Rel(float):
    """A tolerance on |fast - literal| / |literal| at each element: 0 where the literal is 0."""

# ---------------------------------------------------------------------------
# literal paths
# ---------------------------------------------------------------------------


def _literal_vindex(n: int, m: GeneratorSequence) -> tuple:
    """(n, digits, top, bottom, M_top, M_bottom) of n >= 1 by Python integers."""
    digits, rest, k = [], n, 0
    while rest:
        digits.append(rest % m.radix(k))
        rest //= m.radix(k)
        k += 1
    top, bottom = len(digits) - 1, min(j for j, d in enumerate(digits) if d)
    return n, tuple(digits), top, bottom, math.prod(m.radices(top)), math.prod(m.radices(bottom))


def _literal_index_stats(ns, m: GeneratorSequence, resolution: int) -> list[np.ndarray]:
    stats = [_literal_vindex(n, m) for n in np.ravel(ns).tolist()]
    return [np.array([s[field] for s in stats], np.int64).reshape(np.shape(ns)) for field in (2, 3, 4, 5)]


def _literal_place_value(digits, m: GeneratorSequence) -> int:
    """sum_k d_k M_k with M_k the product of the radices below k."""
    return sum(d * math.prod(m.radices(k)) for k, d in enumerate(digits))


def _literal_digits(indices, m: GeneratorSequence, resolution: int) -> np.ndarray:
    """(i // M_k) mod m_k for k < N by Python integers, x_0 first."""
    rows = [[i // math.prod(m.radices(k)) % m.radix(k) for k in range(resolution)] for i in np.ravel(indices).tolist()]
    return np.array(rows, np.int64).reshape(np.shape(indices) + (resolution,))


def _variation_literal(n: int, m: GeneratorSequence, convention: str) -> tuple[int, int]:
    """The variation counts as a scalar loop over the digits of one n, delta_{|n|+1} = 0."""
    digits = _literal_vindex(n, m)[1] + (0,)
    start = 0 if convention == "from0" else 1
    delta = [int(d != 0) for d in digits]
    v = delta[0] + sum(abs(delta[j + 1] - delta[j]) for j in range(start, len(digits) - 1))
    return v, sum(m.radix(j) - d - 1 for j, d in enumerate(digits) if d and j >= start)


def _variation_table(ns, m, resolution, convention) -> list[np.ndarray]:
    pairs = [_variation_literal(n, m, convention) for n in np.ravel(ns).tolist()]
    return [np.array([pair[i] for pair in pairs], np.int64) for i in (0, 1)]


def _literal_index_sub(i, j, m, resolution, sign=-1):
    """The digits of i minus (``sign`` = 1: plus) those of j mod m_k, in place value."""
    radices = np.asarray(m.radices(resolution), dtype=np.int64)
    bases = np.asarray(m.scaled_bases(resolution), dtype=np.int64)
    return ((digits_of(i, m, resolution) + sign * digits_of(j, m, resolution)) % radices) @ bases[:-1]


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


def _literal_coset_mask(m, resolution, rank, base_index):
    """The points whose digits below ``rank`` are those of ``base_index``."""
    want = _literal_index_to_point(base_index, m, rank).coords
    points = (_literal_index_to_point(i, m, resolution) for i in range(m.size(resolution)))
    return np.array([x.coords[:rank] == want for x in points])


def _literal_psi(m: GeneratorSequence, n: int, coords) -> complex:
    """psi_n(x) = prod_k exp(2 pi i n_k x_k / m_k), one cmath.exp per digit."""
    out = complex(1.0)
    for k, x_k in enumerate(coords):
        m_k = m.radix(k)
        out *= cmath.exp(2j * cmath.pi * ((n // math.prod(m.radices(k)) % m_k) * x_k % m_k) / m_k)
    return out


def _literal_character_values(m, n, resolution):
    points = (_literal_index_to_point(x, m, resolution).coords for x in range(m.size(resolution)))
    return np.array([_literal_psi(m, n, coords) for coords in points])


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


def _fftn_reference(values, m, resolution, inverse=False):
    """The transform as numpy's n-D FFT over the C-order digit cube (m_{N-1}, ..., m_0)."""
    cube = values.reshape(tuple(reversed(m.radices(resolution))))
    if inverse:
        return np.fft.ifftn(cube).reshape(-1) * values.size
    return np.fft.fftn(cube).reshape(-1) / values.size


def _truncated_synthesis(source, orders):
    """S_n f as numpy's inverse n-D FFT of the n-D FFT spectrum cut at n, +0.0 at n = 0."""
    m, resolution = source.generators, source.resolution
    if isinstance(source, SpectralVector):
        coeffs = source.coeffs
    else:
        coeffs = _fftn_reference(source.values, m, resolution)
    rows = []
    for n in np.ravel(orders).tolist():
        cut = coeffs.copy()
        cut[n:] = 0.0
        rows.append(_fftn_reference(cut, m, resolution, inverse=True) if n else np.zeros(cut.size, np.complex128))
    return np.array(rows, np.complex128).reshape(np.shape(orders) + (coeffs.size,))


def _dirichlet_closed_masked(m, n, resolution):
    """D_n for each order of ``n`` (one, or a 1-D list), by ``_masked_kernel``."""
    rows = [_masked_kernel(m, k, resolution) for k in np.ravel(n).tolist()]
    return np.array(rows, np.complex128).reshape(np.shape(n) + (m.size(resolution),))


def _masked_kernel(m, n, resolution):
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


def _literal_levels(values, m, resolution):
    """The martingale levels of each row: numpy's own reduce along the row at
    level 0 (pairwise where the row is contiguous), the coset loop above it."""
    lead, size = values.shape[:-1], values.shape[-1]
    top = [_coset_loop(values, m_k) for m_k in m.scaled_bases(resolution)[1:]]
    return [np.add.reduce(values.reshape(lead + (size, 1)), axis=-2) / size] + top


def _literal_expectation(f, rank):
    level = _literal_levels(f.values, f.generators, f.resolution)[rank]
    return np.tile(level, f.size // level.shape[-1])


def _literal_maxima(values, m, resolution):
    """max_{j <= k} |level j| on the M_k cosets, for k = 0..N."""
    levels, bases = _literal_levels(values, m, resolution), m.scaled_bases(resolution)
    return [
        np.max([np.tile(np.abs(levels[j]), base // bases[j]) for j in range(k + 1)], axis=0)
        for k, base in enumerate(bases)
    ]


def _lp_literal(values, p):
    """((1/M_N) sum |f|^p)^(1/p) over Python floats, summed exactly."""
    mags = np.abs(np.ravel(values)).tolist()
    return (math.fsum(a**p for a in mags) / len(mags)) ** (1.0 / p)


def _hardy_literal(f, p):
    return _lp_literal(_literal_maxima(f.values, f.generators, f.resolution)[-1], p)


def _modulus_literal(f, n, p):
    return _hardy_literal(GridFunction(f.generators, f.resolution, f.values - _literal_expectation(f, n)), p)


def _weak_lp_literal(f, p):
    """weak_lp's formula with np.unique levels and searchsorted counts."""
    mags = np.abs(f.values)
    levels = np.unique(mags)
    levels = levels[levels > 0]
    if levels.size == 0:
        return 0.0
    count_ge = mags.size - np.searchsorted(np.sort(mags), levels, side="left")
    return float((levels * (1.0 - norms.WEAK_LEVEL_OFFSET) * (count_ge / mags.size) ** (1.0 / p)).max())


def _literal_average(m, n, rank, resolution):
    """x -> (1 / M_R) mean over t in I_R of |D_n(x - t)|, one t at a time, from the literal kernel."""
    kernel = np.abs(transform.dirichlet_direct(m, n, resolution).values)
    grid, m_rank = np.arange(m.size(resolution)), m.base(rank)
    shifted = [kernel[_literal_index_sub(grid, t, m, resolution)] for t in range(0, grid.size, m_rank)]
    return np.mean(shifted, axis=0) / m_rank


def _literal_lebesgue(m, n, resolution, convention):
    """[L_n, lower, upper, v, v*]: the mean of |D_n| from the literal kernel and the bracket
    v / (4 lambda) + v* / lambda + 1 / (2 lambda) <= L_n <= 1.5 v + 4 v* - 1."""
    value = float(np.mean(np.abs(transform.dirichlet_direct(m, n, resolution).values)))
    v, v_star = _variation_literal(n, m, convention)
    lam = max(m.pattern)
    return [value, v / (4 * lam) + v_star / lam + 1 / (2 * lam), 1.5 * v + 4 * v_star - 1, v, v_star]


def _report(r) -> list:
    return [r.n, r.value, r.lower_bound, r.upper_bound, r.v, r.v_star]


def _literal_convention_pick(m, resolution, limit):
    """The convention with fewer n outside the bracket (ties to from1), from literal L_n."""
    stop = m.size(resolution) if limit is None else limit
    violations = {}
    for convention in ("from1", "from0"):
        rows = [[n] + _literal_lebesgue(m, n, resolution, convention) for n in range(1, stop)]
        violations[convention] = [n for n, value, lo, hi, *_ in rows if not lo - 1e-9 <= value <= hi + 1e-9]
    winner = "from1" if len(violations["from1"]) <= len(violations["from0"]) else "from0"
    return [winner, violations["from1"], violations["from0"]]


def _literal_atom(m, alpha, p, resolution):
    """(M_|a|^(1/p-1) / lambda) (D_{M_{|a|+1}} - D_{M_|a|}) from the literal kernels."""
    _, _, top, _, m_top, _ = _literal_vindex(alpha, m)
    direct = transform.dirichlet_direct
    diff = direct(m, m_top * m.radix(top), resolution).values - direct(m, m_top, resolution).values
    return m_top ** (1 / p - 1) / max(m.pattern) * diff


def _lone_atom_sum(m, p, alphas, lambdas, resolution, batch_points):
    """The martingale as its lone atoms, each times its lambda, added in order."""
    acc = np.zeros(m.size(resolution), np.complex128)
    for alpha, lam in zip(alphas, lambdas):
        acc = acc + lam * martingale.counterexample_atom(m, alpha, p, resolution).values.values
    return acc


def _closed_partial_sum_masked(spec, j):
    """``closed_partial_sum`` with each finished block added through two
    full-grid coset masks, as it did before it added on coset slices."""
    m, resolution = spec.generators, spec.truncation
    rows = []
    for order in np.ravel(j).tolist():
        acc = np.zeros(m.size(resolution), dtype=np.complex128)
        for idx, lam_k in zip(spec.indices, spec.lambdas):
            level = martingale._block_level(m, idx, spec.p, lam_k)
            m_top1 = m.base(idx.top + 1)
            if order >= m_top1:
                acc += level * (
                    m_top1 * group.coset_mask(m, resolution, idx.top + 1)
                    - idx.m_top * group.coset_mask(m, resolution, idx.top)
                )
            elif order > idx.m_top:
                twist = character_values(m, idx.m_top, resolution)
                acc += level * twist * transform.dirichlet_closed(m, order - idx.m_top, resolution).values
                break
            else:
                break
        rows.append(acc)
    return np.array(rows, np.complex128).reshape(np.shape(j) + (m.size(resolution),))


def _literal_partial_sum_rows(f):
    """S_n f for n = 1..M_N as running sums of f^(k) psi_k, from the literal spectrum and rows."""
    coeffs = transform.forward_naive(f).coeffs
    rows = _int64_character_block(f.generators, f.resolution, np.arange(f.size))
    return np.cumsum(coeffs[:, None] * rows, axis=0)


def _atom_ratio_literal(p, m, resolution, trials, seed):
    """(max_r, argmax_n) per trial, from the consumer ``atom_ratio_scan`` had
    before it took the kept rows as a block suffix: it gathered the kept
    rows and the (R, M_N) running maxima ``running[top]``, then ``stars**p``."""
    size = m.size(resolution)
    rng = np.random.default_rng(seed)
    bases = m.scaled_bases(resolution)
    stats = group.index_stats(np.arange(1, size + 1), m, resolution)
    discount = (stats.m_bottom / stats.m_top) ** (1.0 / p - 1.0)
    out = []
    for _ in range(trials):
        rank = experiments.SUPPORT_RANKS[int(rng.integers(0, len(experiments.SUPPORT_RANKS)))]
        f = martingale.random_atom(m, p, rank, resolution, rng).values
        running = np.stack([np.tile(level, size // level.size) for level in norms.running_maxima(f)])
        best_r, best_n = 0.0, 0
        for lo, ps in experiments.partial_sum_rows(f):
            ns = np.arange(lo + 1, lo + 1 + ps.shape[0])
            keep = ns > bases[rank]
            if not keep.any():
                continue
            ns_keep = ns[keep]
            stars = np.maximum(running[stats.top[ns_keep - 1]], np.abs(ps[keep]))
            rs = np.mean(stars**p, axis=1) ** (1.0 / p) * discount[ns_keep - 1]
            i = int(np.argmax(rs))
            if rs[i] > best_r:
                best_r, best_n = float(rs[i]), int(ns_keep[i])
        out.append([best_r, best_n])
    return out


def _kernel_average_loop(m, resolution, rank, limit):
    """c(n) for 1 <= n <= limit from ``dirichlet_average`` and full-grid shell
    masks, one n at a time, as ``kernel_average_scan`` computed it before it
    read the shell table."""
    bases = m.scaled_bases(resolution)
    grid = np.arange(m.size(resolution))
    shells = [((grid % bases[s]) == 0) & ((grid % bases[s + 1]) != 0) for s in range(rank)]
    cs = []
    for n in range(1, limit + 1):
        avg = transform.dirichlet_average(m, n, rank, resolution).values.real
        per_shell = [float(avg[shell].max()) * bases[rank] / bases[s] for s, shell in enumerate(shells)]
        cs.append(max(per_shell, default=0.0))
    return cs


def _literal_csv_rows(data):
    return "".join(f"{i},{z.real:.12g},{z.imag:.12g}\n" for i, z in enumerate(data))


def _literal_csv(kind, m, resolution, data):
    """The per-row f-string form of a CSV function file: the writer's oracle."""
    return f"# vilenkin {kind} v1\n# m={m.format()}\n# N={resolution}\nindex,re,im\n" + _literal_csv_rows(data)


def _literal_read_csv(text):
    """[m, N, values] of a CSV function file, one float() per cell."""
    lines = text.splitlines()
    cells = [line.split(",") for line in lines[4:]]
    values = np.array([complex(float(re), float(im)) for _, re, im in cells], np.complex128)
    return [lines[1].removeprefix("# m="), int(lines[2].removeprefix("# N=")), values]


# ---------------------------------------------------------------------------
# how the arguments are drawn
# ---------------------------------------------------------------------------

P_VALUES = [0.3, 0.5, 2 / 3, 1.0, 2.0]
P_NORMS = st.sampled_from(P_VALUES)
P_ATOMS = st.sampled_from([0.5, 2 / 3, 1.0])


def _rng(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _function(draw, m, resolution) -> GridFunction:
    return GridFunction(m, resolution, random_values(_rng(draw), m.size(resolution)))


def _edge_orders(m, resolution, low=0, edges=()):
    """Orders in low..M_N, half of them next to a scaled base M_k or in ``edges``."""
    size = m.size(resolution)
    edges = {n for base in m.scaled_bases(resolution) for n in (base - 1, base, base + 1)} | set(edges)
    return st.one_of(st.sampled_from(sorted(n for n in edges if low <= n <= size)), st.integers(low, size))


def _orders(draw, one, every=()):
    """An order drawn from ``one``, a 1-D list of them, or ``every`` (if given)."""
    return draw(st.one_of(one, st.lists(one, max_size=8), *([st.just(list(every))] if every else [])))


def _index_pair(draw, m, resolution):
    """Two index operands of broadcasting shapes, each a Python int or an array,
    or the (M_N, M_N) table of every pair (its first 256 rows and columns)."""
    size = m.size(resolution)
    shapes = draw(st.sampled_from([
        ((), ()), ((), (5,)), ((5,), ()), ((1,), (5,)), ((5,), (5,)),
        ((4, 1), (1, 3)), ((4, 1), (3,)), ((1, 3), (4, 3)), ((2, 1, 3), (4, 1)), "table",
    ]))
    if shapes == "table":
        grid = np.arange(min(size, 256))
        return grid[:, None], grid[None, :], m, resolution
    rng = _rng(draw)
    operands = []
    for shape in shapes:
        if shape == () and draw(st.booleans()):
            operands.append(int(rng.integers(0, size)))
        else:
            operands.append(rng.integers(0, size, size=shape))
    return (*operands, m, resolution)


def _point(draw, m, resolution):
    rng = _rng(draw)
    return GroupPoint(tuple(int(rng.integers(m.radix(k))) for k in range(resolution)), m)


def _point_pairs(draw, m, resolution):
    """Two lists of eight points."""
    return [[_point(draw, m, resolution) for _ in range(8)] for _ in range(2)]


def _tied_function(draw, m, resolution):
    """Values over 12 decades with some cells 0 and some of one magnitude at
    several phases (ties in |f|)."""
    size = m.size(resolution)
    rng = _rng(draw)
    values = random_values(rng, size) * 10.0 ** draw(st.integers(-6, 6))
    tied = rng.random(size) < draw(st.floats(0.0, 1.0))
    values[tied] = rng.choice(np.array([5.0, -5.0, 5j, 3 + 4j, -4 - 3j, 2.5, 2.5j]), size=int(tied.sum()))
    values[rng.random(size) < draw(st.floats(0.0, 1.0))] = 0.0
    return GridFunction(m, resolution, values)


# Special cells, and where %g changes its exponent or its layout: ties and
# round-ups into the next decade, and 1 ulp either side of each decade
# bounding the fixed-point range.
_SPECIAL_CELLS = [-0.0, 5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf]
_DECADE_EDGES = [
    9.999999999995e-5, 99999999999.95, 999999999999.5,
    9.9999999999997e-5, -99999999999.97, 999999999999.7,
] + [float(np.nextafter(edge, toward)) for edge in (1e-5, 1e-4, 1e11, 1e12) for toward in (0.0, np.inf)]
# Every power of ten the writer formats itself, and 1 ulp either side:
# floor(log10) misses the decade on about a third of them.
_POWERS = np.array([float(f"1e{k}") for k in range(-290, 309)])
_POWER_CELLS = np.concatenate([np.nextafter(_POWERS, 0.0), _POWERS, np.nextafter(_POWERS, np.inf)])


def _csv_cells(draw, size):
    """``size`` complex values with exponents over +-300, and about a fifth
    each of near ties of the 12th digit (13-digit decimals ending in 5),
    random 64-bit patterns and powers of ten, with every special cell and
    decade edge somewhere among their real and imaginary parts."""
    rng = _rng(draw)
    n = 2 * size
    cells = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    kind = rng.integers(0, 5, n)
    ties = np.flatnonzero(kind == 2)
    digits, exps = rng.integers(10**11, 10**12, len(ties)), rng.integers(-300, 290, len(ties))
    cells[ties] = [float(f"{d}5e{x}") for d, x in zip(digits.tolist(), exps.tolist())]
    cells[ties] *= rng.choice([-1.0, 1.0], len(ties))
    bits64 = np.flatnonzero(kind == 3)
    cells[bits64] = rng.integers(0, 2**64, len(bits64), dtype=np.uint64).view(np.float64)
    powers = np.flatnonzero(kind == 4)
    cells[powers] = rng.choice(_POWER_CELLS, len(powers)) * rng.choice([-1.0, 1.0], len(powers))
    fixed = _SPECIAL_CELLS + _DECADE_EDGES
    spots = draw(st.lists(st.integers(0, n - 1), min_size=len(fixed), max_size=len(fixed)))
    cells[spots] = fixed
    return cells.view(np.complex128)


def _csv_text(draw, m, resolution, kind):
    """A CSV function file of finite values at every scale the writer takes."""
    values = _csv_cells(draw, m.size(resolution))
    values[~np.isfinite(values)] = 1.5
    return (_literal_csv(kind, m, resolution, values),)


def _text(write, obj) -> str:
    buf = io.StringIO()
    write(buf, obj)
    return buf.getvalue()


def _read(obj) -> list:
    return [obj.generators.format(), obj.resolution, obj.values if isinstance(obj, GridFunction) else obj.coeffs]


def _truncated_spectrum(draw, m, resolution):
    """A random spectrum, +0.0 from a drawn column on half the draws."""
    coeffs = random_values(_rng(draw), m.size(resolution))
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, coeffs.size)) :] = 0.0
    return SpectralVector(m, resolution, coeffs)


def _source(draw, m, resolution):
    """A random function or a random spectrum: partial_sum takes both."""
    f = _function(draw, m, resolution)
    return SpectralVector(m, resolution, f.values) if draw(st.booleans()) else f


def _weights(draw, m, resolution):
    return random_values(_rng(draw), m.size(resolution)) if draw(st.booleans()) else None


def _lp_argument(draw, m, resolution):
    """A function, its complex values or their magnitudes: lp_norm takes all three."""
    f = _function(draw, m, resolution)
    return {"function": f, "complex": f.values, "real": np.abs(f.values)}[
        draw(st.sampled_from(["function", "complex", "real"]))]


def _atoms(draw, m, resolution):
    """(p, alphas, lambdas): 1..N atoms with strictly increasing tops."""
    tops = draw(st.lists(st.integers(0, resolution - 1), min_size=1, unique=True).map(sorted))
    alphas = [draw(st.integers(m.base(t), m.base(t + 1) - 1)) for t in tops]
    lambdas = draw(st.lists(st.floats(0.01, 10.0), min_size=len(alphas), max_size=len(alphas)))
    return draw(st.sampled_from((0.5, 2.0 / 3.0, 0.9))), alphas, lambdas


def _spec(draw, m, resolution):
    p, alphas, lambdas = _atoms(draw, m, resolution)
    return build_counterexample(m, p, alphas, rule="explicit", lambdas=lambdas, resolution=resolution)


def _spec_orders(draw, m, resolution, many):
    """A martingale, and an order (``many``: orders) that is often an edge of
    one of its blocks: M_top, M_top + 1, M_{top+1} or an alpha."""
    spec = _spec(draw, m, resolution)
    one = _edge_orders(m, resolution, edges={idx.value for idx in spec.indices})
    return spec, _orders(draw, one) if many else draw(one)


def _build_args(draw, m, resolution):
    """The atoms, and runs of kernel rows that hold 1-8 grids (several runs per build)."""
    p, alphas, lambdas = _atoms(draw, m, resolution)
    return m, p, alphas, lambdas, resolution, draw(st.integers(1, 8)) * m.size(resolution)


def _support(rows) -> list:
    """Each |D_n| row, each on its own scale max |D_n| = n, and the points where it passes SUPPORT_THRESHOLD."""
    return [list(rows), np.asarray(rows) > norms.SUPPORT_THRESHOLD]


def _shell_rows(m, resolution, ns) -> list:
    return _support(transform.dirichlet_shells(m, resolution, list(ns)).expand())


def _shell_means(m, resolution, ns) -> np.ndarray:
    """L_n from the cells weighed by their points."""
    table = transform.dirichlet_shells(m, resolution, list(ns))
    return (table.values @ table.points + table.indices) / m.size(resolution)


def _shell_literal(m, resolution, ns) -> list:
    return _support(np.abs([transform.dirichlet_direct(m, n, resolution).values for n in ns]))


def _shell_blocks(m, resolution, ns) -> list:
    """|D_n| for n = 1..len(ns) from the running character sums of ``dirichlet_kernel_blocks``."""
    blocks = transform.dirichlet_kernel_blocks(m, resolution, len(ns))
    return _support(np.abs(np.concatenate([rows for _, rows in blocks])))


def _shell_lebesgue(m, resolution, ns) -> np.ndarray:
    """L_n for n = 1..len(ns) as the mean of |D_n|, D_n the running sum of literal character rows."""
    blocks = _literal_rows(m, resolution, len(ns), None, 256, _int64_character_block)
    return np.concatenate([np.abs(sums).mean(axis=1) for _, sums in blocks])


def _pick(result) -> list:
    winner, violations = result
    return [winner, violations["from1"], violations["from0"]]


def _kernel_average_fast(m, resolution, rank) -> list:
    result = experiments.kernel_average_scan(m, resolution, rank)
    cs = [pt["c"] for pt in result.points]
    health = result.constants["closed_form_max_err"] <= 1e-9
    return [[pt["n"] for pt in result.points], cs, result.constants["c_max"] == max(cs), health]


def _kernel_average_literal(m, resolution, rank) -> list:
    limit = min(m.size(resolution), 4 * m.base(rank))
    return [list(range(1, limit + 1)), _kernel_average_loop(m, resolution, rank, limit), True, True]


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


class Oracle(NamedTuple):
    fast: Callable  # the public fast path
    literal: Callable  # its literal path, called on the same arguments
    tol: float | None  # BITWISE, Abs, Rel, or max |fast - literal| <= tol * max(1, max |literal|)
    args: Callable  # (draw, m, N) -> the arguments of both paths
    call: Callable | None = None  # how the fast path is called, when not fast(*args)
    name: str = ""  # tells apart two rows of one fast path
    extra: tuple[int, ...] = ()  # radices drawn in mixed patterns besides 2..6
    size: int = 256  # the largest M_N drawn above the smallest N
    low: int = 0  # the smallest N drawn
    examples: int = 6  # hypothesis examples per family


def _with(module, name, value, call):
    """``call()`` with ``module.name`` set to ``value``."""
    with mock.patch.object(module, name, value):
        return call()


ORACLES = [
    # group
    Oracle(group.decompose, lambda ns, m: [_literal_vindex(n, m) for n in ns], BITWISE,
           lambda d, m, N: ([*range(1, m.size(N) + 1), *_rng(d).integers(1, 2**40, 16).tolist()], m),
           call=lambda ns, m: [dataclasses.astuple(group.decompose(n, m)) for n in ns]),
    Oracle(group.index_stats, _literal_index_stats, BITWISE, lambda d, m, N: (np.arange(1, m.size(N) + 1), m, N),
           size=1024, examples=20),
    Oracle(group.compose, _literal_place_value, BITWISE,
           lambda d, m, N: ([d(st.integers(0, m.radix(k) - 1)) for k in range(N)], m)),
    Oracle(group.variation_counts, _variation_table, BITWISE,
           lambda d, m, N: (np.arange(1, m.size(N) + 1), m, N, d(st.sampled_from(["from0", "from1"]))), size=100,
           examples=15),
    Oracle(group.variation, _variation_literal, BITWISE,
           lambda d, m, N: (d(st.integers(1, m.size(N))), m, d(st.sampled_from(["from0", "from1"]))),
           call=lambda n, m, c: group.variation(group.decompose(n, m), m, c)),
    Oracle(group.point_to_index, lambda x: _literal_place_value(x.coords, x.generators), BITWISE,
           lambda d, m, N: (_point(d, m, N),)),
    Oracle(group.index_to_point, lambda ids, m, N: [_literal_index_to_point(i, m, N) for i in ids], BITWISE,
           lambda d, m, N: (_rng(d).integers(0, m.size(N), 128).tolist(), m, N),
           call=lambda ids, m, N: [group.index_to_point(i, m, N) for i in ids], examples=12),
    Oracle(group.group_add, lambda xs, ys: [_literal_point_law(x, y, +1) for x, y in zip(xs, ys)], BITWISE,
           _point_pairs, call=lambda xs, ys: [group.group_add(x, y) for x, y in zip(xs, ys)]),
    Oracle(group.group_sub, lambda xs, ys: [_literal_point_law(x, y, -1) for x, y in zip(xs, ys)], BITWISE,
           _point_pairs, call=lambda xs, ys: [group.group_sub(x, y) for x, y in zip(xs, ys)]),
    Oracle(group.index_sub, _literal_index_sub, BITWISE, _index_pair, size=4096, examples=20),
    Oracle(group.index_add, lambda i, j, m, N: _literal_index_sub(i, j, m, N, sign=1), BITWISE, _index_pair,
           size=4096, examples=20),
    Oracle(group.digits_of, _literal_digits, BITWISE,
           lambda d, m, N: (_rng(d).integers(-m.size(N), 2 * m.size(N), d(st.sampled_from([(), (6,), (2, 3)]))), m, N)),
    Oracle(group.digit_table,
           lambda m, N: _literal_digits(np.arange(m.size(N)), m, N).astype(np.min_scalar_type(max(m.pattern) - 1)),
           BITWISE, lambda d, m, N: (m, N), extra=(17, 300), size=1200),
    Oracle(group.coset_mask, _literal_coset_mask, BITWISE,
           lambda d, m, N: (m, N, rank := d(st.integers(0, N)), d(st.integers(0, m.base(rank) - 1)))),
    # transform: characters and the transform pair
    Oracle(transform.character, lambda n, m, points: [_literal_psi(m, n, x.coords) for x in points], 1e-12,
           lambda d, m, N: (d(st.integers(1, m.size(N) - 1)), m, [_point(d, m, N) for _ in range(4)]),
           call=lambda n, m, points: [transform.character(group.decompose(n, m), x) for x in points], low=1),
    Oracle(transform.character_values, _literal_character_values, 1e-12,
           lambda d, m, N: (m, d(st.integers(0, m.size(N) - 1)), N), extra=(17,)),
    Oracle(transform.character_block, _int64_character_block, BITWISE,
           lambda d, m, N: (m, N, _rng(d).integers(0, m.size(N), d(st.integers(1, 8)))), extra=(17, 300), size=1200,
           examples=15),
    Oracle(transform.forward, transform.forward_naive, 1e-10, lambda d, m, N: (_function(d, m, N),), size=512),
    Oracle(transform.forward, lambda f: _fftn_reference(f.values, f.generators, f.resolution), BITWISE,
           lambda d, m, N: (_function(d, m, N),), name="fftn", extra=(7, 97), size=1 << 14, examples=20),
    Oracle(transform.inverse, transform.inverse_naive, Abs(1e-10),
           lambda d, m, N: (transform.forward(_function(d, m, N)),), size=512),
    Oracle(transform.inverse, lambda sv: _fftn_reference(sv.coeffs, sv.generators, sv.resolution, inverse=True),
           BITWISE, lambda d, m, N: (_truncated_spectrum(d, m, N),), name="fftn", extra=(7, 97), size=1 << 14,
           examples=20),
    # kernels
    Oracle(transform.dirichlet_closed, transform.dirichlet_direct, Abs(1e-9),
           lambda d, m, N: (m, d(_edge_orders(m, N, 1)), N), size=512),
    Oracle(transform.dirichlet_closed, _dirichlet_closed_masked, BITWISE,
           lambda d, m, N: (m, _orders(d, _edge_orders(m, N, 1)), N), name="masked", extra=(17, 300), size=1200,
           examples=20),
    Oracle(transform.dirichlet_shells, _shell_literal, 1e-12,
           lambda d, m, N: (m, N, d(st.lists(st.integers(1, m.size(N)), min_size=1, max_size=4))),
           call=_shell_rows, size=1024, examples=15),
    Oracle(transform.dirichlet_shells, _shell_blocks, 1e-12,
           lambda d, m, N: (m, N, range(1, d(st.integers(1, m.size(N))) + 1)), call=_shell_rows, name="blocks",
           size=1024, examples=15),
    Oracle(transform.dirichlet_shells, _shell_lebesgue, Rel(1e-12),
           lambda d, m, N: (m, N, range(1, d(st.integers(1, m.size(N))) + 1)), call=_shell_means, name="lebesgue",
           size=1024, examples=10),
    Oracle(transform.cumulative_rows,
           lambda m, N, limit, w, block: list(_literal_rows(m, N, limit, w, block, _int64_character_block)), BITWISE,
           lambda d, m, N: (m, N, d(st.integers(1, m.size(N))), _weights(d, m, N), d(st.integers(1, 300))),
           call=lambda m, N, limit, w, block: _with(
               transform, "_ROW_BLOCK", block, lambda: list(transform.cumulative_rows(m, N, limit, w))),
           extra=(17, 300), size=1200, examples=20),
    Oracle(transform.dirichlet_kernel_blocks,
           lambda m, N, limit, ns, block: [transform.dirichlet_direct(m, n, N).values for n in ns], Abs(1e-9),
           lambda d, m, N: (m, N, limit := d(st.integers(1, m.size(N))), sorted({1, limit, d(st.integers(1, limit))}),
                            d(st.integers(1, 300))),
           call=lambda m, N, limit, ns, block: _with(transform, "_ROW_BLOCK", block, lambda: list(np.concatenate(
               [rows for _, rows in transform.dirichlet_kernel_blocks(m, N, limit)])[np.asarray(ns) - 1])),
           size=1024),
    Oracle(transform.dirichlet_average, _literal_average, Abs(1e-12),
           lambda d, m, N: (m, d(st.integers(1, m.size(N))), d(st.integers(0, N)), N), size=128),
    # partial sums and martingale levels
    Oracle(transform.partial_sum, transform.partial_sum_convolution, Abs(1e-9),
           lambda d, m, N: (_function(d, m, N), d(_edge_orders(m, N)))),
    Oracle(transform.partial_sum, _literal_expectation, Abs(1e-12),
           lambda d, m, N: (_function(d, m, N), d(st.integers(0, N))),
           call=lambda f, k: transform.partial_sum(f, f.generators.base(k)), name="levels", size=1024),
    Oracle(transform.partial_sum, _truncated_synthesis, BITWISE,
           lambda d, m, N: (_source(d, m, N), _orders(d, _edge_orders(m, N), range(m.size(N) + 1))),
           name="fftn", extra=(97,), examples=10),
    Oracle(transform.conditional_expectation, _literal_expectation, BITWISE,
           lambda d, m, N: (_function(d, m, N), d(st.integers(0, N))), size=1024, examples=15),
    Oracle(transform.conditional_expectation, lambda f, k: transform.partial_sum_convolution(f, f.generators.base(k)),
           Abs(1e-9), lambda d, m, N: (_function(d, m, N), d(st.integers(0, N))), name="convolution"),
    Oracle(transform.coarse_sums, lambda f: _literal_levels(f.values, f.generators, f.resolution), BITWISE,
           lambda d, m, N: (_function(d, m, N),), extra=(97,), size=1024, examples=15),
    # CSV files
    Oracle(transform.write_csv_rows, _literal_csv_rows, BITWISE, lambda d, m, N: (_csv_cells(d, m.size(N)),),
           call=lambda data: _text(transform.write_csv_rows, data)),
    Oracle(transform.write_grid_csv, lambda f: _literal_csv("grid", f.generators, f.resolution, f.values), BITWISE,
           lambda d, m, N: (GridFunction(m, N, _csv_cells(d, m.size(N))),),
           call=lambda f: _text(transform.write_grid_csv, f)),
    Oracle(transform.write_spectral_csv, lambda sv: _literal_csv("spectral", sv.generators, sv.resolution, sv.coeffs),
           BITWISE, lambda d, m, N: (SpectralVector(m, N, _csv_cells(d, m.size(N))),),
           call=lambda sv: _text(transform.write_spectral_csv, sv)),
    Oracle(transform.read_grid_csv, _literal_read_csv, BITWISE, lambda d, m, N: _csv_text(d, m, N, "grid"),
           call=lambda text: _read(transform.read_grid_csv(io.StringIO(text)))),
    Oracle(transform.read_spectral_csv, _literal_read_csv, BITWISE, lambda d, m, N: _csv_text(d, m, N, "spectral"),
           call=lambda text: _read(transform.read_spectral_csv(io.StringIO(text)))),
    # norms
    Oracle(norms.lp_norm, lambda f, p: _lp_literal(getattr(f, "values", f), p), 1e-12,
           lambda d, m, N: (_lp_argument(d, m, N), d(P_NORMS))),
    Oracle(norms.weak_lp, lambda f, ps: [_weak_lp_literal(f, p) for p in ps], BITWISE,
           lambda d, m, N: (_tied_function(d, m, N), P_VALUES), call=lambda f, ps: [norms.weak_lp(f, p) for p in ps],
           examples=15),
    Oracle(norms.running_maxima, lambda f: _literal_maxima(f.values, f.generators, f.resolution), BITWISE,
           lambda d, m, N: (_function(d, m, N),), call=lambda f: list(norms.running_maxima(f)), size=1024),
    Oracle(norms.maximal_function, lambda f: _literal_maxima(f.values, f.generators, f.resolution)[-1].astype(complex),
           BITWISE, lambda d, m, N: (_function(d, m, N),), size=1024),
    Oracle(norms.hardy_norm, _hardy_literal, 1e-12, lambda d, m, N: (_tied_function(d, m, N), d(P_NORMS))),
    Oracle(norms.modulus_hp, _modulus_literal, 1e-10,
           lambda d, m, N: (_function(d, m, N), d(st.integers(0, N)), d(P_NORMS))),
    Oracle(norms.restricted_maximal,
           lambda f, ns: np.max([np.abs(transform.partial_sum_convolution(f, n).values) for n in ns], axis=0),
           Abs(1e-9),
           lambda d, m, N: (_function(d, m, N), d(st.lists(st.integers(0, m.size(N)), min_size=1, max_size=4)))),
    Oracle(norms.lebesgue_constant, _literal_lebesgue, 1e-10,
           lambda d, m, N: (m, d(st.integers(1, m.size(N))), N, d(st.sampled_from(["from0", "from1"]))),
           call=lambda m, n, N, c: _report(norms.lebesgue_constant(m, n, N, c))[1:]),
    Oracle(norms.lebesgue_table,
           lambda m, N, limit, c: [[n] + _literal_lebesgue(m, n, N, c) for n in range(1, limit)], 1e-10,
           lambda d, m, N: (m, N, d(st.integers(2, m.size(N) + 1)), d(st.sampled_from(["from0", "from1"]))),
           call=lambda m, N, limit, c: [_report(r) for r in norms.lebesgue_table(m, N, limit, c)], size=64, low=1),
    Oracle(norms.select_variation_convention, _literal_convention_pick, BITWISE,
           lambda d, m, N: (m, N, d(st.one_of(st.none(), st.integers(2, m.size(N) + 1)))),
           call=lambda m, N, limit: _pick(norms.select_variation_convention(m, N, limit)), size=64, low=1),
    # the counterexample martingale
    Oracle(martingale.counterexample_atom, _literal_atom, 1e-10,
           lambda d, m, N: (m, d(st.integers(1, m.size(N) - 1)), d(P_ATOMS), N),
           call=lambda m, a, p, N: martingale.counterexample_atom(m, a, p, N).values, low=1),
    Oracle(martingale.build_counterexample, _lone_atom_sum, BITWISE, lambda d, m, N: _build_args(d, m, N),
           call=lambda m, p, alphas, lambdas, N, points: _with(
               martingale, "_BATCH_POINTS", points, lambda: martingale.build_counterexample(
                   m, p, alphas, rule="explicit", lambdas=lambdas, resolution=N).realized), low=1, size=512),
    Oracle(martingale.spectral_profile, lambda spec: transform.forward_naive(spec.realized).coeffs, Abs(1e-9),
           lambda d, m, N: (_spec(d, m, N),), low=1),
    Oracle(martingale.closed_partial_sum, _closed_partial_sum_masked, BITWISE,
           lambda d, m, N: _spec_orders(d, m, N, many=True), name="masked", low=1, size=1024, examples=20),
    Oracle(martingale.closed_partial_sum, lambda spec, j: transform.partial_sum_convolution(spec.realized, j),
           Abs(1e-9),           lambda d, m, N: _spec_orders(d, m, N, many=False), low=1),
    # scans
    Oracle(experiments.partial_sum_rows, lambda f, block: _literal_partial_sum_rows(f), Abs(1e-9),
           lambda d, m, N: (_function(d, m, N), d(st.integers(1, 300))),
           call=lambda f, block: _with(transform, "_ROW_BLOCK", block, lambda: np.concatenate(
               [rows for _, rows in experiments.partial_sum_rows(f)]))),
    Oracle(experiments.atom_ratio_scan, _atom_ratio_literal, BITWISE,
           lambda d, m, N: (d(st.sampled_from([0.3, 0.5, 2 / 3])), m, N, d(st.integers(1, 3)), d(st.integers(0, 99))),
           call=lambda p, m, N, trials, seed: [
               [pt["max_r"], pt["argmax_n"]] for pt in experiments.atom_ratio_scan(p, m, N, trials, seed).points],
           low=4, examples=3),
    Oracle(experiments.kernel_average_scan, lambda m, N, rank: _kernel_average_literal(m, N, rank), Rel(1e-12),
           lambda d, m, N: (m, N, d(st.integers(0, N))), call=lambda m, N, rank: _kernel_average_fast(m, N, rank),
           examples=15),
]

# Public functions with no fast path to hold against a literal one.
NO_ORACLE = {
    transform.unit_roots: "the root table exp(2 pi i u / m) itself, which every literal path reads too",
    transform.grid_function: "a constructor: it checks the values and wraps them",
    transform.zero: "a constructor of the zero function",
    transform.constant: "a constructor of a constant function",
    GridFunction.integral: "the mean of the values",
    transform.write_grid_binary: "a byte layout, pinned by the round trips of test_transform and test_cli",
    transform.write_spectral_binary: "a byte layout, pinned by the round trips of test_transform and test_cli",
    transform.read_grid_binary: "a byte layout, pinned by the round trips and the reader fuzz of test_cli",
    transform.read_spectral_binary: "a byte layout, pinned by the round trips and the reader fuzz of test_cli",
    martingale.validate_atom: "a predicate: each named failure is built by hand in test_martingale",
    martingale.random_atom: "a random draw, which validate_atom checks on return",
    martingale.default_alphas: "a rule of the construction: the alphas M_k + 1",
    martingale.phi_value: "a rule of the construction: the weight Phi at one n",
    martingale.spread_rate: "a rule of the construction: one closed-form scalar",
    martingale.select_gap_subsequence: "a rule of the construction: a greedy filter over the alphas",
    martingale.tail_certificate_terms: "a rule of the construction: one closed-form scalar per alpha",
}


def _row_id(row: Oracle) -> str:
    return f"{row.fast.__module__.removeprefix('vilenkin.')}.{row.fast.__name__}" + (f"-{row.name}" if row.name else "")


def _current(func: Callable) -> Callable:
    """``func`` as its module holds it now, so that a patched fast path is the one a row calls."""
    return getattr(sys.modules[func.__module__], func.__name__)


def _plain(result):
    """A result as nested lists of arrays, numbers and strings."""
    if isinstance(result, GridFunction):
        return result.values
    if isinstance(result, SpectralVector):
        return result.coeffs
    if isinstance(result, GroupPoint):
        return np.asarray(result.coords, dtype=np.int64)
    if isinstance(result, (list, tuple)):
        return [_plain(item) for item in result]
    return result


def _assert_same(fast, literal, tol, where="result"):
    if isinstance(literal, list):
        assert isinstance(fast, list) and len(fast) == len(literal), (where, fast, literal)
        for i, (a, b) in enumerate(zip(fast, literal)):
            _assert_same(a, b, tol, f"{where}[{i}]")
    elif isinstance(literal, str):
        assert fast == literal, where
    else:
        a, b = np.asarray(fast), np.asarray(literal)
        assert a.shape == b.shape, (where, a.shape, b.shape)
        if tol is BITWISE or b.dtype.kind in "biu":
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (where, a, b)
        else:
            err = np.abs(a - b)
            if isinstance(tol, Abs):
                bound = tol
            elif isinstance(tol, Rel):
                bound = tol * np.abs(b)
            else:
                bound = tol * max(1.0, float(np.abs(b).max(initial=0.0)))
            assert (err <= bound).all(), (where, float(err.max(initial=0.0)))


def check_row(row: Oracle, family: str) -> None:
    """Hypothesis draws a grid of ``family`` and the row's arguments; the fast
    path must equal the literal path and leave its array arguments alone."""

    @settings(max_examples=row.examples, deadline=None, database=None)
    @given(st.data())
    def check(data):
        m, resolution = data.draw(grids(family, row.size, row.extra, row.low), label="grid")
        args = row.args(data.draw, m, resolution)
        arrays = [a for a in args if isinstance(a, (np.ndarray, GridFunction, SpectralVector))]
        before = [_plain(a).tobytes() for a in arrays]
        fast = (row.call or _current(row.fast))(*args)
        assert [_plain(a).tobytes() for a in arrays] == before, "the fast path wrote to an argument"
        _assert_same(_plain(fast), _plain(row.literal(*args)), row.tol)

    check()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("row", ORACLES, ids=_row_id)
def test_fast_path_equals_literal_path(row, family):
    check_row(row, family)


def test_every_public_function_is_a_row():
    listed = {row.fast for row in ORACLES} | {row.literal for row in ORACLES} | set(NO_ORACLE)
    missing = [f"{f.__module__}.{f.__qualname__}" for f in public_functions() if f not in listed]
    assert not missing, missing
    assert not {row.fast for row in ORACLES} & set(NO_ORACLE)


def test_row_ids_are_unique():
    ids = [_row_id(row) for row in ORACLES]
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# inputs that are the point
# ---------------------------------------------------------------------------

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
        fast = transform._digit_passes(values, WALSH, resolution, inverse, 1 << resolution)
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
                (transform.forward(GridFunction(m, resolution, values)).coeffs,
                 transform.forward(GridFunction(m, resolution, copy)).coeffs),
                (transform.inverse(SpectralVector(m, resolution, values)).values,
                 transform.inverse(SpectralVector(m, resolution, copy)).values),
            ]
            for got, want in pairs:
                assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("m, calls", [(WALSH, 0), (ALTERNATING, 3)], ids=["2^", "2,3^"])
    def test_pocketfft_runs_only_the_other_radices(self, monkeypatch, m, calls):
        counts = {"fft": 0, "ifft": 0}
        for name in counts:
            def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                counts[_name] += 1
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        f = random_grid(m, 6)
        transform.inverse(transform.forward(f))
        assert counts == {"fft": calls, "ifft": calls}


def _truncated(m, resolution, rows, stop, seed):
    """Random spectra that are +0.0 from column ``stop`` on, with exact zeros
    of both signs inside the prefix."""
    rng = np.random.default_rng(seed)
    shape = (*rows, m.size(resolution))
    coeffs = random_values(rng, shape)
    coeffs[rng.random(shape) < 0.2] = 0.0
    coeffs[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    coeffs[..., stop:] = 0.0
    return coeffs


def _column_view(coeffs):
    """The same values as a view whose last axis has a stride of two entries."""
    wide = np.empty((*coeffs.shape, 2), np.complex128)
    wide[..., 1] = coeffs
    return wide[..., 1]


def _grid_id(v):
    return getattr(v, "format", lambda: str(v))()


class TestPrefixSynthesis:
    # 89 is a Bluestein length of pocketfft: its zero fibers come out with
    # -0.0 entries, so that grid must take the full passes.
    GRIDS = [(WALSH, 12), (TRIADIC, 7), (ALTERNATING, 9), (MIXED_CYCLE, 8), (GeneratorSequence.parse("89,2"), 7)]

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=_grid_id)
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
            cases = [(coeffs, stop)]
            if stop < size:  # a -0.0 in the tail: no stop is given, so the full passes read it
                signed = coeffs.copy()
                signed.reshape(-1, size)[rng.integers(signed.size // size), rng.integers(stop, size)] = -0.0
                cases.append((signed, None))
            for values, given_stop in cases:
                want = np.stack([_fftn_reference(row, m, resolution, True) for row in values.reshape(-1, size)])
                if view:
                    values = _column_view(values)
                if given_stop is None:
                    got = transform.inverse(SpectralVector(m, resolution, values)).values
                else:
                    got = transform._truncated_inverse(values, m, resolution, given_stop).values
                    pruned += transform._prefix_stop(given_stop, math.prod(rows), m, resolution) < size
                assert np.array_equal(got.reshape(-1, size).view(np.uint64), want.view(np.uint64)), stop
        assert (pruned > 0) == (89 not in m.pattern)

    def test_zero_tail_is_not_transformed(self, monkeypatch):
        m, resolution, orders = TRIADIC, 8, [100, 50, 7, 1]
        size = m.size(resolution)
        spectrum = transform.forward(random_grid(m, resolution))
        points = []

        def counted(a, *args, _ifft=np.fft.ifft, **kwargs):
            points.append(np.size(a))
            return _ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        sums = transform.partial_sum(spectrum, orders).values
        # about N stop + 2 M_N values per row, where the full passes take N M_N
        assert sum(points) <= len(orders) * (resolution * max(orders) + 2 * size)
        for row, n in zip(sums, orders):
            truncated = spectrum.coeffs.copy()
            truncated[n:] = 0.0
            assert np.array_equal(row.view(np.uint64), _fftn_reference(truncated, m, resolution, True).view(np.uint64))

    def test_boundedness_pool_reads_only_its_prefix(self, monkeypatch):
        m, resolution = TRIADIC, 8
        size = m.size(resolution)

        def scan():
            points, norms = [], []

            def counted_ifft(a, *args, _ifft=np.fft.ifft, **kwargs):
                points.append(np.size(a))
                return _ifft(a, *args, **kwargs)

            def recorded_norm(f, p, _norm=experiments.hardy_norm):
                norms.append(_norm(f, p))
                return norms[-1]

            with monkeypatch.context() as patch:
                patch.setattr(np.fft, "ifft", counted_ifft)
                patch.setattr(experiments, "hardy_norm", recorded_norm)
                result = experiments.boundedness_scan(0.5, "Mn_plus_Mn-1", m, resolution, trials=4, seed=3)
            return result, sum(points), np.concatenate(norms)

        result, read, norms = scan()
        orders = [pt["n"] for pt in result.points]
        rows = norms.size // (len(orders) + 1)  # the denominators, then one norm per row and index
        # about N n + 2 M_N values per row and index, where the full passes take N M_N
        assert read <= rows * sum(resolution * n + 2 * size for n in orders) < rows * len(orders) * resolution * size
        monkeypatch.setattr(transform, "_PASS_VALUES", 1 << 60)  # no prefix pays: the full passes
        full, read_full, norms_full = scan()
        assert read_full == rows * len(orders) * resolution * size
        assert np.array_equal(norms.view(np.uint64), norms_full.view(np.uint64))
        assert result.to_json() == full.to_json()


def _assert_rows_bit_identical(m, resolution, limit, weights, block):
    """The two streams compared block by block, so that only one block of each is held."""
    count = 0
    with mock.patch.object(transform, "_ROW_BLOCK", block):
        fast = transform.cumulative_rows(m, resolution, limit, weights)
        for (lo, a), (lo_ref, b) in zip(fast, _literal_rows(m, resolution, limit, weights, block), strict=True):
            assert lo == lo_ref and a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), lo
            count += a.shape[0]
    assert count == limit


class TestCumulativeRows:
    """Full scans past 1024 rows, with several runs of high digits per block."""

    @pytest.mark.parametrize(
        "spec,resolution", [("2^", 10), ("3^", 7), ("4^", 5), ("2,3,4^", 7)], ids=str
    )
    @pytest.mark.parametrize("weighted", [False, True], ids=["kernels", "weighted"])
    def test_full_scan_bit_identical(self, spec, resolution, weighted):
        m = GeneratorSequence.parse(spec)
        size = m.size(resolution)
        assert size >= 1024
        rng = np.random.default_rng(resolution)
        weights = random_values(rng, size) if weighted else None
        _assert_rows_bit_identical(m, resolution, size, weights, 256)

    def test_weighted_rows_bit_identical_at_4096(self):
        # 2^12 has 64 low-digit rows and six high digits, so most runs carry
        # several factors.  Blocks of 40 straddle the runs and keep the two
        # streams compared block by block under about 20 MB.
        weights = random_values(np.random.default_rng(12), WALSH.size(12))
        _assert_rows_bit_identical(WALSH, 12, 300, weights, 40)


class TestCosetMeans:
    GRIDS = [(WALSH, 9), (TRIADIC, 5), (QUATERNARY, 4), (MIXED_CYCLE, 5), (GeneratorSequence.parse("89,2"), 4)]
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
        values = random_values(rng, lead + (size,))
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

    @pytest.mark.parametrize("m, resolution", GRIDS, ids=_grid_id)
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("kind", DATA)
    @pytest.mark.parametrize("lane_run", [0, transform._LANE_RUN, transform.SIZE_CAP], ids=["rows", "default", "lanes"])
    def test_levels_are_the_coset_loop(self, monkeypatch, m, resolution, layout, kind, lane_run):
        # lane_run 0 adds whole coset rows on every level and SIZE_CAP runs
        # every lane down its cosets: both einsum orders meet every level.
        monkeypatch.setattr(transform, "_LANE_RUN", lane_run)
        lead, arrange = self.LAYOUTS[layout]
        values = arrange(self._data(kind, m, resolution, lead))
        f = GridFunction(m, resolution, values)
        with np.errstate(over="ignore", invalid="ignore"):
            levels = transform.coarse_sums(f)
            finite = []
            for k, (level, want) in enumerate(zip(levels, _literal_levels(values, m, resolution), strict=True)):
                m_k = m.base(k)
                assert level.shape == lead + (m_k,)
                assert np.array_equal(bits(level), bits(want)), (k, m_k)
                tiled = np.tile(want, (1,) * len(lead) + (f.size // m_k,))
                assert np.array_equal(bits(transform.conditional_expectation(f, k).values), bits(tiled)), (k, m_k)
                finite.append(bool(np.isfinite(want).all()))
        # The 1e308 row overflows its coarse sums: those levels take the / R path.
        assert not all(finite) if kind == "overflowing-row" else all(finite)


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


class TestCsvRowBlocks:
    def test_writer_grids_straddle_the_row_block(self):
        sizes = {m.size(resolution) for m, resolution in _WRITER_GRIDS}
        assert {1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3 * _CSV_BLOCK + 5} <= sizes

    @pytest.mark.parametrize("kind", ["grid", "spectral"])
    @pytest.mark.parametrize("m, resolution", _WRITER_GRIDS, ids=[f"{m.format()}-N{n}" for m, n in _WRITER_GRIDS])
    @settings(max_examples=5, deadline=None)
    @given(st.data())
    def test_csv_writer_matches_per_row_format(self, m, resolution, kind, data):
        values = _csv_cells(data.draw, m.size(resolution))
        if kind == "grid":
            text = _text(transform.write_grid_csv, GridFunction(m, resolution, values))
        else:
            text = _text(transform.write_spectral_csv, SpectralVector(m, resolution, values))
        assert text == _literal_csv(kind, m, resolution, values)
