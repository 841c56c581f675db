"""Grids, random functions and the public surface shared by the test modules.

``FAMILIES`` are the four radix families that the property tables run on:
``2^``, ``3^``, ``4^`` and mixed patterns.  ``grids(family)`` draws a grid
of one family; a mixed pattern holds 1-4 radices from ``MIXED_RADICES``
(and any extra radices the caller names), cyclic or repeat-last.
"""

import inspect

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from vilenkin import group, martingale, norms, transform
from vilenkin.group import WALSH, GeneratorSequence
from vilenkin.transform import GridFunction, grid_function

TRIADIC = GeneratorSequence.parse("3^")
QUATERNARY = GeneratorSequence.parse("4^")
ALTERNATING = GeneratorSequence.parse("2,3^")
MIXED_CYCLE = GeneratorSequence.parse("2,3,4^")

FAMILIES = ("2^", "3^", "4^", "mixed")
MIXED_RADICES = (2, 3, 4, 5, 6)
PURE = {"2^": WALSH, "3^": TRIADIC, "4^": QUATERNARY}


def random_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard normals."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_grid(m: GeneratorSequence, resolution: int, seed: int = 0) -> GridFunction:
    return grid_function(m, resolution, random_values(np.random.default_rng(seed), m.size(resolution)))


def bits(a) -> np.ndarray:
    """The float64 words of ``a``: equal bits, not equal values (-0.0 != 0.0)."""
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def grids(draw, family: str, max_size: int = 256, extra: tuple[int, ...] = (), min_resolution: int = 0):
    """(m, N) with m of ``family`` and N >= ``min_resolution``, M_N at most
    ``max_size`` above that smallest N."""
    if family in PURE:
        m = PURE[family]
    else:
        pattern = draw(st.lists(st.sampled_from(MIXED_RADICES + tuple(extra)), min_size=1, max_size=4))
        m = GeneratorSequence(tuple(pattern), draw(st.booleans()))
        assume(m.size(min_resolution) <= max_size)
    top = min_resolution
    while m.size(top + 1) <= max_size:
        top += 1
    return m, draw(st.integers(min_resolution, top))


def any_grid(**kwargs):
    """``grids`` of a drawn family."""
    return st.sampled_from(FAMILIES).flatmap(lambda family: grids(family, **kwargs))


@st.composite
def batches(draw, family: str | None = None):
    """1-6 functions on one grid of ``family`` (None: any), M_N <= 1024, each
    row at its own scale from 1e-8 to 1e8, and some rows 0."""
    m, resolution = draw(any_grid(max_size=1024) if family is None else grids(family, max_size=1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), m.size(resolution))
    values = random_values(rng, shape) * 10.0 ** rng.integers(-8, 9, size=(shape[0], 1))
    values[rng.random(shape[0]) < 0.2] = 0.0
    return GridFunction(m, resolution, values)


MODULES = (group, transform, norms, martingale)


def public_functions():
    """Every public function defined in ``MODULES``, and ``GridFunction.integral``."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield obj
    yield GridFunction.integral
