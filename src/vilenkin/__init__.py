"""Vilenkin-Fourier analysis on bounded Vilenkin groups.

Mixed-radix group arithmetic, fast and naive spectral transforms,
Dirichlet kernels with their closed forms, L_p / weak-L_p / martingale
Hardy quasi-norms, the counterexample martingale family, and scenario
scans that confront the boundedness and divergence theory with exact
finite-resolution computation.
"""

__version__ = "0.1.0"

from .group import (
    GeneratorSequence,
    GroupPoint,
    VIndex,
    WALSH,
    compose,
    decompose,
    group_add,
    group_sub,
    index_to_point,
    point_to_index,
    variation,
)
from .transform import (
    GridFunction,
    SpectralVector,
    character,
    character_values,
    constant,
    dirichlet_closed,
    dirichlet_direct,
    forward,
    forward_naive,
    grid_function,
    inverse,
    inverse_naive,
    partial_sum,
    partial_sum_convolution,
    zero,
)
from .norms import (
    LebesgueReport,
    hardy_norm,
    lebesgue_constant,
    lebesgue_table,
    lp_norm,
    maximal_function,
    modulus_hp,
    restricted_maximal,
    select_variation_convention,
    weak_lp,
)
from .martingale import (
    AtomViolationError,
    MartingaleSpec,
    PAtom,
    build_counterexample,
    closed_partial_sum,
    counterexample_atom,
    default_alphas,
    random_atom,
    spectral_profile,
    validate_atom,
)
from .experiments import (
    ScenarioResult,
    atom_ratio_scan,
    boundedness_scan,
    dirichlet_floor_scan,
    divergence_scan,
    kernel_average_scan,
    modulus_convergence_scan,
    weighted_series,
    weighted_series_scan,
    supp_measure_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
