"""Harmonic-analysis operators on the discretized torus.

Grid functions on T, T^2 and T^3, dyadic geometry, frequency-side partitions of
unity and adapted families, maximal operators and Calderon-Zygmund
decompositions, Littlewood-Paley square functions and paraproducts,
multiplier operators, exact rearrangement/Zygmund norms, and an empirical
verification suite for the boundedness statements tying them together.
"""

from .bumps import (
    AdaptedFamily,
    DoubleBumpSystem,
    PlateauProfile,
    build_double_pou,
    build_pou,
    decompose_adapted,
    make_adapted_family,
    verify_adapted,
)
from .corpus import Corpus, generate_corpus
from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Relation,
    TorusInterval,
    concentric_scale,
    dist_intervals,
    dist_torus,
    enlarge_shift,
    relate,
    shift_interval,
    star,
)
from .gfio import RunConfig, load_config, read_grid_function, write_grid_function
from .grid import (
    GridFunction,
    NormSpec,
    Spectrum,
    convolve,
    fourier_coefficients,
    inner_product,
    inverse_transform,
    lp_norm,
    norm,
    weak_lp_norm,
)
from .maximal import (
    CZDecomposition,
    StoppingCover,
    adapted_maximal,
    cz_cover,
    cz_decompose,
    maximal,
    vector_maximal,
)
from .multipliers import (
    MultiplierSymbol,
    apply_1d,
    apply_bilinear,
    apply_biparameter,
    band_limit,
    symbol_coefficients,
    symbol_registry,
    trilinear_pairing_check,
    validate_symbol,
)
from .paraproducts import ParaproductSpec, paraproduct_1p, paraproduct_2p
from .probes import (
    dual_weak_estimate,
    fs_growth_counterexample,
    fs_sum_counterexample,
    khinchine_experiment,
    llogl_maximal_experiment,
    probe_norm,
)
from .rearrange import (
    RearrangementCurve,
    StepProfile,
    kolmogorov_functional,
    lorentz_norm,
    n_star,
    optimal_l1_linf_split,
    rearrangement,
    two_star,
    zygmund_norm,
)
from .squares import (
    CoefficientField,
    EpsilonField,
    EpsilonField2D,
    EpsilonSequence,
    GridFunction3,
    coefficient_field,
    hybrid,
    hybrid3,
    linearize,
    square_function,
)
from .suite import CHECKS, run_suite

__version__ = "0.1.0"
