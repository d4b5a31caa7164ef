"""Top-two adjacency eigenvalues of trees: certified computation, exhaustive
enumeration, eigenvalue-monotone transforms, extremal search and envelopes."""

from .trees import (
    DoubleCometParams,
    Tree,
    TreeError,
    canonical_code,
    centroids,
    double_comet_code,
    make_double_comet,
    make_path,
    make_star,
    parse_tree_spec,
    relabel,
    tree_from_text,
    tree_to_text,
)
from .enumeration import (
    enumerate_double_comets,
    enumerate_free_trees,
    enumerate_labeled_oracle,
    enumerate_trees,
)
from .spectra import (
    CenterReport,
    EigenvectorData,
    Lambda2MultiplicityError,
    SignCount,
    TopTwo,
    count_eigenvalues_above,
    dc_top_two_closed,
    dense_spectrum_oracle,
    eigenvector,
    ev_ev_identity_residual,
    local_equation_residuals,
    path_eigenvalue,
    spectral_center,
    spectral_sum_lower_bound,
    top_two,
)
from .transforms import (
    TransformOutcome,
    contract_internal_edge,
    hanging_path_shift,
    kelmans,
    rotate,
    rotation_gain,
)
from .extremal import (
    AsymptoticParams,
    ExtremalResult,
    PiecewiseLinear,
    ProbeReport,
    PsiValue,
    dc_structure_probe,
    envelope,
    expansion_dc2,
    expansion_dc3,
    limit_curve,
    normalized_envelope,
    psi,
    search_extremal,
    spectral_gap_min,
    tuned_dc2_params,
    tuned_dc3_params,
)
from .suites import VerifyReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
