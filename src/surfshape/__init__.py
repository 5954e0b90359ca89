"""Functional statistical shape analysis for corresponded triangulated 3D surfaces.

Area-weighted Procrustes registration, functional principal components,
permutation-based group comparison, asymmetry and closest-control assessment,
and exact thin-plate-spline warping.
"""

from . import io
from .chi2 import chi_square_quantile
from .fpca import (
    FpcaModel,
    GrandTour,
    component_shape,
    fit_fpca,
    grand_tour,
    reconstruct,
    scores,
    scores_from_tangent,
    variability_map,
)
from .groupcompare import (
    GroupTestReport,
    SubspaceEffect,
    affine_nonaffine_split,
    align_component_signs,
    combined_effect_shape,
    permutation_test,
)
from .individual import (
    AssessmentDocument,
    AsymmetryReport,
    ClosestControlResult,
    ControlModel,
    assess_individual,
    asymmetry_report,
    empirical_percentile,
    fit_control_model,
    integrated_assessment,
    reflect_relabel,
)
from .mesh import (
    AreaWeights,
    BilateralPairing,
    NumericalFailure,
    ShapeSample,
    SurfaceMesh,
    shape_difference_field,
    triangle_areas,
    vertex_areas,
    vertex_normals,
)
from .registration import (
    GpaResult,
    OpaFit,
    SimilarityTransform,
    tangent_coordinates,
    vec,
    vec_inverse,
    weighted_gpa,
    weighted_opa,
)
from .synth import SynthConfig, SynthGroundTruth, planted_modes, synth_base_mesh, synth_cohort
from .warp import WarpField, apply_warp, fit_tps, radial_basis

__version__ = "0.1.0"

__all__ = [
    "AreaWeights",
    "AssessmentDocument",
    "AsymmetryReport",
    "BilateralPairing",
    "ClosestControlResult",
    "ControlModel",
    "FpcaModel",
    "GpaResult",
    "GrandTour",
    "GroupTestReport",
    "NumericalFailure",
    "OpaFit",
    "ShapeSample",
    "SimilarityTransform",
    "SubspaceEffect",
    "SurfaceMesh",
    "SynthConfig",
    "SynthGroundTruth",
    "WarpField",
    "affine_nonaffine_split",
    "align_component_signs",
    "apply_warp",
    "assess_individual",
    "asymmetry_report",
    "chi_square_quantile",
    "combined_effect_shape",
    "component_shape",
    "empirical_percentile",
    "fit_control_model",
    "fit_fpca",
    "fit_tps",
    "grand_tour",
    "integrated_assessment",
    "permutation_test",
    "planted_modes",
    "radial_basis",
    "reconstruct",
    "reflect_relabel",
    "scores",
    "scores_from_tangent",
    "shape_difference_field",
    "synth_base_mesh",
    "synth_cohort",
    "tangent_coordinates",
    "triangle_areas",
    "variability_map",
    "vec",
    "vec_inverse",
    "vertex_areas",
    "vertex_normals",
    "weighted_gpa",
    "weighted_opa",
]
