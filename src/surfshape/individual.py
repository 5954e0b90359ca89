"""Individual-level assessment: bilateral asymmetry, closest controls, integrated reports.

Asymmetry compares a shape with its Procrustes-matched mirror image. The
closest-control construction shrinks an individual toward the control mean
until it sits on the control population's 95% boundary, separately in
component space (chi-square ellipsoid) and in the residual space left over
by the components.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chi2 import chi_square_quantile
from .fpca import FpcaModel, check_component_rule, fit_fpca, scores_from_tangent
from .mesh import _BLOCK, AreaWeights, BilateralPairing, ShapeSample, SurfaceMesh, shape_difference_field, vertex_areas
from .mesh import _in_shares, _region_indices
from .registration import SimilarityTransform, _tangent_over_stack, tangent_coordinates, vec_inverse
from .registration import weighted_gpa, weighted_opa


@dataclass(frozen=True)
class AsymmetryReport:
    """Asymmetry scores (mm) for a shape: global, per region, and per vertex."""

    global_score: float
    region_scores: dict[str, float]
    matched_reflection: np.ndarray
    per_vertex_distance: np.ndarray

    @property
    def scores(self) -> dict[str, float]:
        """The global and region scores under one key set, as control tables keep them."""
        return {"global": self.global_score, **self.region_scores}


@dataclass(frozen=True)
class ControlModel:
    """Control-population model for closest-control assessment.

    Components are fitted on controls only; ``nu`` (positive) holds per-vertex
    standard deviations of control residual lengths, ``control_r`` (not
    negative) the controls' standardized residual scores, and
    ``control_asymmetry`` one finite, non-negative asymmetry score per control
    for each region it names. Derived on construction: ``p``, the component
    count; ``q95``, the 95th percentile of ``control_r``; and
    ``chi2_threshold``, the 95% chi-square bound for the component-space
    Mahalanobis distance with p degrees of freedom.
    """

    fpca: FpcaModel
    p: int = field(init=False)
    chi2_threshold: float = field(init=False)
    nu: np.ndarray
    q95: float = field(init=False)
    control_d: np.ndarray
    control_r: np.ndarray
    triangles: np.ndarray
    control_asymmetry: dict[str, np.ndarray] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        p = self.fpca.n_components
        if p < 1:
            raise ValueError("a control model needs at least one component")
        j = self.fpca.mean.shape[0]
        if np.shape(self.nu) != (j,):
            raise ValueError(f"nu must have {j} entries, one per vertex, got shape {np.shape(self.nu)}")
        if np.ndim(self.control_d) != 1 or np.shape(self.control_d) != np.shape(self.control_r):
            raise ValueError(
                f"control_d {np.shape(self.control_d)} and control_r {np.shape(self.control_r)} "
                "must be equal-length vectors"
            )
        if np.size(self.control_r) == 0:
            raise ValueError("control_r is empty: the 95th percentile needs at least one control")
        bad = np.flatnonzero(~(np.asarray(self.nu) > 0))
        if bad.size:
            raise ValueError(f"nu must be positive: vertex {bad[0]} has {float(self.nu[bad[0]])!r}")
        bad = np.flatnonzero(~(np.asarray(self.control_r) >= 0))
        if bad.size:
            raise ValueError(f"control_r must be non-negative: control {bad[0]} has {float(self.control_r[bad[0]])!r}")
        for region, scores in (self.control_asymmetry or {}).items():
            scores = np.asarray(scores, dtype=float)
            if scores.shape != np.shape(self.control_r) or not (np.isfinite(scores) & (scores >= 0)).all():
                raise ValueError(f"control_asymmetry region {region!r} must hold {np.size(self.control_r)} finite, "
                                 "non-negative scores, one per control")
        self.mean_mesh()  # the triangles must index the mean's vertices
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "chi2_threshold", chi_square_quantile(p))
        object.__setattr__(self, "q95", float(np.percentile(self.control_r, 95.0)))

    def mean_mesh(self) -> SurfaceMesh:
        return SurfaceMesh(self.fpca.mean, self.triangles)


@dataclass(frozen=True)
class ClosestControlResult:
    """Closest-control decomposition of one case against a ControlModel."""

    d: float
    alpha1: float
    r: float
    alpha2: float
    cc_p: np.ndarray
    cc: np.ndarray
    within_component_range: bool
    within_residual_range: bool
    scores: np.ndarray
    aligned_case: np.ndarray
    transform: SimilarityTransform


@dataclass(frozen=True)
class AssessmentDocument:
    """Machine-readable integrated assessment plus its meshes: name -> (mesh, field to paint or None)."""

    document: dict
    artifacts: dict[str, tuple[SurfaceMesh, np.ndarray | None]]


def reflect_relabel(shape: np.ndarray, pairing: BilateralPairing) -> np.ndarray:
    """Mirror a shape through the plane x = 0 and swap left/right vertex labels.

    The mirror image is Procrustes-matched with the orthogonal part left free,
    so any other plane through the origin gives the same matched shape.
    """
    shape = np.asarray(shape, dtype=float)
    if shape.ndim != 2 or shape.shape != (pairing.pair.size, 3):
        raise ValueError(f"shape must be ({pairing.pair.size}, 3), got {shape.shape}")
    return (shape * np.array([-1.0, 1.0, 1.0]))[pairing.pair]


def _match_mirror(
    mesh: SurfaceMesh, pairing: BilateralPairing, weights: AreaWeights, allow_scaling: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match the relabelled mirror image onto ``mesh`` under ``weights``.

    Returns the matched reflection, the squared per-vertex distances to it and
    the area weights of the surface halfway between the two.
    """
    x = mesh.vertices
    mirrored = reflect_relabel(x, pairing)
    # the configuration is already reflected, so leave the orthogonal part free
    matched = weighted_opa(mirrored, x, weights, allow_scaling=allow_scaling, allow_reflection=True).fitted
    halfway = vertex_areas(mesh.with_vertices(0.5 * (x + matched))).weights
    displacement = x - matched
    return matched, np.einsum("jk,jk->j", displacement, displacement), halfway


def _region_rms(sq: np.ndarray, areas: np.ndarray, name: str = "global") -> float:
    """Area-weighted RMS of a region's per-vertex squared distances; a region
    of zero area is refused by its ``name``."""
    denom = areas.sum()
    if denom <= 0:
        raise ValueError(f"region {name!r} has zero surface area")
    return float(np.sqrt(np.einsum("j,j->", areas, sq) / denom))


def _checked_regions(
    regions: dict[str, np.ndarray] | None, n_vertices: int, register_per_region: bool = False
) -> dict[str, np.ndarray]:
    """Each region's distinct indices, checked against ``n_vertices`` (None is no
    regions): the name ``global`` is reserved, and a region needs a vertex, or 3
    to be registered on its own."""
    regions = regions or {}
    if "global" in regions:
        raise ValueError("region name 'global' is reserved for the whole-surface score")
    size = 3 if register_per_region else 1
    return {name: _region_indices(idx, n_vertices, name, size) for name, idx in regions.items()}


def empirical_percentile(value: float, reference: np.ndarray) -> float:
    """Percentile of ``value`` in an empirical distribution, interpolating linearly
    between order statistics."""
    ref = np.sort(np.asarray(reference, dtype=float))
    if ref.size == 0:
        raise ValueError("empty reference sample")
    if ref.size == 1:
        return 50.0 if value == ref[0] else (0.0 if value < ref[0] else 100.0)
    return float(np.interp(value, ref, np.linspace(0.0, 100.0, ref.size)))


def asymmetry_report(
    mesh: SurfaceMesh,
    pairing: BilateralPairing,
    regions: dict[str, np.ndarray] | None = None,
    allow_scaling: bool = True,
    register_per_region: bool = False,
) -> AsymmetryReport:
    """Global plus per-region asymmetry scores: RMS distances (mm) to the
    matched mirror image.

    The mirror image is reflected, relabelled and Procrustes-matched onto the
    original. The squared distances are averaged with area weights taken from
    the surface halfway between the shape and its matched reflection, then
    square-rooted. By default one global registration is shared by all regions;
    ``register_per_region`` instead re-matches the mirror image using each
    region's own vertices and weights. The regions are checked by
    :func:`_checked_regions` before any matching.
    """
    regions = _checked_regions(regions, mesh.n_vertices, register_per_region)
    areas = vertex_areas(mesh)
    matched, sq, halfway = _match_mirror(mesh, pairing, areas, allow_scaling)
    global_score = _region_rms(sq, halfway)
    region_scores: dict[str, float] = {}
    for name, idx in regions.items():
        if register_per_region:
            region_w = np.zeros_like(areas.weights)
            region_w[idx] = areas.weights[idx]
            _, region_sq, region_halfway = _match_mirror(mesh, pairing, AreaWeights(region_w), allow_scaling)
            region_scores[name] = _region_rms(region_sq[idx], region_halfway[idx], name)
        else:
            region_scores[name] = _region_rms(sq[idx], halfway[idx], name)
    return AsymmetryReport(global_score, region_scores, matched, np.sqrt(sq))


def _residual_lengths(tangent_rows: np.ndarray, model: FpcaModel, score_rows: np.ndarray) -> np.ndarray:
    """Per-vertex Euclidean lengths of the residual after removing the component fit.

    The vertices go in blocks of _BLOCK // 3 (_BLOCK tangent columns). One
    (n, _BLOCK // 3) buffer holds a coordinate's fit, residual and squares, summed
    as (x^2 + y^2) + z^2, np.linalg.norm's order. Memory: the (n, J) output (a
    third of a stack) and the buffer.
    """
    j = tangent_rows.shape[1] // 3
    lengths = np.zeros((len(tangent_rows), j))
    buffer = np.empty((len(tangent_rows), min(j, _BLOCK // 3)))
    for start in range(0, j, _BLOCK // 3):
        out = lengths[:, start : start + _BLOCK // 3]
        for offset in (0, j, 2 * j):
            cols = slice(offset + start, offset + start + out.shape[1])
            residual = np.matmul(score_rows, model.eigenfunctions[:, cols], out=buffer[:, : out.shape[1]])
            np.subtract(tangent_rows[:, cols], residual, out=residual)
            out += np.square(residual, out=residual)
        np.sqrt(out, out=out)
    return lengths


def _measure(model: FpcaModel, tangent_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component scores, Mahalanobis distances d and per-vertex residual lengths of
    tangent rows in ``model``'s spaces: one definition for the controls and a case."""
    score_rows = scores_from_tangent(model, tangent_rows)
    d = np.einsum("nk,k->n", score_rows**2, 1.0 / model.eigenvalues)
    return score_rows, d, _residual_lengths(tangent_rows, model, score_rows)


def sanitize_residual_sds(nu: np.ndarray, tiny: float) -> tuple[np.ndarray, tuple[str, ...]]:
    """Replace degenerate per-vertex residual sds so standardization never divides by ~0.

    Vertices whose sd is at or below ``tiny`` get the minimum non-degenerate
    sd; if every vertex is degenerate the sds become 1 (unstandardized
    lengths). Returns the cleaned sds and any warnings raised.
    """
    degenerate = nu <= tiny
    if not degenerate.any():
        return nu, ()
    positive = nu[~degenerate]
    if positive.size == 0:
        return np.ones_like(nu), ("controls have no residual variation; nu set to 1",)
    message = (
        f"{int(degenerate.sum())} vertices had no residual variation; "
        "replaced by the minimum positive value"
    )
    return np.where(degenerate, positive.min(), nu), (message,)


def fit_control_model(
    controls: ShapeSample,
    variance_threshold: float = 0.80,
    pairing: BilateralPairing | None = None,
    regions: dict[str, np.ndarray] | None = None,
) -> ControlModel:
    """Fit the closest-control machinery on a control cohort.

    Controls are registered internally; the component count is the smallest
    one explaining at least ``variance_threshold`` of the weighted variance.
    With a bilateral ``pairing``, the controls' global and ``regions``
    asymmetry scores are recorded for percentile lookups, the controls split
    over the CPUs by :func:`~surfshape.mesh._in_shares`; regions without a
    pairing are refused.

    Memory beyond the input meshes, in stacks: GPA's stack (1), then the tangent
    rows written over it, plus the fit's block (8,192 / 3J) or the residual
    lengths (1/3) and their block (8,192 / 9J): 1.48 at J = 16,386, n = 40.
    """
    if controls.n_shapes < 5:
        raise ValueError("need at least 5 control shapes")
    # refuse a bad component rule, pairing or region map before the fit
    check_component_rule(variance_threshold, "variance_threshold")
    if pairing is None and regions:
        raise ValueError("regions given without a pairing: control asymmetry is scored only with one")
    if pairing is not None and pairing.pair.size != controls.n_vertices:
        raise ValueError(f"pairing covers {pairing.pair.size} vertices, the controls {controls.n_vertices}")
    regions = _checked_regions(regions, controls.n_vertices)
    gpa = weighted_gpa(controls)
    tangent = _tangent_over_stack(gpa)
    model = fit_fpca(tangent, gpa.mean_weights, k=variance_threshold, mean_shape=gpa.mean)
    _, d, lengths = _measure(model, tangent)
    del gpa, tangent  # release the stack before the statistics of the lengths
    nu = lengths.std(axis=0, ddof=1)

    # residual sds at alignment-rounding scale are degenerate, not informative
    tiny = 1e-12 * np.sqrt(model.total_variance / model.mean.shape[0])
    nu, warnings = sanitize_residual_sds(nu, tiny)
    lengths /= nu
    r = lengths.mean(axis=1)

    control_asym = None
    if pairing is not None:
        def score_share(indices) -> list[dict[str, float]]:
            # only the scores of each report are kept, not its per-vertex arrays
            return [asymmetry_report(controls.meshes[i], pairing, regions).scores for i in indices]

        scores = _in_shares(controls.n_shapes, score_share)
        control_asym = {name: np.sort([row[name] for row in scores]) for name in ("global", *regions)}

    return ControlModel(
        fpca=model,
        nu=nu,
        control_d=d,
        control_r=r,
        triangles=controls.meshes[0].triangles,
        control_asymmetry=control_asym,
        warnings=tuple(warnings),
    )


def assess_individual(model: ControlModel, case: SurfaceMesh) -> ClosestControlResult:
    """Closest-control assessment of one case against a fitted control model.

    The case is registered onto the control mean, scored in the control
    component space, and shrunk (component scores toward zero, residual toward
    the mean) exactly as far as needed to reach the controls' 95% ranges.
    """
    if case.n_vertices != model.fpca.mean.shape[0]:
        raise ValueError(
            f"case has {case.n_vertices} vertices, control model expects {model.fpca.mean.shape[0]}"
        )
    fit = weighted_opa(case.vertices, model.fpca.mean, model.fpca.weights, allow_scaling=True)
    aligned = fit.fitted
    tangent = tangent_coordinates(aligned, model.fpca.mean)
    score_rows, d_rows, lengths = _measure(model.fpca, tangent)
    v, d = score_rows[0], float(d_rows[0])
    within_components = d <= model.chi2_threshold
    alpha1 = 1.0 if within_components else float(np.sqrt(model.chi2_threshold / d))
    cc_p = model.fpca.mean + vec_inverse((alpha1 * v) @ model.fpca.eigenfunctions)

    r = float((lengths[0] / model.nu).mean())
    within_residual = r <= model.q95
    alpha2 = 1.0 if within_residual else float(model.q95 / r)
    residual = vec_inverse(tangent[0] - v @ model.fpca.eigenfunctions)
    # inside both ranges the case is its own closest control; its parts' sum only rounds back to it
    cc = aligned.copy() if within_components and within_residual else cc_p + alpha2 * residual

    return ClosestControlResult(
        d=d,
        alpha1=alpha1,
        r=r,
        alpha2=alpha2,
        cc_p=cc_p,
        cc=cc,
        within_component_range=bool(within_components),
        within_residual_range=bool(within_residual),
        scores=v,
        aligned_case=aligned,
        transform=fit.transform,
    )


def integrated_assessment(
    model: ControlModel,
    pre: SurfaceMesh,
    post: SurfaceMesh,
    pairing: BilateralPairing,
    regions: dict[str, np.ndarray] | None = None,
) -> AssessmentDocument:
    """Bundle asymmetry and closest-control findings for pre/post shapes.

    The document is plain JSON-serializable data; artifacts carry the aligned
    case, its closest control, and painted difference/asymmetry fields for
    each time point. Each score whose key the controls were scored on gets
    its control percentile.
    """
    regions = _checked_regions(regions, pre.n_vertices)
    table = model.control_asymmetry or {}

    def scored(key: str, score: float) -> dict:
        percentile = {"control_percentile": empirical_percentile(score, table[key])} if key in table else {}
        return {"score": score, **percentile}

    document: dict = {
        "schema_version": 1,
        "regions": sorted(regions),
        "chi2_threshold": model.chi2_threshold,
        "q95": model.q95,
        "p": model.p,
        "timepoints": {},
    }
    artifacts: dict[str, tuple[SurfaceMesh, np.ndarray | None]] = {}
    for name, mesh in (("pre", pre), ("post", post)):
        asym = asymmetry_report(mesh, pairing, regions)
        cc = assess_individual(model, mesh)
        case_mesh = mesh.with_vertices(cc.aligned_case)
        cc_mesh = mesh.with_vertices(cc.cc)
        normal_field = shape_difference_field(case_mesh, cc_mesh, "normal")
        entry = {
            "asymmetry": {
                "global": scored("global", asym.global_score),
                "regions": {r: scored(r, asym.region_scores[r]) for r in sorted(regions)},
            },
            "closest_control": {
                "d": cc.d,
                "alpha1": cc.alpha1,
                "r": cc.r,
                "alpha2": cc.alpha2,
                "within_component_range": cc.within_component_range,
                "within_residual_range": cc.within_residual_range,
            },
            "difference_to_closest_control": {
                "normal_min": float(normal_field.min()),
                "normal_max": float(normal_field.max()),
                "normal_rms": float(np.sqrt(np.mean(normal_field**2))),
            },
        }
        document["timepoints"][name] = entry
        artifacts[f"{name}_case"] = (case_mesh, None)
        artifacts[f"{name}_closest_control"] = (cc_mesh, None)
        artifacts[f"{name}_vs_closest_control_normal"] = (case_mesh, normal_field)
        artifacts[f"{name}_asymmetry_distance"] = (mesh, asym.per_vertex_distance)
    return AssessmentDocument(document=document, artifacts=artifacts)
