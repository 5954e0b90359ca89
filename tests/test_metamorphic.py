"""Metamorphic relations of the whole pipeline.

The statistics are area-weighted surface integrals, so they cannot depend on
how a mesh's vertices and triangles are numbered. One random renumbering is
applied to every shape of a cohort and to its sidecars: the vertices are
permuted, the triangles are permuted, and each triangle's corners are rotated
(which keeps its orientation). The pairing and the regions follow the vertex
permutation. Registration, components, both permutation tests, the control
model and an asymmetry report are then compared between the two numberings.

Tolerances. The cohort has J = 1,026 vertices and 20 shapes in two groups of
10, a 3 sd shift on mode 1, noise 0.01, nuisance 15 deg / 0.5 / 0.1 and
asymmetry 0.02. Over seeds 1-30, at 1 and 2 BLAS threads alike, the largest
difference relative to the largest magnitude was:

- GPA objective 1.7e-13, per-vertex asymmetry distances 5.7e-14;
- group-shape-space statistics 2.1e-14, control ``r`` 3.0e-14, control ``d``
  5.8e-15, ``q95`` 7.5e-15, asymmetry scores 4.7e-15;
- eigenvalues 2.7e-15, tangent-PCA statistics 3.3e-15, control asymmetry
  scores 2.8e-15.

GPA iteration counts and every p-value were equal. Each tolerance below is
at least 3 times the largest difference measured for its quantity: 1e-12 for
the first group, 1e-13 for the second and 1e-14 for the third.

Two more relations compare GPA's objective and iteration count, the FPCA
eigenvalues, both tests' observed statistics and every shape's asymmetry
scores on the same cohorts:

- Mirroring every shape through x = 0 and relabelling it with the pairing
  (vertex j takes the mirrored coordinates of vertex pair[j]) maps the
  mirror-symmetric base onto itself, so every integral is unchanged. The
  p-values are compared too, since the shapes keep their order.
- Reordering the shapes within each group leaves the group means and the
  cohort's covariance unchanged. GPA starts from the first shape, so the
  reordering keeps it first: moving it changes the start, and with it the
  iteration count on some seeds and the statistics at the level of GPA's
  stop tolerance (up to 1.4e-10 relative on seeds 1-6).

Over seeds 1-20, at 1 and 2 BLAS threads, the largest relative differences
were: objective 1.1e-13 (mirror) and 5.7e-14 (reorder); group-shape-space
statistics 2.3e-14; tangent-PCA statistics 6.4e-15; eigenvalues 1.5e-15;
asymmetry scores 2.4e-15 (mirror) and 0 (reorder). Iteration counts were
equal, and so were the mirror's p-values. The tolerances are the groups
above, each at least 3 times its measured maximum.
"""
from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import surfshape as ss
from surfshape.cli import main
from surfshape.fpca import fit_fpca
from surfshape.groupcompare import permutation_test
from surfshape.individual import asymmetry_report, fit_control_model
from surfshape.io import (
    load_mesh_directory, mesh_names, pairing_table, read_pairing, read_regions, regions_table, write_files,
)
from surfshape.registration import tangent_coordinates, weighted_gpa


def cohort(seed):
    config = ss.SynthConfig(
        resolution=4, group_sizes=(10, 10), group_shift_component=1, group_shift_sd=3.0, noise_sd=0.01,
        nuisance_rotation_deg=15, nuisance_translation=0.5, nuisance_log_scale=0.1, asymmetry_magnitude=0.02,
        seed=seed,
    )
    sample, truth = ss.synth_cohort(config)
    return sample, truth.pairing, truth.base_mesh.regions


def renumbered(sample, pairing, regions, rng):
    """The cohort, pairing and regions under one random vertex permutation,
    triangle permutation and rotation of each triangle's corners; and the
    permutation, new vertex k being old vertex perm[k]."""
    reference = sample.meshes[0]
    perm = rng.permutation(reference.n_vertices)
    new_index = np.argsort(perm)
    triangles = new_index[reference.triangles][rng.permutation(reference.n_triangles)]
    corners = (np.arange(3) + rng.integers(0, 3, reference.n_triangles)[:, None]) % 3
    triangles = np.take_along_axis(triangles, corners, axis=1)
    regions = {name: new_index[idx] for name, idx in regions.items()}
    first = ss.SurfaceMesh(reference.vertices[perm], triangles, regions)
    meshes = tuple(first.with_vertices(mesh.vertices[perm]) for mesh in sample.meshes)
    pairing = ss.BilateralPairing(new_index[pairing.pair[perm]])
    return ss.ShapeSample(meshes, labels=sample.labels), pairing, regions, perm


def registered(sample):
    """GPA, its tangent coordinates, and the tangent-PCA and group-shape-space tests."""
    gpa = weighted_gpa(sample)
    tangent = tangent_coordinates(gpa.aligned, gpa.mean)
    tpca, gss = (
        permutation_test(tangent, sample.labels, p=3, weights=gpa.mean_weights, n_perm=200, seed=1, mode=mode)
        for mode in ("tangent_pca", "group_shape_space")
    )
    return gpa, tangent, tpca, gss


def results(sample, pairing, regions):
    """Every compared quantity, keyed by its tolerance group (None: exactly equal)."""
    gpa, tangent, tpca, gss = registered(sample)
    model = fit_control_model(ss.ShapeSample(sample.meshes[:10]), pairing=pairing, regions=regions)
    report = asymmetry_report(sample.meshes[12], pairing, regions)
    return {
        "iterations": (None, gpa.iterations),
        "p_values": (None, [np.r_[t.global_p, t.component_p] for t in (tpca, gss)]),
        "objective": (1e-12, gpa.objective_trace[-1]),
        "per_vertex_asymmetry": (1e-12, report.per_vertex_distance),
        "group_shape_space_stats": (1e-13, np.r_[gss.global_stat, gss.component_stats]),
        "control_r": (1e-13, np.sort(model.control_r)),
        "control_d": (1e-13, np.sort(model.control_d)),
        "q95": (1e-13, model.q95),
        "asymmetry_scores": (1e-13, [report.scores[name] for name in sorted(report.scores)]),
        "eigenvalues": (1e-14, fit_fpca(tangent, gpa.mean_weights, k=10).eigenvalues),
        "tangent_pca_stats": (1e-14, np.r_[tpca.global_stat, tpca.component_stats]),
        "control_asymmetry": (1e-14, np.concatenate([scores for _, scores in sorted(model.control_asymmetry.items())])),
    }


def cohort_results(sample, pairing, regions):
    """GPA, components, both tests' statistics and p-values, and every shape's
    asymmetry scores, keyed like :func:`results`."""
    gpa, tangent, tpca, gss = registered(sample)
    reports = [asymmetry_report(mesh, pairing, regions).scores for mesh in sample.meshes]
    return {
        "iterations": (None, gpa.iterations),
        "p_values": (None, [np.r_[t.global_p, t.component_p] for t in (tpca, gss)]),
        "objective": (1e-12, gpa.objective_trace[-1]),
        "group_shape_space_stats": (1e-13, np.r_[gss.global_stat, gss.component_stats]),
        "tangent_pca_stats": (1e-13, np.r_[tpca.global_stat, tpca.component_stats]),
        "eigenvalues": (1e-14, fit_fpca(tangent, gpa.mean_weights, k=10).eigenvalues),
        "asymmetry_scores": (1e-14, [[scores[name] for name in sorted(scores)] for scores in reports]),
    }


def assert_agree(before, after):
    for key, (tol, value) in before.items():
        other = after[key][1]
        if tol is None:
            np.testing.assert_array_equal(value, other, err_msg=key)
        else:
            value, other = np.asarray(value, dtype=float), np.asarray(other, dtype=float)
            assert np.max(np.abs(value - other)) <= tol * np.max(np.abs(value)), key


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_vertex_and_triangle_numbering_do_not_matter(seed):
    sample, pairing, regions = cohort(seed)
    before = results(sample, pairing, regions)
    *moved, perm = renumbered(sample, pairing, regions, np.random.default_rng(seed + 100))
    after = results(*moved)
    tol, distances = after["per_vertex_asymmetry"]
    after["per_vertex_asymmetry"] = (tol, distances[np.argsort(perm)])  # back in the original numbering
    assert_agree(before, after)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_mirroring_the_cohort_changes_nothing(seed):
    sample, pairing, regions = cohort(seed)
    flip = np.array([-1.0, 1.0, 1.0])
    mirrored = tuple(mesh.with_vertices((mesh.vertices * flip)[pairing.pair]) for mesh in sample.meshes)
    assert_agree(cohort_results(sample, pairing, regions),
                 cohort_results(ss.ShapeSample(mirrored, labels=sample.labels), pairing, regions))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_shape_order_within_each_group_does_not_matter(seed):
    sample, pairing, regions = cohort(seed)
    rng = np.random.default_rng(seed + 200)
    n_a = sample.labels.count("A")
    order = np.r_[0, 1 + rng.permutation(n_a - 1), n_a + rng.permutation(sample.n_shapes - n_a)]  # GPA starts at 0
    before = cohort_results(sample, pairing, regions)
    after = cohort_results(ss.ShapeSample(tuple(sample.meshes[i] for i in order), labels=sample.labels),
                           pairing, regions)
    del before["p_values"], after["p_values"]  # the permutations draw labels by position
    tol, scores = after["asymmetry_scores"]
    after["asymmetry_scores"] = (tol, np.asarray(scores)[np.argsort(order)])
    assert_agree(before, after)


def small_cohort(seed, group_sizes):
    config = ss.SynthConfig(
        resolution=2, group_sizes=group_sizes, group_shift_component=1, group_shift_sd=1.0, noise_sd=0.01,
        nuisance_rotation_deg=15, nuisance_translation=0.5, seed=seed,
    )
    return ss.synth_cohort(config)[0]


@pytest.mark.parametrize("mode", ["tangent_pca", "group_shape_space"])
@pytest.mark.parametrize("group_sizes", [(10, 10), (8, 12), (12, 8)], ids=["10-10", "8-12", "12-8"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_swapping_the_group_labels_changes_nothing(seed, group_sizes, mode):
    """Each permutation draws the smaller group, whichever name sorts first, so
    the swapped labelling reads the same draws, statistics and p-values bit for
    bit: a swapped split's mean difference is exactly -d."""
    sample = small_cohort(seed, group_sizes)
    gpa = weighted_gpa(sample)
    tangent = tangent_coordinates(gpa.aligned, gpa.mean)
    swapped = [{"A": "B", "B": "A"}[label] for label in sample.labels]
    before, after = (
        permutation_test(tangent, labels, p=3, weights=gpa.mean_weights, n_perm=200, seed=seed, mode=mode)
        for labels in (sample.labels, swapped)
    )
    for name in ("global_stat", "component_stats", "global_p", "component_p", "permuted_global",
                 "permuted_components", "significant"):
        np.testing.assert_array_equal(getattr(before, name), getattr(after, name), err_msg=name)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_renumbering_carries_the_weight_overrides(seed):
    """Weight overrides follow the vertex renumbering like the pairing and the
    regions. Over seeds 1-30, at 1 and 2 BLAS threads, 40 overrides drawn
    uniformly in [0, 2/J) gave equal iteration counts, objectives within
    2.7e-13 and eigenvalues within 1.7e-15 relative: the 1e-12 and 1e-14
    groups above."""
    sample, pairing, regions = cohort(seed)
    rng = np.random.default_rng(seed + 300)
    chosen = rng.choice(sample.n_vertices, 40, replace=False)
    overrides = dict(zip(chosen.tolist(), rng.uniform(0.0, 2.0 / sample.n_vertices, chosen.size).tolist()))
    moved, _, _, perm = renumbered(sample, pairing, regions, np.random.default_rng(seed + 100))
    new_index = np.argsort(perm)
    results = []
    for cohort_, weights in ((sample, overrides), (moved, {int(new_index[j]): w for j, w in overrides.items()})):
        gpa = weighted_gpa(cohort_, weight_overrides=weights)
        assert all(gpa.mean_weights.weights[j] == w for j, w in weights.items())
        tangent = tangent_coordinates(gpa.aligned, gpa.mean)
        results.append({
            "iterations": (None, gpa.iterations),
            "objective": (1e-12, gpa.objective_trace[-1]),
            "eigenvalues": (1e-14, fit_fpca(tangent, gpa.mean_weights, k=10).eigenvalues),
        })
    assert_agree(*results)


def cli_results(root):
    """From the cohort files under ``root``: both ``compare`` modes' p-values,
    significant sets and statistics, and the scores of ``asymmetry --regions``,
    keyed like :func:`results`."""
    files = {name: str(root / name) for name in ("meshes", "labels.csv", "pairing.csv", "regions.csv")}
    keyed = {}
    for mode, tol in (("tangent_pca", 1e-14), ("group_shape_space", 1e-13)):
        out = root / f"compare-{mode}"
        assert main(["compare", "--meshes", files["meshes"], "--labels", files["labels.csv"], "--p", "3",
                     "--n-perm", "200", "--seed", "1", "--mode", mode, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        keyed[f"{mode}_p_values"] = (None, [report["global_p"], *report["component_p"]])
        keyed[f"{mode}_significant"] = (None, report["significant_components"])
        keyed[f"{mode}_stats"] = (tol, [report["global_stat"], *report["component_stats"]])
    assert main(["asymmetry", "--meshes", files["meshes"], "--pairing", files["pairing.csv"],
                 "--regions", files["regions.csv"], "--out", str(root / "asymmetry")]) == 0
    rows = (root / "asymmetry" / "asymmetry.csv").read_text().splitlines()[1:]
    keyed["asymmetry_scores"] = (1e-13, [float(row.split(",")[2]) for row in rows])
    return keyed


@pytest.mark.parametrize("seed", [1, 2])
def test_the_cli_reads_renumbered_files_the_same(seed, tmp_path):
    """The renumbering relation through the files: every OBJ of a J = 258 cohort,
    its pairing.csv and its regions.csv are renumbered and written again. The
    vertex lines keep their 9-digit numbers, so the tolerances are the library
    relation's: the p-values and significant sets are equal, the statistics
    agree to 1e-13 (group shape space) and 1e-14 (tangent PCA), and the
    asymmetry scores to 1e-13. Over seeds 1-10, at 1 and 2 BLAS threads, every
    p-value was equal and the largest relative differences were 2.0e-14, 2.9e-15
    and 2.1e-15."""
    original, moved = tmp_path / "original", tmp_path / "renumbered"
    assert main(["simulate", "--resolution", "3", "--group-sizes", "10,10", "--shift-component", "1",
                 "--shift-sd", "3", "--noise-sd", "0.01", "--nuisance-rotation", "15", "--nuisance-translation",
                 "0.5", "--nuisance-log-scale", "0.1", "--asymmetry", "0.02", "--seed", str(seed),
                 "--out", str(original)]) == 0
    names = mesh_names(original / "meshes")
    meshes = load_mesh_directory(original / "meshes", names)
    j = meshes[0].n_vertices
    sample, pairing, regions, _ = renumbered(
        ss.ShapeSample(tuple(meshes)), read_pairing(original / "pairing.csv", j),
        read_regions(original / "regions.csv", j), np.random.default_rng(seed + 100),
    )
    (moved / "meshes").mkdir(parents=True)
    write_files(zip((moved / "meshes" / name for name in names), sample.meshes))
    write_files([(moved / "pairing.csv", pairing_table(pairing))])
    write_files([(moved / "regions.csv", regions_table(regions))])
    shutil.copy(original / "labels.csv", moved / "labels.csv")
    for name in names:
        before, after = ((root / "meshes" / name).read_text().splitlines() for root in (original, moved))
        assert before != after and sorted(before[:j]) == sorted(after[:j])
    assert_agree(cli_results(original), cli_results(moved))
