import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import surfshape as ss
from conftest import assert_no_child_left, random_rotation, sphere_with_pairing
from surfshape.chi2 import chi_square_quantile
from surfshape.individual import _residual_lengths
from surfshape.io import load_model, write_files


def brute_force_asymmetry(mesh, pairing, region=None):
    """Straight-line recomputation of the asymmetry score, registration included.

    Independent code path: explicit reflection matrix, its own weighted OPA
    from the closed-form solution, its own area computation.
    """
    x = mesh.vertices
    n = np.array([1.0, 0.0, 0.0])  # the plane x = 0
    reflected = x @ (np.eye(3) - 2.0 * np.outer(n, n))
    mirrored = reflected[pairing.pair]

    def areas(vertices):
        tri = vertices[mesh.triangles]
        a = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
        w = np.zeros(len(vertices))
        for col in range(3):
            np.add.at(w, mesh.triangles[:, col], a / 3.0)
        return w

    if np.array_equal(mirrored, x):
        matched = x
    else:
        a = areas(x)
        cx = a @ mirrored / a.sum()
        cy = a @ x / a.sum()
        xc, yc = mirrored - cx, x - cy
        u, s, vt = np.linalg.svd(xc.T @ (a[:, None] * yc))
        gamma = u @ vt  # reflection already applied; leave the orthogonal part free
        beta = s.sum() / np.einsum("j,jk,jk->", a, xc, xc)
        matched = beta * (mirrored - cx) @ gamma + cy
    w = areas(0.5 * (x + matched))
    sq = ((x - matched) ** 2).sum(axis=1)
    idx = np.arange(len(x)) if region is None else np.asarray(region)
    return np.sqrt(w[idx] @ sq[idx] / w[idx].sum())


def perturbed_mesh(magnitude=0.08, vertex=None):
    mesh, pairing = sphere_with_pairing()
    off_midline = np.flatnonzero(pairing.pair != np.arange(mesh.n_vertices))
    j = off_midline[3] if vertex is None else vertex
    vertices = mesh.vertices.copy()
    vertices[j, 0] += magnitude
    vertices[pairing.pair[j], 0] -= magnitude / 3.0
    return mesh.with_vertices(vertices), pairing


class TestReflectRelabel:
    def test_symmetric_mesh_is_fixed_point(self):
        mesh, pairing = sphere_with_pairing()
        np.testing.assert_array_equal(ss.reflect_relabel(mesh.vertices, pairing), mesh.vertices)

    def test_involution(self):
        mesh, pairing = perturbed_mesh()
        once = ss.reflect_relabel(mesh.vertices, pairing)
        twice = ss.reflect_relabel(once, pairing)
        np.testing.assert_array_equal(twice, mesh.vertices)

    def test_displacement_moves_to_partner(self):
        mesh, pairing = sphere_with_pairing()
        off = np.flatnonzero(pairing.pair != np.arange(mesh.n_vertices))
        j = off[0]
        partner = pairing.pair[j]
        displaced = mesh.vertices.copy()
        displaced[j] += np.array([0.0, 0.2, 0.1])
        out = ss.reflect_relabel(displaced, pairing)
        delta = out - mesh.vertices
        assert np.abs(delta[partner] - np.array([0.0, 0.2, 0.1])).max() < 1e-15
        delta[partner] = 0
        assert np.abs(delta).max() < 1e-15


class TestAsymmetryScore:
    def test_symmetric_mesh_scores_exactly_zero(self):
        mesh, pairing = sphere_with_pairing()
        report = ss.asymmetry_report(mesh, pairing)
        assert report.global_score == 0.0
        np.testing.assert_array_equal(report.per_vertex_distance, np.zeros(mesh.n_vertices))
        np.testing.assert_array_equal(report.matched_reflection, mesh.vertices)

    @pytest.mark.parametrize("magnitude", [0.02, 0.08, 0.2])
    def test_matches_brute_force_recomputation(self, magnitude):
        mesh, pairing = perturbed_mesh(magnitude)
        score = ss.asymmetry_report(mesh, pairing).global_score
        assert score == pytest.approx(brute_force_asymmetry(mesh, pairing), abs=1e-10)

    def test_region_restriction_matches_brute_force(self):
        mesh, pairing = perturbed_mesh(0.1)
        region = mesh.regions["upper"]
        score = ss.asymmetry_report(mesh, pairing, {"r": region}).region_scores["r"]
        assert score == pytest.approx(brute_force_asymmetry(mesh, pairing, region), abs=1e-10)

    def test_rigid_motion_invariance(self):
        mesh, pairing = perturbed_mesh(0.1)
        base = ss.asymmetry_report(mesh, pairing).global_score
        rng = np.random.default_rng(3)
        for _ in range(3):
            moved = mesh.with_vertices(mesh.vertices @ random_rotation(rng) + rng.normal(size=3))
            score = ss.asymmetry_report(moved, pairing).global_score
            assert score == pytest.approx(base, abs=1e-8)

    def test_score_scales_with_the_object(self):
        # scores are in mm, so a globally rescaled subject scales its score
        mesh, pairing = perturbed_mesh(0.1)
        base = ss.asymmetry_report(mesh, pairing).global_score
        doubled = ss.asymmetry_report(mesh.with_vertices(2.0 * mesh.vertices), pairing).global_score
        assert doubled == pytest.approx(2.0 * base, rel=1e-8)

    def test_planted_asymmetry_is_monotone(self):
        scores = []
        for magnitude in (0.0, 0.05, 0.1, 0.2):
            config = ss.SynthConfig(resolution=2, eigen_spectrum=(), n_shapes=1,
                                    asymmetry_magnitude=magnitude, seed=1)
            sample, truth = ss.synth_cohort(config)
            scores.append(ss.asymmetry_report(sample.meshes[0], truth.pairing).global_score)
        assert scores[0] == 0.0
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_empty_region_rejected(self):
        mesh, pairing = perturbed_mesh()
        with pytest.raises(ValueError, match="empty"):
            ss.asymmetry_report(mesh, pairing, {"r": np.array([], dtype=int)})

    @pytest.mark.parametrize("as_values", [lambda mask: mask, lambda mask: mask.astype(float)], ids=["bool", "float"])
    def test_mask_is_not_read_as_indices(self, as_values):
        # a boolean mask cast to intp would be the vertices 0 and 1
        mesh, pairing = perturbed_mesh(0.1)
        mask = np.isin(np.arange(mesh.n_vertices), mesh.regions["upper"])
        with pytest.raises(ValueError, match="region 'r' must hold integer vertex indices"):
            ss.asymmetry_report(mesh, pairing, {"r": as_values(mask)})


def upper_lower(mesh):
    return {"upper": mesh.regions["upper"], "lower": mesh.regions["lower"]}


class TestAsymmetryReport:
    def test_regions_and_percentiles(self):
        # the assessment places each score the controls were scored on against them
        mesh, pairing = perturbed_mesh(0.15)
        # one score per control: control_model has three
        controls = {"global": np.array([0.01, 0.03, 0.5]), "upper": np.array([0.0, 0.5, 1.0])}
        model = replace(control_model(1), control_asymmetry=controls)
        report = ss.asymmetry_report(mesh, pairing, upper_lower(mesh))
        assert set(report.region_scores) == {"upper", "lower"}
        document = ss.integrated_assessment(model, mesh, mesh, pairing, upper_lower(mesh)).document
        asymmetry = document["timepoints"]["pre"]["asymmetry"]
        percentile = ss.empirical_percentile(report.global_score, controls["global"])
        assert 0.0 < percentile < 100.0
        assert asymmetry["global"] == {"score": report.global_score, "control_percentile": percentile}
        upper = report.region_scores["upper"]
        assert asymmetry["regions"]["upper"] == {
            "score": upper, "control_percentile": ss.empirical_percentile(upper, controls["upper"])
        }
        assert asymmetry["regions"]["lower"] == {"score": report.region_scores["lower"]}

    @pytest.mark.parametrize("register_per_region", [False, True])
    def test_mask_region_refused_by_name(self, register_per_region):
        mesh, pairing = perturbed_mesh(0.1)
        mask = np.isin(np.arange(mesh.n_vertices), mesh.regions["upper"])
        with pytest.raises(ValueError, match="region 'upper' must hold integer vertex indices, got bool"):
            ss.asymmetry_report(mesh, pairing, {"upper": mask}, register_per_region=register_per_region)

    def test_per_region_registration_flag_changes_only_regions(self):
        mesh, pairing = perturbed_mesh(0.15)
        shared = ss.asymmetry_report(mesh, pairing, upper_lower(mesh))
        per_region = ss.asymmetry_report(mesh, pairing, upper_lower(mesh), register_per_region=True)
        assert per_region.global_score == shared.global_score
        assert set(per_region.region_scores) == set(shared.region_scores) == {"upper", "lower"}
        assert per_region.region_scores != shared.region_scores


class TestRegionRules:
    """One checker serves every scoring call: duplicated indices count once, an
    empty region is refused by name, and a region registered on its own needs
    3 vertices. Each refusal comes before any mirror matching."""

    @pytest.fixture
    def unmatched(self, monkeypatch):
        def match(*args, **kwargs):
            raise AssertionError("the mirror image was matched before the regions were checked")

        monkeypatch.setattr("surfshape.individual._match_mirror", match)

    @pytest.mark.parametrize("register_per_region", [False, True])
    def test_duplicated_indices_count_once(self, register_per_region):
        mesh, pairing = perturbed_mesh(0.15)
        region, distinct = np.array([11, 3, 3, 7, 3, 5]), np.array([3, 5, 7, 11])
        got, want = (
            ss.asymmetry_report(mesh, pairing, {"r": idx}, register_per_region=register_per_region).region_scores
            for idx in (region, distinct)
        )
        assert got == want

    def test_duplicated_indices_count_once_in_a_single_score(self):
        mesh, pairing = perturbed_mesh(0.15)
        score = ss.asymmetry_report(mesh, pairing, {"r": [3, 3, 3, 5, 7, 11]}).region_scores["r"]
        assert score == ss.asymmetry_report(mesh, pairing, {"r": [3, 5, 7, 11]}).region_scores["r"]

    @pytest.mark.parametrize("register_per_region", [False, True])
    def test_empty_region_refused_by_name(self, unmatched, register_per_region):
        mesh, pairing = perturbed_mesh(0.15)
        with pytest.raises(ValueError, match="^region 'e' is empty$"):
            ss.asymmetry_report(mesh, pairing, {"e": []}, register_per_region=register_per_region)

    @pytest.mark.parametrize("size", [1, 2])
    def test_per_region_registration_needs_three_vertices(self, unmatched, size):
        mesh, pairing = perturbed_mesh(0.15)
        region = {"r": mesh.triangles[0][:size]}
        with pytest.raises(ValueError, match=f"^region 'r' has {size} vertices; registering it on its own needs 3$"):
            ss.asymmetry_report(mesh, pairing, region, register_per_region=True)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_regions_are_scored(self, size):
        mesh, pairing = perturbed_mesh(0.15)
        region = {"r": mesh.triangles[0][:size]}
        for register_per_region in ([False, True] if size == 3 else [False]):
            report = ss.asymmetry_report(mesh, pairing, region, register_per_region=register_per_region)
            assert np.isfinite(report.region_scores["r"])

    def test_assessment_refuses_before_assessing(self, unmatched, monkeypatch):
        def unassessed(*args, **kwargs):
            raise AssertionError("a case was assessed before the regions were checked")

        monkeypatch.setattr("surfshape.individual.assess_individual", unassessed)
        mesh, pairing = perturbed_mesh(0.15)
        model = control_model(1)
        with pytest.raises(ValueError, match="^region 'e' is empty$"):
            ss.integrated_assessment(model, mesh, mesh, pairing, {"upper": mesh.regions["upper"], "e": []})


class TestEmpiricalPercentile:
    def test_interpolates_linearly(self):
        ref = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert ss.empirical_percentile(2.0, ref) == 50.0
        assert ss.empirical_percentile(0.5, ref) == 12.5
        assert ss.empirical_percentile(-1.0, ref) == 0.0
        assert ss.empirical_percentile(9.0, ref) == 100.0

    def test_empty_reference_refused(self):
        with pytest.raises(ValueError, match="empty reference sample"):
            ss.empirical_percentile(1.0, np.array([]))

    def test_one_value_reference(self):
        assert [ss.empirical_percentile(v, np.array([2.0])) for v in (1.0, 2.0, 3.0)] == [0.0, 50.0, 100.0]

    def test_uniform_ranks_for_the_sample_itself(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=101)
        ranks = [ss.empirical_percentile(v, ref) for v in np.sort(ref)]
        np.testing.assert_allclose(ranks, np.linspace(0, 100, 101), atol=1e-9)


def control_sample(n=40, seed=0, spectrum=(0.05, 0.02, 0.01, 0.004, 0.002), noise=0.004):
    config = ss.SynthConfig(
        resolution=2,
        eigen_spectrum=spectrum,
        n_shapes=n,
        noise_sd=noise,
        nuisance_rotation_deg=10,
        nuisance_translation=0.5,
        seed=seed,
    )
    return ss.synth_cohort(config)


class TestFitControlModel:
    def test_threshold_matches_incomplete_gamma_oracle(self):
        special = pytest.importorskip("scipy.special")
        controls, _ = control_sample()
        model = ss.fit_control_model(controls, variance_threshold=0.80)
        oracle = 2.0 * special.gammaincinv(model.p / 2.0, 0.95)
        assert model.chi2_threshold == pytest.approx(oracle, abs=1e-8)

    def test_q95_leaves_about_five_percent_above(self):
        controls, _ = control_sample(n=60, seed=3)
        model = ss.fit_control_model(controls)
        frac = (model.control_r > model.q95).mean()
        assert frac == pytest.approx(0.05, abs=0.03)

    def test_exactly_five_controls_fit(self):
        controls, _ = control_sample(n=5, seed=5)
        assert ss.fit_control_model(controls).control_r.shape == (5,)

    def test_control_statistics_have_expected_sizes(self):
        controls, _ = control_sample(n=20, seed=5)
        model = ss.fit_control_model(controls)
        assert model.control_d.shape == (20,)
        assert model.control_r.shape == (20,)
        assert model.nu.shape == (controls.n_vertices,)
        assert np.all(model.nu > 0)
        assert model.p == model.fpca.n_components

    def test_variance_rule_sets_p(self):
        controls, _ = control_sample(n=50, seed=7)
        model = ss.fit_control_model(controls, variance_threshold=0.80)
        explained = model.fpca.explained
        assert explained[model.p - 1] >= 0.80
        if model.p > 1:
            assert explained[model.p - 2] < 0.80

    def test_degenerate_residual_sds_are_replaced(self):
        from surfshape.individual import sanitize_residual_sds

        nu, warnings = sanitize_residual_sds(np.array([0.5, 0.0, 0.3, 1e-15]), tiny=1e-12)
        np.testing.assert_array_equal(nu, [0.5, 0.3, 0.3, 0.3])
        assert warnings and "2 vertices" in warnings[0]
        nu_all, warnings_all = sanitize_residual_sds(np.zeros(4), tiny=1e-12)
        np.testing.assert_array_equal(nu_all, np.ones(4))
        assert warnings_all and "no residual variation" in warnings_all[0]
        nu_ok, warnings_ok = sanitize_residual_sds(np.array([0.2, 0.4]), tiny=1e-12)
        assert warnings_ok == ()

    def test_asymmetry_distributions_recorded_with_pairing(self):
        controls, truth = control_sample(n=8, seed=9)
        model = ss.fit_control_model(controls, pairing=truth.pairing, regions=truth.base_mesh.regions)
        assert set(model.control_asymmetry) == {"global", "upper", "lower"}
        assert model.control_asymmetry["global"].shape == (8,)

    def test_region_named_global_refused(self):
        # it would replace the whole-surface score in the control table
        controls, truth = control_sample(n=6, seed=9)
        upper = controls.meshes[0].regions["upper"]
        with pytest.raises(ValueError, match="region name 'global' is reserved"):
            ss.fit_control_model(controls, pairing=truth.pairing, regions={"global": upper})

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("global", "region name 'global' is reserved for the whole-surface score"),
            ("outside", "region 'upper' references a vertex outside [0, 66)"),
            ("mask", "region 'upper' must hold integer vertex indices, got bool values"),
            ("pairing", "pairing covers 18 vertices, the controls 66"),
            ("empty", "region 'e' is empty"),
            ("no pairing", "regions given without a pairing: control asymmetry is scored only with one"),
        ],
    )
    def test_bad_region_map_or_pairing_refused_before_the_fit(self, monkeypatch, fault, message):
        def unfitted(*args, **kwargs):
            raise AssertionError("the cohort was fitted before the regions and pairing were checked")

        monkeypatch.setattr("surfshape.individual.weighted_gpa", unfitted)
        monkeypatch.setattr("surfshape.individual.fit_fpca", unfitted)
        controls, truth = control_sample(n=6, seed=9)
        upper = controls.meshes[0].regions["upper"]
        regions = {
            "global": {"global": upper},
            "outside": {"upper": np.append(upper, 66)},
            "mask": {"upper": np.isin(np.arange(66), upper)},
            "pairing": {"upper": upper},
            "empty": {"upper": upper, "e": []},
            "no pairing": {"upper": upper},
        }[fault]
        pairing = {"pairing": ss.BilateralPairing(np.arange(18)), "no pairing": None}.get(fault, truth.pairing)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ss.fit_control_model(controls, pairing=pairing, regions=regions)

    @pytest.mark.parametrize("variance_threshold", [1.0, 1.5, 0.0, -0.5, np.nan])
    def test_variance_threshold_outside_the_unit_interval_refused(self, monkeypatch, variance_threshold):
        # a float of 1 or more was read as a component count of 1, and every bad
        # fraction was refused by fit_fpca, after the registration, as a bad k
        def unfitted(*args, **kwargs):
            raise AssertionError("the cohort was registered before variance_threshold was checked")

        monkeypatch.setattr("surfshape.individual.weighted_gpa", unfitted)
        controls, _ = control_sample(n=6, seed=9)
        message = "variance_threshold must be a component count or a variance fraction in (0, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ss.fit_control_model(controls, variance_threshold=variance_threshold)

    def test_duplicated_region_indices_count_once(self):
        controls, truth = control_sample(n=6, seed=9)
        region = np.array([3, 3, 3, 5, 7, 11])
        scored = lambda idx: ss.fit_control_model(controls, pairing=truth.pairing, regions={"r": idx}).control_asymmetry
        np.testing.assert_array_equal(scored(region)["r"], scored(np.unique(region))["r"])

    def test_needs_five_controls(self):
        controls, _ = control_sample(n=4, seed=1)
        with pytest.raises(ValueError, match="at least 5"):
            ss.fit_control_model(controls)


def serial_asymmetry_table(controls, pairing, regions):
    """The control asymmetry table as one loop over the controls scores it."""
    rows = [ss.asymmetry_report(mesh, pairing, regions).scores for mesh in controls.meshes]
    return {name: np.sort([row[name] for row in rows]) for name in rows[0]}


class TestControlAsymmetryOverCpus:
    """fit_control_model scores its controls' asymmetry in one share per CPU the
    process may run on; the table and every error are the serial loop's."""

    # twelve controls dealt round robin: one share at 1 CPU, the even and the odd
    # ones at 2, and at 3 the ones of each remainder of division by 3
    @pytest.fixture(params=[1, 2, 3], autouse=True)
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    @pytest.fixture(scope="class")
    def cohort(self):
        return control_sample(n=12, seed=9)

    @staticmethod
    def table_bytes(table):
        return [(name, scores.tobytes()) for name, scores in table.items()]

    @pytest.mark.parametrize("with_regions", [False, True])
    def test_table_is_the_serial_one(self, cohort, cpus, monkeypatch, with_regions):
        controls, truth = cohort
        regions = truth.base_mesh.regions if with_regions else None
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        model = ss.fit_control_model(controls, pairing=truth.pairing, regions=regions)
        assert len(forks) == cpus - 1
        expected = serial_asymmetry_table(controls, truth.pairing, regions)
        assert self.table_bytes(model.control_asymmetry) == self.table_bytes(expected)
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["raises", "exits early", "no fork"])
    def test_share_that_fails_in_a_child_is_run_here(self, cohort, cpus, monkeypatch, fault):
        # control 7 is in the only child's share at 2 CPUs and in the first of two at 3;
        # the last fork fails, the only one at 2 CPUs and the second at 3
        controls, truth = cohort
        regions = truth.base_mesh.regions
        expected = serial_asymmetry_table(controls, truth.pairing, regions)
        parent, report, fork, forks = os.getpid(), ss.individual.asymmetry_report, os.fork, []

        def report_here_only(mesh, *args, **kwargs):
            if os.getpid() != parent and mesh is controls.meshes[7]:
                if fault == "exits early":  # status 0, but the pipe comes up short
                    os._exit(0)
                raise MemoryError("in the child")
            return report(mesh, *args, **kwargs)

        def fork_but_the_last():
            forks.append(1)
            if fault == "no fork" and len(forks) == cpus - 1:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(ss.individual, "asymmetry_report", report_here_only)
        monkeypatch.setattr(os, "fork", fork_but_the_last)
        model = ss.fit_control_model(controls, pairing=truth.pairing, regions=regions)
        assert self.table_bytes(model.control_asymmetry) == self.table_bytes(expected)
        assert_no_child_left()

    @pytest.mark.parametrize("degenerate", [1, 6, 7, 11])  # 6 is scored here, the others in a child at 2 CPUs
    def test_degenerate_mirror_match_raises_the_serial_error(self, cohort, monkeypatch, degenerate):
        # the mirror image of one control lies on a line: its match has no rotation
        controls, truth = cohort
        reflect = ss.individual.reflect_relabel

        def collinear_for_one(shape, pairing):
            mirrored = reflect(shape, pairing)
            if shape is controls.meshes[degenerate].vertices:
                mirrored = np.outer(np.arange(len(mirrored)), [1.0, 2.0, 3.0])
            return mirrored

        monkeypatch.setattr(ss.individual, "reflect_relabel", collinear_for_one)
        with pytest.raises(ss.NumericalFailure) as serial:
            serial_asymmetry_table(controls, truth.pairing, None)
        with pytest.raises(ss.NumericalFailure, match=f"^{re.escape(str(serial.value))}$"):
            ss.fit_control_model(controls, pairing=truth.pairing)
        assert_no_child_left()


def control_model(p):
    # unit eigenvalues with their sum as the total variance (1 for p = 0, which a total of 0 would refuse first)
    mesh, _ = sphere_with_pairing()
    j = mesh.n_vertices
    fpca = ss.FpcaModel(mesh.vertices, ss.vertex_areas(mesh), np.zeros((p, 3 * j)), np.ones(p), float(max(p, 1)))
    return ss.ControlModel(fpca, np.ones(j), np.ones(3), np.ones(3), mesh.triangles)


class TestChi2ThresholdCheck:
    """A control model's chi2_threshold is the exact 95% quantile for its p,
    derived on construction: the constructor and ``replace`` refuse any
    other value, and a model file's stored copy is ignored on load."""

    @pytest.mark.parametrize("p", range(1, 41))
    def test_true_quantile_accepted(self, p):
        special = pytest.importorskip("scipy.special")
        model = control_model(p)
        assert model.p == p and model.chi2_threshold == chi_square_quantile(p)
        assert model.chi2_threshold == pytest.approx(2.0 * special.gammaincinv(p / 2.0, 0.95), rel=1e-12, abs=0)

    @staticmethod
    def assert_threshold_not_taken(p, threshold, tmp_path):
        model = control_model(p)
        fields = (model.fpca, model.nu, model.control_d, model.control_r, model.triangles)
        with pytest.raises(TypeError, match="chi2_threshold"):
            ss.ControlModel(*fields, chi2_threshold=threshold)
        with pytest.raises(ValueError, match="chi2_threshold"):
            replace(model, chi2_threshold=threshold)
        path = tmp_path / "control.json"
        write_files([(path, model)])
        doc = json.loads(path.read_text())
        doc["chi2_threshold"] = threshold
        path.write_text(json.dumps(doc))
        assert load_model(path).chi2_threshold == model.chi2_threshold

    @pytest.mark.parametrize("p", [1, 2, 5, 30])
    @pytest.mark.parametrize("factor", [0.92, 1.08, 0.0, np.nan])
    def test_wrong_threshold_refused(self, p, factor, tmp_path):
        self.assert_threshold_not_taken(p, factor * chi_square_quantile(p), tmp_path)

    @pytest.mark.parametrize("p", [1, 2, 5, 30])
    @pytest.mark.parametrize("relative", [1e-9, -1e-9])
    def test_threshold_a_billionth_off_refused(self, p, relative, tmp_path):
        self.assert_threshold_not_taken(p, chi_square_quantile(p) * (1.0 + relative), tmp_path)

    def test_no_components_refused(self):
        with pytest.raises(ValueError, match="at least one component"):
            control_model(0)

    def test_empty_control_scores_refused(self):
        # np.percentile of an empty array raises IndexError, which would end as exit 1
        model = control_model(2)
        with pytest.raises(ValueError, match="^control_r is empty"):
            ss.ControlModel(model.fpca, model.nu, np.ones(0), np.ones(0), model.triangles)


class TestResidualScaleRules:
    """A residual score divides by ``nu`` and is compared with the 95th
    percentile of ``control_r``; a fit gives positive ``nu`` and non-negative
    ``control_r``, but a model file can hold anything, so the constructor
    refuses the rest by vertex or control."""

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("nu", lambda j: np.r_[1.0, 1.0, 1.0, 0.0, np.ones(j - 4)], "nu must be positive: vertex 3 has 0.0"),
            ("nu", lambda j: -np.ones(j), "nu must be positive: vertex 0 has -1.0"),
            ("nu", lambda j: np.r_[1.0, 1.0, np.nan, np.ones(j - 3)], "nu must be positive: vertex 2 has nan"),
            ("control_r", lambda j: np.array([1.0, -0.5, 1.0]), "control_r must be non-negative: control 1 has -0.5"),
            ("control_r", lambda j: -np.ones(3), "control_r must be non-negative: control 0 has -1.0"),
            (
                "control_asymmetry",
                lambda j: {"global": np.ones(3), "left": np.ones(0)},
                "control_asymmetry region 'left' must hold 3 finite, non-negative scores, one per control",
            ),
            (
                "control_asymmetry",
                lambda j: {"global": np.array([-5.0])},
                "control_asymmetry region 'global' must hold 3 finite, non-negative scores, one per control",
            ),
            (
                "control_asymmetry",
                lambda j: {"global": np.array([-5.0, 1.0, 2.0])},
                "control_asymmetry region 'global' must hold 3 finite, non-negative scores, one per control",
            ),
            (
                "control_asymmetry",
                lambda j: {"upper": np.array([0.0, np.nan, 1.0])},
                "control_asymmetry region 'upper' must hold 3 finite, non-negative scores, one per control",
            ),
            (
                "control_asymmetry",
                lambda j: {"upper": np.array([0.0, 1.0, np.inf])},
                "control_asymmetry region 'upper' must hold 3 finite, non-negative scores, one per control",
            ),
        ],
        ids=[
            "nu-zero", "nu-negated", "nu-nan", "control_r-one-negative", "control_r-negated",
            "control_asymmetry-empty", "control_asymmetry-short", "control_asymmetry-negative",
            "control_asymmetry-nan", "control_asymmetry-inf",
        ],
    )
    def test_refused_by_name(self, field, values, message):
        model = control_model(2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(model, **{field: values(model.nu.size)})

    def test_control_asymmetry_holds_one_score_per_control(self):
        model = replace(control_model(2), control_asymmetry={"global": np.array([0.0, 0.1, 0.2])})
        assert model.control_asymmetry["global"].shape == (3,)

    def test_a_zero_control_score_is_kept(self):
        model = replace(control_model(2), control_r=np.array([0.0, 0.0, 1.0]))
        assert model.q95 == pytest.approx(0.9)


@pytest.mark.parametrize("n_vertices", [66, 5_000])
def test_residual_lengths_are_the_norms_of_the_residual(n_vertices):
    # 5,000 vertices take two vertex blocks of 2,730 (8,192 tangent columns)
    rng = np.random.default_rng(31)
    tangent = rng.normal(size=(7, 3 * n_vertices))
    weights = ss.AreaWeights(rng.uniform(0.5, 1.5, n_vertices))
    fit = ss.fit_fpca(tangent, weights, k=3)
    score_rows = ss.scores_from_tangent(fit, tangent)
    residual = tangent - score_rows @ fit.eigenfunctions
    want = np.sqrt(np.stack([residual[:, c * n_vertices : (c + 1) * n_vertices] ** 2 for c in range(3)]).sum(axis=0))
    got = _residual_lengths(tangent, fit, score_rows)
    np.testing.assert_array_equal(got, want)


@pytest.fixture(scope="module")
def model():
    controls, _ = control_sample(n=45, seed=11)
    return ss.fit_control_model(controls, variance_threshold=0.80)


class TestAssessIndividual:

    def test_control_mean_assesses_to_itself(self, model):
        case = model.mean_mesh()
        result = ss.assess_individual(model, case)
        assert result.d == pytest.approx(0.0, abs=1e-18)
        assert result.r == pytest.approx(0.0, abs=1e-12)
        assert result.alpha1 == 1.0 and result.alpha2 == 1.0
        np.testing.assert_allclose(result.cc, model.fpca.mean, atol=1e-10)
        assert result.within_component_range and result.within_residual_range

    def test_distance_four_times_threshold_halves_scores(self, model):
        # pick the displacement along e_1 whose post-registration distance is
        # exactly 4 * threshold (assessment re-registers the case internally)
        target = 4.0 * model.chi2_threshold
        lam1 = model.fpca.eigenvalues[0]

        def assessed(c):
            case = model.mean_mesh().with_vertices(
                model.fpca.mean + c * ss.vec_inverse(model.fpca.eigenfunctions[0])
            )
            return ss.assess_individual(model, case)

        lo, hi = 0.0, 4.0 * np.sqrt(target * lam1)
        assert assessed(hi).d > target
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if assessed(mid).d < target:
                lo = mid
            else:
                hi = mid
        result = assessed(0.5 * (lo + hi))
        assert result.d == pytest.approx(target, rel=1e-9)
        assert result.alpha1 == pytest.approx(0.5, rel=1e-6)
        shrunk_d = float((result.alpha1 * result.scores) ** 2 @ (1.0 / model.fpca.eigenvalues))
        assert shrunk_d == pytest.approx(model.chi2_threshold, abs=1e-8)

    def test_extreme_case_lands_on_the_ellipsoid_boundary(self, model):
        lam1 = model.fpca.eigenvalues[0]
        case = model.mean_mesh().with_vertices(
            model.fpca.mean + 5.0 * np.sqrt(lam1) * ss.vec_inverse(model.fpca.eigenfunctions[0])
        )
        result = ss.assess_individual(model, case)
        assert not result.within_component_range
        cc_scores = ss.scores(model.fpca, result.cc_p)
        d_cc = float(cc_scores**2 @ (1.0 / model.fpca.eigenvalues))
        assert d_cc == pytest.approx(model.chi2_threshold, abs=1e-8)

    def test_within_range_case_reproduces_itself(self, model):
        # a case inside both 95% ranges shrinks by alpha = 1, so cc equals the aligned case
        mild = model.fpca.mean + 0.3 * np.sqrt(model.fpca.eigenvalues[1]) * ss.vec_inverse(
            model.fpca.eigenfunctions[1]
        )
        result = ss.assess_individual(model, model.mean_mesh().with_vertices(mild))
        assert result.within_component_range and result.within_residual_range
        np.testing.assert_allclose(result.cc, result.aligned_case, atol=1e-10)

    def test_inside_case_is_its_own_closest_control_bitwise(self, model):
        # mean + component part + residual would only round back to the case
        mild = model.fpca.mean + 0.3 * np.sqrt(model.fpca.eigenvalues[1]) * ss.vec_inverse(
            model.fpca.eigenfunctions[1]
        )
        result = ss.assess_individual(model, model.mean_mesh().with_vertices(mild))
        assert result.alpha1 == 1.0 and result.alpha2 == 1.0
        assert result.cc.tobytes() == result.aligned_case.tobytes()
        assert not np.shares_memory(result.cc, result.aligned_case)

    def test_alphas_in_unit_interval(self, model):
        rng = np.random.default_rng(4)
        for _ in range(5):
            wild = model.fpca.mean + rng.normal(scale=0.1, size=model.fpca.mean.shape)
            result = ss.assess_individual(model, model.mean_mesh().with_vertices(wild))
            assert 0 < result.alpha1 <= 1
            assert 0 < result.alpha2 <= 1

    def test_vertex_count_checked(self, model):
        other = ss.synth_base_mesh(ss.SynthConfig(resolution=3))[0]
        with pytest.raises(ValueError, match="vertices"):
            ss.assess_individual(model, other)


class TestClosestControlInvariances:
    """The assessment depends on the case's shape and on the controls as a set:
    a similarity motion of the case and the order of the controls leave it."""

    @pytest.mark.parametrize("outside", [False, True])
    def test_similarity_motion_of_the_case(self, model, outside):
        rng = np.random.default_rng(8)
        mean, eigenfunctions, eigenvalues = model.fpca.mean, model.fpca.eigenfunctions, model.fpca.eigenvalues
        if outside:
            shape = mean + 4.0 * np.sqrt(eigenvalues[0]) * ss.vec_inverse(eigenfunctions[0])
            shape = shape + rng.normal(scale=0.02, size=mean.shape)
        else:
            shape = mean + 0.3 * np.sqrt(eigenvalues[1]) * ss.vec_inverse(eigenfunctions[1])
        moved = 1.7 * shape @ random_rotation(rng) + rng.normal(size=3)
        base = ss.assess_individual(model, model.mean_mesh().with_vertices(shape))
        other = ss.assess_individual(model, model.mean_mesh().with_vertices(moved))
        assert base.within_component_range is not outside and base.within_residual_range is not outside
        for name in ("d", "r", "alpha1", "alpha2"):
            assert getattr(other, name) == pytest.approx(getattr(base, name), rel=1e-9), name
        assert other.within_component_range == base.within_component_range
        assert other.within_residual_range == base.within_residual_range

    def test_control_order(self):
        controls, truth = control_sample(n=20, seed=17)
        reversed_controls = ss.ShapeSample(controls.meshes[::-1])
        fit = lambda sample: ss.fit_control_model(sample, pairing=truth.pairing, regions=truth.base_mesh.regions)
        base, other = fit(controls), fit(reversed_controls)
        np.testing.assert_allclose(other.control_d, base.control_d[::-1], rtol=1e-9)
        np.testing.assert_allclose(other.control_r, base.control_r[::-1], rtol=1e-9)
        assert other.p == base.p
        np.testing.assert_allclose(other.nu, base.nu, rtol=1e-9)
        assert other.q95 == pytest.approx(base.q95, rel=1e-9)
        assert set(other.control_asymmetry) == set(base.control_asymmetry) == {"global", "upper", "lower"}
        for name, scores in base.control_asymmetry.items():
            np.testing.assert_allclose(other.control_asymmetry[name], scores, rtol=1e-9)


@pytest.fixture(scope="module")
def setup():
    controls, truth = control_sample(n=30, seed=13)
    control_model = ss.fit_control_model(controls, pairing=truth.pairing, regions=truth.base_mesh.regions)
    case_config = ss.SynthConfig(resolution=2, eigen_spectrum=(), n_shapes=2,
                                 asymmetry_magnitude=0.05, noise_sd=0.01, seed=40)
    cases, _ = ss.synth_cohort(case_config)
    return control_model, cases.meshes[0], cases.meshes[1], truth.pairing, truth.base_mesh.regions


class TestIntegratedAssessment:

    def test_identical_pre_post_gives_identical_halves(self, setup):
        model, pre, _, pairing, regions = setup
        assessment = ss.integrated_assessment(model, pre, pre, pairing, regions)
        doc = assessment.document
        assert sorted(doc["timepoints"]["pre"]["asymmetry"]["regions"]) == ["lower", "upper"]
        assert doc["timepoints"]["pre"] == doc["timepoints"]["post"]

    def test_every_region_appears_once_per_timepoint(self, setup):
        model, pre, post, pairing, regions = setup
        assessment = ss.integrated_assessment(model, pre, post, pairing, regions)
        for point in ("pre", "post"):
            entry = assessment.document["timepoints"][point]["asymmetry"]["regions"]
            assert sorted(entry) == ["lower", "upper"]
            assert all("control_percentile" in score for score in entry.values())

    def test_document_is_json_serializable_and_artifacts_complete(self, setup):
        import json

        model, pre, post, pairing, regions = setup
        assessment = ss.integrated_assessment(model, pre, post, pairing, regions)
        json.dumps(assessment.document)
        names = set(assessment.artifacts)
        for point in ("pre", "post"):
            assert f"{point}_case" in names
            assert f"{point}_closest_control" in names
            assert f"{point}_vs_closest_control_normal" in names
            assert f"{point}_asymmetry_distance" in names

    def test_inside_case_paints_an_exactly_zero_difference(self, setup):
        model, _, _, pairing, regions = setup
        inside = model.mean_mesh().with_vertices(
            model.fpca.mean + 0.3 * np.sqrt(model.fpca.eigenvalues[1]) * ss.vec_inverse(model.fpca.eigenfunctions[1])
        )
        assessment = ss.integrated_assessment(model, inside, inside, pairing, regions)
        entry = assessment.document["timepoints"]["pre"]
        assert entry["closest_control"]["within_component_range"]
        assert entry["closest_control"]["within_residual_range"]
        assert entry["difference_to_closest_control"] == {"normal_min": 0.0, "normal_max": 0.0, "normal_rms": 0.0}
        _, field = assessment.artifacts["pre_vs_closest_control_normal"]
        assert field is not None and not field.any()

    def test_control_percentiles_roughly_uniform_over_controls(self):
        controls, truth = control_sample(n=25, seed=17)
        model = ss.fit_control_model(controls, pairing=truth.pairing, regions=truth.base_mesh.regions)
        ranks = [
            ss.empirical_percentile(score, model.control_asymmetry["global"])
            for score in model.control_asymmetry["global"]
        ]
        assert min(ranks) == 0.0 and max(ranks) == 100.0
        assert abs(np.mean(ranks) - 50.0) < 1e-9
