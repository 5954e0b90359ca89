import numpy as np
import pytest

import surfshape as ss
from conftest import principal_angles
from surfshape.synth import _LENGTH_BOUNDS


class TestBaseMesh:
    @pytest.mark.parametrize("resolution", [2, 3])
    def test_vertex_and_triangle_counts(self, resolution):
        mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=resolution))
        assert mesh.n_vertices == 4 ** (resolution + 1) + 2
        assert mesh.n_triangles == 8 * 4**resolution

    def test_pairing_is_valid_involution_with_exact_midline(self):
        mesh, pairing = ss.synth_base_mesh(ss.SynthConfig(resolution=3))
        j = np.arange(mesh.n_vertices)
        np.testing.assert_array_equal(pairing.pair[pairing.pair], j)
        assert np.all(mesh.vertices[pairing.midline, 0] == 0.0)
        off = pairing.pair != j
        np.testing.assert_array_equal(
            mesh.vertices[pairing.pair[off]], mesh.vertices[off] * np.array([-1.0, 1.0, 1.0])
        )

    @pytest.mark.parametrize(
        "config",
        [
            ss.SynthConfig(resolution=2),
            ss.SynthConfig(resolution=2, radii=(1.5, 1.0, 0.7)),
            ss.SynthConfig(resolution=2, exponent=0.6, radii=(1.2, 1.0, 0.9)),
        ],
    )
    def test_every_base_shape_is_exactly_mirror_symmetric(self, config):
        mesh, pairing = ss.synth_base_mesh(config)
        assert ss.asymmetry_report(mesh, pairing).global_score == 0.0

    def test_regions_partition_by_height(self):
        mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=2))
        assert np.all(mesh.vertices[mesh.regions["upper"], 2] >= 0)
        assert np.all(mesh.vertices[mesh.regions["lower"], 2] < 0)
        assert len(mesh.regions["upper"]) + len(mesh.regions["lower"]) == mesh.n_vertices


def loop_subdivide_octasphere(resolution):
    """The per-edge loop that built the octahedron sphere before it was
    vectorised, kept verbatim as the oracle of its vertex numbering and bits."""
    vertices = [v for v in ss.synth._OCTAHEDRON_VERTICES]
    faces = ss.synth._OCTAHEDRON_FACES
    for _ in range(resolution):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in midpoint_cache:
                m = 0.5 * (vertices[i] + vertices[j])
                m = m / np.linalg.norm(m)
                midpoint_cache[key] = len(vertices)
                vertices.append(m)
            return midpoint_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = np.asarray(new_faces, dtype=np.intp)
    return np.asarray(vertices) + 0.0, faces  # +0.0 turns -0.0 into +0.0 for exact mirror lookups


def dict_pairing_from_coordinates(vertices):
    """The dict lookup that paired mirror vertices before it was vectorised."""
    index = {v.tobytes(): i for i, v in enumerate(vertices)}
    mirrored = vertices * np.array([-1.0, 1.0, 1.0]) + 0.0
    pair = np.empty(vertices.shape[0], dtype=np.intp)
    for i, m in enumerate(mirrored):
        j = index.get(m.tobytes())
        if j is None:
            raise ValueError(f"vertex {i} has no exact mirror partner")
        pair[i] = j
    return ss.BilateralPairing(pair)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestVectorisedBaseMesh:
    """The array-at-a-time subdivision and pairing against the loops they replaced."""

    @pytest.mark.parametrize("resolution", range(7))
    def test_subdivision_and_pairing_match_the_loops_bitwise(self, resolution):
        vertices, faces = ss.synth._subdivide_octasphere(resolution)
        expected_vertices, expected_faces = loop_subdivide_octasphere(resolution)
        assert_same_bits(vertices, expected_vertices)
        assert_same_bits(faces, expected_faces)
        pair = ss.synth._pairing_from_coordinates(vertices).pair
        assert_same_bits(pair, dict_pairing_from_coordinates(expected_vertices).pair)

    @pytest.mark.parametrize("resolution", [2, 5])
    def test_superellipsoid_base_matches_the_loops_bitwise(self, resolution):
        config = ss.SynthConfig(resolution=resolution, exponent=0.6, radii=(1.2, 1.0, 0.9))
        mesh, pairing = ss.synth_base_mesh(config)
        unit, faces = loop_subdivide_octasphere(resolution)
        vertices = np.sign(unit) * np.abs(unit) ** 0.6 * np.array([1.2, 1.0, 0.9]) + 0.0
        assert_same_bits(mesh.vertices, vertices)
        assert_same_bits(mesh.triangles, faces)
        assert_same_bits(pairing.pair, dict_pairing_from_coordinates(vertices).pair)

    def test_exponent_one_is_the_stretched_sphere_bitwise(self):
        mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=4, radii=(1.2, 1.0, 0.9)))
        assert_same_bits(mesh.vertices, loop_subdivide_octasphere(4)[0] * np.array([1.2, 1.0, 0.9]) + 0.0)

    def test_missing_partner_names_the_first_such_vertex(self):
        vertices = ss.synth._subdivide_octasphere(3)[0]
        vertices[[40, 17, 90], 0] += 1e-12
        messages = []
        for pairing_from_coordinates in (ss.synth._pairing_from_coordinates, dict_pairing_from_coordinates):
            with pytest.raises(ValueError, match="has no exact mirror partner") as info:
                pairing_from_coordinates(vertices)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestPlantedModes:
    def test_modes_are_a_orthonormal(self):
        mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=2))
        weights = ss.vertex_areas(mesh)
        modes = ss.planted_modes(mesh, weights, 5)
        gram = (modes * weights.stacked) @ modes.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_modes_orthogonal_to_similarity_directions(self):
        from surfshape.synth import _similarity_directions

        mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=2))
        weights = ss.vertex_areas(mesh)
        modes = ss.planted_modes(mesh, weights, 4)
        for direction in _similarity_directions(mesh.vertices):
            overlaps = modes @ (weights.stacked * direction)
            np.testing.assert_allclose(overlaps, 0.0, atol=1e-8)

    def test_mode_budget_enforced(self):
        mesh, _ = ss.synth_base_mesh(ss.SynthConfig(resolution=2))
        weights = ss.vertex_areas(mesh)
        with pytest.raises(ValueError, match="at most"):
            ss.planted_modes(mesh, weights, 99)


class TestSynthCohort:
    def test_same_seed_identical_cohorts(self):
        config = ss.SynthConfig(resolution=2, n_shapes=6, noise_sd=0.01, nuisance_rotation_deg=10, seed=3)
        a, truth_a = ss.synth_cohort(config)
        b, truth_b = ss.synth_cohort(config)
        for mesh_a, mesh_b in zip(a.meshes, b.meshes):
            np.testing.assert_array_equal(mesh_a.vertices, mesh_b.vertices)
        np.testing.assert_array_equal(truth_a.z, truth_b.z)

    def test_single_mode_recovery(self):
        config = ss.SynthConfig(
            resolution=2, eigen_spectrum=(0.04,), n_shapes=25,
            standardize_scores=True, seed=5,
        )
        sample, truth = ss.synth_cohort(config)
        weights = ss.vertex_areas(truth.base_mesh)
        tangent = ss.tangent_coordinates(sample.vertex_array(), truth.base_mesh.vertices)
        model = ss.fit_fpca(tangent, weights, k=1)
        assert model.eigenvalues[0] == pytest.approx(0.04, rel=1e-6)
        angles = principal_angles(weights, model.eigenfunctions, truth.modes)
        assert angles.max() < 1e-4

    def test_gpa_plus_fpca_recovers_planted_subspace(self):
        spectrum = (4e-8, 2e-8, 1e-8)
        config = ss.SynthConfig(
            resolution=2, eigen_spectrum=spectrum, n_shapes=30,
            standardize_scores=True, seed=7,
        )
        sample, truth = ss.synth_cohort(config)
        gpa = ss.weighted_gpa(sample, tol=1e-14, max_iter=200)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        model = ss.fit_fpca(tangent, gpa.mean_weights, k=3, mean_shape=gpa.mean)
        # unit-area GPA rescales tangent data and weights: eigenvalues pick up
        # a factor of (base surface area)^-2, subspaces are untouched
        base_area = ss.vertex_areas(truth.base_mesh).total_area
        np.testing.assert_allclose(model.eigenvalues * base_area**2, spectrum, rtol=1e-6)
        angles = principal_angles(gpa.mean_weights, model.eigenfunctions, truth.modes)
        assert angles.max() < 1e-4

    def test_group_labels_and_shift(self):
        config = ss.SynthConfig(
            resolution=2, eigen_spectrum=(0.04, 0.01), group_sizes=(4, 6),
            group_shift_component=1, group_shift_sd=2.0, seed=9,
        )
        sample, _ = ss.synth_cohort(config)
        assert sample.labels == ("A",) * 4 + ("B",) * 6

    def test_asymmetry_monotone_in_magnitude(self):
        previous = -1.0
        for magnitude in (0.0, 0.03, 0.1):
            config = ss.SynthConfig(resolution=2, eigen_spectrum=(),
                                    n_shapes=1, asymmetry_magnitude=magnitude, seed=1)
            sample, truth = ss.synth_cohort(config)
            score = ss.asymmetry_report(sample.meshes[0], truth.pairing).global_score
            assert score > previous
            previous = score

    def test_nuisance_transforms_recorded(self):
        config = ss.SynthConfig(resolution=2, n_shapes=3, nuisance_rotation_deg=20,
                                nuisance_translation=1.0, nuisance_log_scale=0.2, seed=11)
        sample, truth = ss.synth_cohort(config)
        assert len(truth.transforms) == 3
        for transform in truth.transforms:
            assert transform.scale != 1.0

    @pytest.mark.parametrize("resolution", [2, 4])
    def test_recipe_at_its_bounds_simulates(self, resolution):
        # the refused extremes start just past these: each bound itself still gives distinct, finite shapes
        lo, hi = _LENGTH_BOUNDS
        t = np.pi / 2 ** (resolution + 1)  # FORMATS.md: the exponent lies in [eps / -ln cos t, ln tiny / (4 ln sin t)]
        finfo = np.finfo(float)
        exponents = (finfo.eps / -np.log(np.cos(t)), np.log(finfo.tiny) / (4 * np.log(np.sin(t))))
        for e in exponents:  # just past either bound is refused
            with pytest.raises(ValueError, match="exponent must lie in"):
                ss.SynthConfig(resolution=resolution, exponent=e * (0.99 if e < 1 else 1.01))
        recipes = [{"exponent": e} for e in exponents]
        recipes += [{"radii": (lo, lo, lo)}, {"radii": (hi, hi, hi)}, {"radii": (hi, lo, 1.0)}, {"noise_sd": hi}]
        for recipe in recipes:
            sample, truth = ss.synth_cohort(ss.SynthConfig(resolution=resolution, n_shapes=3, seed=1, **recipe))
            assert np.unique(truth.base_mesh.vertices, axis=0).shape[0] == truth.base_mesh.n_vertices
            assert all(np.isfinite(mesh.vertices).all() for mesh in sample.meshes)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            ss.SynthConfig(eigen_spectrum=(1.0, 1.0))
        with pytest.raises(ValueError, match="resolution"):
            ss.SynthConfig(resolution=1)
        with pytest.raises(ValueError, match="planted modes"):
            ss.SynthConfig(eigen_spectrum=(1.0, 0.5), group_shift_component=3)
        # recipe options that would change nothing are refused, naming the fields
        for ignored in ({"group_shift_sd": 3.0, "group_sizes": (4, 4)}, {"group_shift_component": 1},
                        {"group_shift_component": 1, "group_shift_sd": 3.0},
                        {"group_shift_component": 1, "group_sizes": (4, 4)}):
            with pytest.raises(ValueError, match="group_shift_component, a non-zero group_shift_sd and group_sizes"):
                ss.SynthConfig(**ignored)
        assert ss.SynthConfig(group_sizes=(4, 4), group_shift_component=1, group_shift_sd=3.0).n_modes == 3
        # a recipe numpy would refuse only mid-draw is refused with the config
        for bad in ({"radii": (1.0, 0.0, 1.0)}, {"noise_sd": -0.1}, {"nuisance_translation": -1.0},
                    {"nuisance_log_scale": -0.1}):
            with pytest.raises(ValueError, match="radii must be positive; noise_sd"):
                ss.SynthConfig(**bad)
        with pytest.raises(ValueError, match="standardization needs more shapes than modes"):
            ss.SynthConfig(n_shapes=3, standardize_scores=True)
        # the recipe owns the shape of its values and refuses any non-finite number, naming the field
        for bad, message in (
            ({"radii": (1.0, 2.0)}, "radii must be three values, got 2"),
            ({"eigen_spectrum": tuple(range(13, 0, -1))}, "eigen_spectrum gives at most 12 modes, got 13"),
            ({"group_sizes": (3,)}, r"group_sizes must be two positive counts, got \(3,\)"),
            ({"group_sizes": (0, 3)}, r"group_sizes must be two positive counts, got \(0, 3\)"),
            ({"exponent": 0.0}, "exponent must be positive, got 0.0"),
            ({"exponent": -1.0}, "exponent must be positive, got -1.0"),
            ({"exponent": np.nan}, "exponent must be finite, got nan"),
            ({"noise_sd": np.nan}, "noise_sd must be finite, got nan"),
            ({"asymmetry_magnitude": np.nan}, "asymmetry_magnitude must be finite, got nan"),
            ({"radii": (1.0, np.nan, 1.0)}, r"radii must be finite, got \(1.0, nan, 1.0\)"),
            ({"eigen_spectrum": (0.05, np.nan)}, r"eigen_spectrum must be finite, got \(0.05, nan\)"),
            ({"nuisance_rotation_deg": np.nan}, "nuisance_rotation_deg must be finite, got nan"),
            ({"nuisance_translation": np.inf}, "nuisance_translation must be finite, got inf"),
            ({"nuisance_log_scale": -np.inf}, "nuisance_log_scale must be finite, got -inf"),
            ({"group_sizes": (4, 4), "group_shift_component": 1, "group_shift_sd": np.inf},
             "group_shift_sd must be finite, got inf"),
            ({"nuisance_translation": 1e308}, "nuisance_translation and nuisance_log_scale must keep"),
            ({"nuisance_log_scale": 710.0}, "nuisance_translation and nuisance_log_scale must keep"),
            # finite, but the surface or the noisy shapes would stop being finite or distinct
            ({"exponent": 1e300}, r"exponent must lie in \[2.8e-15, 184\] at resolution 2, got 1e\+300"),
            ({"exponent": 1e-300}, r"exponent must lie in \[2.8e-15, 184\] at resolution 2, got 1e-300"),
            ({"resolution": 5, "exponent": 60.0}, r"exponent must lie in \[1.8e-13, 58.7\] at resolution 5, got 60.0"),
            ({"noise_sd": 1e308}, r"noise_sd must be at most 1.2e\+75, got 1e\+308"),
            ({"radii": (1e308, 1.0, 1.0)}, r"radii must lie in \[1.2e-75, 1.2e\+75\], got \(1e\+308, 1.0, 1.0\)"),
            ({"radii": (1.0, 1e-80, 1.0)}, r"radii must lie in \[1.2e-75, 1.2e\+75\], got \(1.0, 1e-80, 1.0\)"),
        ):
            with pytest.raises(ValueError, match=message):
                ss.SynthConfig(**bad)
