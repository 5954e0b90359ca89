import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surfshape as ss
from surfshape.cli import main
from surfshape.io import (
    load_mesh_directory, load_model, mesh_names, pairing_table, read_mesh, read_pairing, read_regions, regions_table,
    write_files,
)
from conftest import assert_no_child_left


def run(*argv):
    return main([str(a) for a in argv])


def read_cohort(directory):
    return load_mesh_directory(directory, mesh_names(directory))


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run(
        "simulate", "--out", out, "--group-sizes", "8,8", "--spectrum", "0.05,0.02,0.01",
        "--noise-sd", "0.01", "--nuisance-rotation", "15", "--nuisance-translation", "0.5",
        "--asymmetry", "0.03", "--seed", "42",
    )
    assert code == 0
    return out


def artifact_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def manifest_without_timestamp(directory: Path) -> dict:
    doc = json.loads((directory / "manifest.json").read_text())
    doc.pop("created_at")
    doc["options"].pop("out")  # runs land in different temp dirs
    return doc


class TestSimulate:
    def test_outputs_present(self, cohort):
        assert (cohort / "meshes").is_dir()
        assert (cohort / "labels.csv").exists()
        assert (cohort / "pairing.csv").exists()
        assert (cohort / "regions.csv").exists()
        truth = json.loads((cohort / "ground_truth.json").read_text())
        assert truth["seed"] == 42
        assert len(truth["z"]) == 16

    def test_ground_truth_and_manifest_record_the_recipe(self, tmp_path):
        code = run("simulate", "--group-sizes", "3,4", "--shift-component", "2", "--shift-sd", "1.5",
                   "--seed", "7", "--out", tmp_path)
        assert code == 0
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert (truth["shift_component"], truth["shift_sd"], truth["seed"]) == (2, 1.5, 7)
        assert truth["labels"] == ["A"] * 3 + ["B"] * 4
        options = json.loads((tmp_path / "manifest.json").read_text())["options"]
        assert (options["radii"], options["spectrum"], options["exponent"]) == ([1.0] * 3, [0.05, 0.02, 0.01], 1.0)
        assert "base" not in options

    def test_byte_identical_rerun(self, cohort, tmp_path):
        again = tmp_path / "again"
        code = run(
            "simulate", "--out", again, "--group-sizes", "8,8", "--spectrum", "0.05,0.02,0.01",
            "--noise-sd", "0.01", "--nuisance-rotation", "15", "--nuisance-translation", "0.5",
            "--asymmetry", "0.03", "--seed", "42",
        )
        assert code == 0
        assert artifact_bytes(again) == artifact_bytes(cohort)
        assert manifest_without_timestamp(again) == manifest_without_timestamp(cohort)


class TestRegister:
    def test_register_and_rerun_determinism(self, cohort, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("register", "--meshes", cohort / "meshes", "--out", out) == 0
        assert artifact_bytes(out_a) == artifact_bytes(out_b)
        mean = read_mesh(out_a / "mean.obj")
        assert ss.triangle_areas(mean).sum() == pytest.approx(1.0, rel=1e-6)

    def test_objective_csv_is_non_increasing_after_first(self, cohort, tmp_path):
        out = tmp_path / "reg"
        assert run("register", "--meshes", cohort / "meshes", "--out", out) == 0
        rows = (out / "objective.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values[-1] <= values[0]


class TestPcaAndTour:
    def test_pipeline(self, cohort, tmp_path):
        from surfshape.io import load_model

        pca_out = tmp_path / "pca"
        assert run("pca", "--meshes", cohort / "meshes", "--out", pca_out, "--variance", "0.9") == 0
        loaded = load_model(pca_out / "model.json")
        assert loaded.explained[-1] >= 0.9
        scores_rows = (pca_out / "scores.csv").read_text().splitlines()
        assert len(scores_rows) == 1 + 16

        tour_out = tmp_path / "tour"
        code = run(
            "tour", "--model", pca_out / "model.json", "--topology", pca_out / "mean.obj",
            "--stops", "3", "--frames-per-leg", "2", "--seed", "5", "--out", tour_out,
        )
        assert code == 0
        frames = sorted(tour_out.glob("tour_*.obj"))
        assert len(frames) == 3 + 2 * 2
        tour_doc = json.loads((tour_out / "tour.json").read_text())
        assert np.asarray(tour_doc["z_vectors"]).shape == (3, loaded.n_components)

    def test_tour_same_seed_identical(self, cohort, tmp_path):
        pca_out = tmp_path / "pca"
        assert run("pca", "--meshes", cohort / "meshes", "--out", pca_out, "--components", "2") == 0
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run(
                "tour", "--model", pca_out / "model.json", "--topology", pca_out / "mean.obj",
                "--stops", "2", "--seed", "9", "--out", out,
            ) == 0
            outs.append(artifact_bytes(out))
        assert outs[0] == outs[1]


class TestCompare:
    def test_report_files(self, cohort, tmp_path):
        out = tmp_path / "cmp"
        code = run(
            "compare", "--meshes", cohort / "meshes", "--labels", cohort / "labels.csv",
            "--p", "3", "--n-perm", "99", "--seed", "7", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_perm"] == 99
        assert 0 < report["global_p"] <= 1
        csv_rows = (out / "report.csv").read_text().splitlines()
        assert csv_rows[0] == "component,statistic,p_value,significant"
        assert csv_rows[1].startswith("global,")
        assert len(csv_rows) == 2 + 3

    def test_group_shape_space_mode(self, cohort, tmp_path):
        out = tmp_path / "gss"
        code = run(
            "compare", "--meshes", cohort / "meshes", "--labels", cohort / "labels.csv",
            "--p", "2", "--n-perm", "49", "--seed", "3", "--mode", "group_shape_space", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "group_shape_space"

    @pytest.mark.parametrize("n_perm, warned", [(99, True), (100, False)])
    def test_warns_when_no_component_can_be_flagged(self, cohort, tmp_path, capsys, n_perm, warned):
        # the smallest p-value is 1/(1 + n_perm); a component is flagged below the alpha
        code = run(
            "compare", "--meshes", cohort / "meshes", "--labels", cohort / "labels.csv",
            "--p", "2", "--n-perm", n_perm, "--bonferroni", "0.01", "--seed", "1", "--out", tmp_path / "cmp",
        )
        assert code == 0
        warning = ("warning: no component can be flagged: the smallest p-value of 99 permutations, 1/100, "
                   "is not below the Bonferroni alpha 0.01\n")
        assert capsys.readouterr().err == (warning if warned else "")


class TestAsymmetryCommand:
    def test_symmetric_base_scores_zero_in_csv(self, cohort, tmp_path):
        mesh_dir = tmp_path / "base_mesh"
        mesh_dir.mkdir()
        (mesh_dir / "base.obj").write_bytes((cohort / "base.obj").read_bytes())
        out = tmp_path / "asym"
        code = run(
            "asymmetry", "--meshes", mesh_dir, "--pairing", cohort / "pairing.csv",
            "--regions", cohort / "regions.csv", "--out", out,
        )
        assert code == 0
        rows = (out / "asymmetry.csv").read_text().splitlines()
        global_row = next(r for r in rows if r.startswith("base.obj,global,"))
        assert float(global_row.split(",")[2]) == 0.0

    def test_cohort_scores_positive(self, cohort, tmp_path):
        out = tmp_path / "asym2"
        code = run(
            "asymmetry", "--meshes", cohort / "meshes", "--pairing", cohort / "pairing.csv", "--out", out,
        )
        assert code == 0
        rows = (out / "asymmetry.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) > 0 for r in rows)

    def test_region_named_global_refused(self, cohort, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text((cohort / "regions.csv").read_text() + "5,global\n")
        lineno = len(regions.read_text().splitlines())
        capsys.readouterr()
        code = run(
            "asymmetry", "--meshes", cohort / "meshes", "--pairing", cohort / "pairing.csv",
            "--regions", regions, "--out", tmp_path / "asym",
        )
        assert code == 2
        assert f"{regions}: line {lineno}: region name 'global' is reserved" in capsys.readouterr().err
        assert not (tmp_path / "asym").exists()

    def test_region_name_that_cannot_be_written_back_refused(self, cohort, tmp_path, capsys):
        # a quoted cell over two lines reads as one name that regions_table would write as two rows
        regions = tmp_path / "regions.csv"
        regions.write_text((cohort / "regions.csv").read_text() + '5,"a\n6,b"\n')
        lineno = len(regions.read_text().splitlines()) - 1
        capsys.readouterr()
        code = run(
            "asymmetry", "--meshes", cohort / "meshes", "--pairing", cohort / "pairing.csv",
            "--regions", regions, "--out", tmp_path / "asym",
        )
        assert code == 2
        assert f"{regions}: line {lineno}: region name 'a\\n6,b' has a comma" in capsys.readouterr().err
        assert not (tmp_path / "asym").exists()

    def test_region_of_zero_area_refused_naming_the_region_and_the_mesh(self, tmp_path, capsys):
        # a tetrahedron symmetric in x, whose midline vertex 2 lies only on the collinear triangle (0, 2, 1)
        meshes, pairing, regions = tmp_path / "meshes", tmp_path / "pairing.csv", tmp_path / "regions.csv"
        meshes.mkdir()
        (meshes / "tetra.obj").write_text(
            "v -1 0 0\nv 1 0 0\nv 0 0 0\nv 0 1 0\nv 0 0.3 1\nf 1 3 2\nf 1 2 4\nf 1 5 2\nf 1 4 5\nf 2 5 4\n"
        )
        pairing.write_text("index,mirror_index\n0,1\n1,0\n2,2\n3,3\n4,4\n")
        regions.write_text("vertex_index,region_name\n2,r\n")
        capsys.readouterr()
        code = run("asymmetry", "--meshes", meshes, "--pairing", pairing, "--regions", regions, "--out", tmp_path / "asym")
        assert code == 2
        assert f"error: validation: {meshes / 'tetra.obj'}: region 'r' has zero surface area" in capsys.readouterr().err
        assert not (tmp_path / "asym").exists()


    def test_per_region_registration_needs_three_vertices(self, cohort, tmp_path, capsys):
        # two vertices cannot fix a registration; the region is refused before any shape is scored
        regions = tmp_path / "regions.csv"
        regions.write_text((cohort / "regions.csv").read_text() + "0,pair\n1,pair\n")
        capsys.readouterr()
        out = tmp_path / "asym"
        code = run(
            "asymmetry", "--meshes", cohort / "meshes", "--pairing", cohort / "pairing.csv",
            "--regions", regions, "--per-region-registration", "--out", out,
        )
        assert code == 2
        message = f"error: validation: {regions}: region 'pair' has 2 vertices; registering it on its own needs 3"
        assert message in capsys.readouterr().err
        assert not out.exists()
        # assess registers globally, so the same region is scored there
        code = run(
            "assess", "--controls", cohort / "meshes", "--pre", cohort / "meshes" / "shape_000.obj",
            "--post", cohort / "meshes" / "shape_001.obj", "--pairing", cohort / "pairing.csv",
            "--regions", regions, "--out", tmp_path / "assess",
        )
        assert code == 0
        doc = json.loads((tmp_path / "assess" / "assessment.json").read_text())
        assert sorted(doc["timepoints"]["pre"]["asymmetry"]["regions"]) == ["lower", "pair", "upper"]


class TestAssess:
    def test_fit_then_reuse_model(self, cohort, tmp_path):
        out = tmp_path / "assess"
        code = run(
            "assess", "--controls", cohort / "meshes", "--pre", cohort / "meshes" / "shape_000.obj",
            "--post", cohort / "meshes" / "shape_001.obj", "--pairing", cohort / "pairing.csv",
            "--regions", cohort / "regions.csv", "--out", out,
        )
        assert code == 0
        doc = json.loads((out / "assessment.json").read_text())
        assert set(doc["timepoints"]) == {"pre", "post"}
        assert (out / "control_model.json").exists()
        assert (out / "pre_vs_closest_control_normal.ply").exists()

        reuse = tmp_path / "reuse"
        code = run(
            "assess", "--model", out / "control_model.json", "--pre", cohort / "meshes" / "shape_000.obj",
            "--post", cohort / "meshes" / "shape_001.obj", "--pairing", cohort / "pairing.csv",
            "--regions", cohort / "regions.csv", "--out", reuse,
        )
        assert code == 0
        doc_b = json.loads((reuse / "assessment.json").read_text())
        assert doc_b["timepoints"] == doc["timepoints"]

    def test_control_model_is_dealt_apart(self, cohort, tmp_path, monkeypatch):
        # at 2 CPUs the model file, the largest, shares a process with fewer meshes than the other one
        log, file_text = tmp_path / "writers.log", ss.io._file_text

        def logged(item, faces):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {Path(item[0]).name}\n")
            return file_text(item, faces)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ss.io, "_file_text", logged)
        code = run(
            "assess", "--controls", cohort / "meshes", "--pre", cohort / "meshes" / "shape_000.obj",
            "--post", cohort / "meshes" / "shape_001.obj", "--pairing", cohort / "pairing.csv",
            "--regions", cohort / "regions.csv", "--out", tmp_path / "out",
        )
        assert code == 0
        shares = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            if name != "manifest.json":  # written on its own
                shares.setdefault(pid, []).append(name)
        model = next(names for names in shares.values() if "control_model.json" in names)
        other = next(names for names in shares.values() if "control_model.json" not in names)
        assert len(shares) == 2 and len(model) - 1 <= len(other)
        assert sum(len(names) for names in shares.values()) == 10
        assert_no_child_left()

    def test_requires_exactly_one_source(self, cohort, tmp_path):
        code = run(
            "assess", "--pre", cohort / "meshes" / "shape_000.obj", "--post",
            cohort / "meshes" / "shape_001.obj", "--pairing", cohort / "pairing.csv",
            "--out", tmp_path / "x",
        )
        assert code == 2

    def test_stored_derived_values_are_ignored(self, cohort, tmp_path):
        # a model file written before p, chi2_threshold, q95, explained and the
        # total area were derived, or before n_samples was dropped, holds copies
        # of them; edited, they change nothing
        case = ("--pre", cohort / "meshes" / "shape_000.obj", "--post", cohort / "meshes" / "shape_001.obj",
                "--pairing", cohort / "pairing.csv", "--regions", cohort / "regions.csv")
        assert run("assess", "--controls", cohort / "meshes", *case, "--out", tmp_path / "fit") == 0
        fitted = json.loads((tmp_path / "fit" / "control_model.json").read_text())
        edits = {
            "p": lambda d: d.update(p=9),
            "chi2_threshold": lambda d: d.update(chi2_threshold=0.5),
            "q95": lambda d: d.update(q95=1e-3),
            "explained": lambda d: d["fpca"].update(explained=[0.5] * len(d["fpca"]["eigenvalues"])),
            "weights_total_area": lambda d: d["fpca"].update(weights_total_area=1e3),
            "n_samples": lambda d: d["fpca"].update(n_samples=-5),
        }
        for name, edit in [*edits.items(), ("all", lambda d: [e(d) for e in edits.values()])]:
            doc = json.loads(json.dumps(fitted))
            edit(doc)
            model = tmp_path / f"{name}.json"
            model.write_text(json.dumps(doc))
            assert run("assess", "--model", model, *case, "--out", tmp_path / name) == 0, name
            expected = (tmp_path / "fit" / "assessment.json").read_bytes()
            assert (tmp_path / name / "assessment.json").read_bytes() == expected, name


class TestMismatchedMeshes:
    """A mesh that does not match the control model, the cohort or the other
    mesh is a validation error naming that file, not a numerical failure."""

    @pytest.fixture()
    def finer(self, tmp_path):
        path = tmp_path / "finer.obj"
        write_files([(path, ss.synth_base_mesh(ss.SynthConfig(resolution=3))[0])])
        return path

    def assess(self, cohort, tmp_path, source, pre, post=None):
        post = post or cohort / "meshes" / "shape_001.obj"
        return run(
            "assess", *source, "--pre", pre, "--post", post, "--pairing", cohort / "pairing.csv",
            "--out", tmp_path / "out",
        )

    def test_case_against_model(self, cohort, tmp_path, finer, capsys):
        meshes = read_cohort(cohort / "meshes")
        model_path = tmp_path / "control_model.json"
        write_files([(model_path, ss.fit_control_model(ss.ShapeSample(tuple(meshes[:6]))))])
        capsys.readouterr()
        assert self.assess(cohort, tmp_path, ("--model", model_path), finer) == 2
        assert f"{finer}: vertex count 258 != 66 of control model {model_path}" in capsys.readouterr().err
        shape = cohort / "meshes" / "shape_000.obj"
        assert self.assess(cohort, tmp_path, ("--model", model_path), shape, post=finer) == 2
        assert f"{finer}: vertex count 258 != 66" in capsys.readouterr().err

    def test_case_against_controls(self, cohort, tmp_path, finer, capsys):
        assert self.assess(cohort, tmp_path, ("--controls", cohort / "meshes"), finer) == 2
        assert f"{finer}: vertex count 258 != 66 of control cohort {cohort / 'meshes'}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["assess", "register"])
    def test_cohort_member_with_other_triangulation(self, cohort, tmp_path, capsys, command):
        controls = tmp_path / "controls"
        controls.mkdir()
        for name in ("shape_000.obj", "shape_001.obj", "shape_002.obj", "shape_003.obj", "shape_004.obj"):
            (controls / name).write_bytes((cohort / "meshes" / name).read_bytes())
        odd = read_mesh(controls / "shape_003.obj")
        write_files([(controls / "shape_003.obj", ss.SurfaceMesh(odd.vertices, odd.triangles[:, [1, 2, 0]][::-1]))])
        if command == "assess":
            assert self.assess(cohort, tmp_path, ("--controls", controls), cohort / "meshes" / "shape_000.obj") == 2
        else:
            assert run("register", "--meshes", controls, "--out", tmp_path / "out") == 2
        assert f"{controls / 'shape_003.obj'}: triangle list differs from shape_000.obj" in capsys.readouterr().err

    def test_diff_of_different_meshes(self, cohort, tmp_path, finer, capsys):
        shape = cohort / "meshes" / "shape_000.obj"
        assert run("diff", shape, finer, "--out", tmp_path / "out") == 2
        assert f"{finer}: vertex count 258 != 66 of {shape}" in capsys.readouterr().err

    def test_tour_topology_of_another_mesh(self, cohort, component_model, tmp_path, finer, capsys):
        assert run("tour", "--model", component_model, "--topology", finer, "--out", tmp_path / "out") == 2
        assert f"{finer}: vertex count 258 != 66 of {component_model}" in capsys.readouterr().err

    def test_warp_source_and_target_of_other_sizes(self, cohort, tmp_path, finer, capsys):
        source = cohort / "base.obj"
        assert run("warp", "--source", source, "--target", finer, "--template", source, "--out", tmp_path / "out") == 2
        assert f"{finer}: vertex count 258 != 66 of {source}" in capsys.readouterr().err

    def test_labels_missing_a_shape(self, cohort, tmp_path, capsys, monkeypatch):
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(l + "\n" for l in (cohort / "labels.csv").read_text().splitlines()
                                  if not l.startswith("shape_003.obj")))
        # refused from the directory listing, before any mesh is read
        monkeypatch.setattr("surfshape.cli.load_mesh_directory", lambda *a: pytest.fail("the cohort was read"))
        argv = ("--meshes", cohort / "meshes", "--labels", labels, "--p", "2", "--n-perm", "9")
        assert run("compare", *argv, "--out", tmp_path / "out") == 2
        assert f"{labels}: labels file misses entries for: shape_003.obj" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_of_the_wrong_kind(self, cohort, tmp_path, capsys):
        pca = tmp_path / "pca"
        assert run("pca", "--meshes", cohort / "meshes", "--components", "2", "--out", pca) == 0
        shape = cohort / "meshes" / "shape_000.obj"
        capsys.readouterr()
        assert self.assess(cohort, tmp_path, ("--model", pca / "model.json"), shape) == 2
        assert f"{pca / 'model.json'}: not a control model" in capsys.readouterr().err
        control = tmp_path / "control_model.json"
        model = ss.fit_control_model(ss.ShapeSample(tuple(read_cohort(cohort / "meshes")[:6])))
        write_files([(control, model)])
        assert run("tour", "--model", control, "--topology", shape, "--out", tmp_path / "tour") == 2
        assert f"{control}: not a component model" in capsys.readouterr().err

    def test_model_of_the_wrong_kind_is_refused_before_the_cases_are_read(self, cohort, tmp_path, capsys, monkeypatch):
        pca = tmp_path / "pca"
        assert run("pca", "--meshes", cohort / "meshes", "--components", "2", "--out", pca) == 0
        capsys.readouterr()
        monkeypatch.setattr("surfshape.cli.read_mesh", lambda *a: pytest.fail("a case was read"))
        shape = cohort / "meshes" / "shape_000.obj"
        assert self.assess(cohort, tmp_path, ("--model", pca / "model.json"), shape) == 2
        assert f"{pca / 'model.json'}: not a control model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWarpCommand:
    def test_warp_template(self, cohort, tmp_path):
        out = tmp_path / "warp"
        code = run(
            "warp", "--source", cohort / "base.obj", "--target", cohort / "meshes" / "shape_000.obj",
            "--template", cohort / "base.obj", "--out", out,
        )
        assert code == 0
        warped = read_mesh(out / "warped.obj")
        target = read_mesh(cohort / "meshes" / "shape_000.obj")
        np.testing.assert_allclose(warped.vertices, target.vertices, atol=1e-5)
        doc = json.loads((out / "warp.json").read_text())
        assert doc["bending_energy"] >= 0

    def test_oversized_warp_refused_in_validation(self, cohort, tmp_path, capsys, monkeypatch):
        import surfshape.mesh

        # a limit just below what the 66-point source needs stands in for a huge mesh
        monkeypatch.setattr(surfshape.mesh, "MEMORY_LIMIT", 4 * 8 * 70**2 - 1)
        source = cohort / "base.obj"
        capsys.readouterr()
        code = run(
            "warp", "--source", source, "--target", cohort / "meshes" / "shape_000.obj",
            "--template", source, "--out", tmp_path / "warp",
        )
        assert code == 2
        assert f"error: validation: {source}: a warp with J = 66 control points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vertices, triangles, code, message",
        [
            ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 2,
             "validation: {source}: need at least 5 control points"),
            ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)], [(0, 1, 2), (0, 1, 3), (0, 2, 4)], 3,
             "numerical: {source}: duplicate source points make the kernel matrix singular"),
            ([(x, y, 0) for y in range(3) for x in range(3)],
             [(a, a + 1, a + 4) for a in (0, 1, 3, 4)] + [(a, a + 4, a + 3) for a in (0, 1, 3, 4)], 3,
             "numerical: {source}: source points are coplanar; the affine block is rank-deficient"),
        ],
        ids=["four-points", "duplicate-points", "coplanar-grid"],
    )
    def test_every_refusal_of_the_fit_names_the_source(self, tmp_path, capsys, vertices, triangles, code, message):
        source = tmp_path / "source.obj"
        write_files([(source, ss.SurfaceMesh(np.array(vertices, dtype=float), triangles))])
        capsys.readouterr()
        argv = ("--source", source, "--target", source, "--template", source)
        assert run("warp", *argv, "--out", tmp_path / "o") == code
        assert capsys.readouterr().err == f"error: {message.format(source=source)}\n"
        assert not (tmp_path / "o").exists()


class TestDiff:
    def test_field_matches_library_exactly(self, cohort, tmp_path):
        out = tmp_path / "diff"
        base = cohort / "base.obj"
        other = cohort / "meshes" / "shape_000.obj"
        code = run("diff", base, other, "--mode", "normal", "--out", out)
        assert code == 0
        rows = (out / "difference.csv").read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        expected = ss.shape_difference_field(read_mesh(base), read_mesh(other), "normal")
        np.testing.assert_array_equal(values, expected)
        assert (out / "difference.ply").exists()


class TestOneTriangulation:
    """The meshes of a run share one triangle array: a case mesh takes its
    reference's in the correspondence check."""

    def test_assess_meshes_share_the_control_model_array(self, cohort, tmp_path, monkeypatch):
        calls, meshes = [], cohort / "meshes"
        monkeypatch.setattr("surfshape.cli.write_files", lambda items: calls.append(list(items)))
        assert run(
            "assess", "--controls", meshes, "--pre", meshes / "shape_000.obj", "--post", meshes / "shape_001.obj",
            "--pairing", cohort / "pairing.csv", "--out", tmp_path / "out",
        ) == 0
        model = next(value for path, value, *_ in calls[0] if path.name == "control_model.json")
        written = [value for path, value, *_ in calls[0] if path.suffix in (".obj", ".ply")]
        assert len(written) == 8
        assert all(mesh.triangles is model.triangles for mesh in written)

    def test_diff_meshes_share_one_array(self, cohort, tmp_path, monkeypatch):
        seen, field = [], ss.shape_difference_field

        def noted(base, other, mode):
            seen.append((base, other))
            return field(base, other, mode)

        monkeypatch.setattr("surfshape.cli.shape_difference_field", noted)
        assert run("diff", cohort / "base.obj", cohort / "meshes" / "shape_000.obj", "--out", tmp_path / "out") == 0
        [(base, other)] = seen
        assert other.triangles is base.triangles


class TestWrittenBack:
    """A file a command writes, read back and written again by its writer, keeps its bytes."""

    def test_pairing_and_regions_of_simulate(self, cohort, tmp_path):
        j = read_mesh(cohort / "base.obj").n_vertices
        pairing, regions = tmp_path / "pairing.csv", tmp_path / "regions.csv"
        write_files([(pairing, pairing_table(read_pairing(cohort / "pairing.csv", j))),
                     (regions, regions_table(read_regions(cohort / "regions.csv", j)))])
        assert pairing.read_bytes() == (cohort / "pairing.csv").read_bytes()
        assert regions.read_bytes() == (cohort / "regions.csv").read_bytes()

    def test_model_files_of_pca_and_assess(self, cohort, component_model, tmp_path):
        out = tmp_path / "assess"
        assert run("assess", *inputs("assess", cohort, component_model), "--regions", cohort / "regions.csv",
                   "--out", out) == 0
        for model in (component_model, out / "control_model.json"):
            write_files([(tmp_path / "resaved.json", load_model(model))])
            assert (tmp_path / "resaved.json").read_bytes() == model.read_bytes(), model


class TestOversizedRecipes:
    """A recipe whose arrays would pass mesh.MEMORY_LIMIT is refused before
    anything is built: no sphere is subdivided and no draw is made."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, cohort, component_model, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an oversized recipe was started")

        monkeypatch.setattr("surfshape.synth._subdivide_octasphere", fail)
        monkeypatch.setattr(np.random, "default_rng", fail)

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("simulate", ("--resolution", "26"),
             "resolution 26 with 20 shapes needs about 17,293,822,569,102,706,560 bytes"),
            ("simulate", ("--n-shapes", "1000000"),
             "resolution 2 with 1,000,000 shapes needs about 3,168,000,000 bytes"),
            ("tour", ("--stops", "1000000000"),
             "a tour of 9,999,999,991 frames of 66 vertices needs about 31,679,999,971,488 bytes"),
        ],
        ids=["resolution", "shapes", "stops"],
    )
    def test_refused_with_exit_2_and_no_out(self, cohort, component_model, tmp_path, capsys, command, options, message):
        inputs = ("--model", component_model, "--topology", cohort / "base.obj") if command == "tour" else ()
        out = tmp_path / "out"
        assert run(command, *inputs, *options, "--out", out) == 2
        limit = ", above the limit of 2,147,483,648 bytes (2 GiB)"
        assert capsys.readouterr().err == f"error: validation: {message}{limit}\n"
        assert not out.exists()

    def test_benchmark_and_ci_recipes_pass(self):
        # stats-65k: 60 shapes at J = 65,538; CI: 20 at J = 16,386
        ss.SynthConfig(resolution=7, group_sizes=(30, 30), group_shift_component=1, group_shift_sd=3.0)
        ss.SynthConfig(resolution=6, group_sizes=(10, 10))
        ss.SynthConfig(resolution=7, n_shapes=682)  # 48 * 682 * 65,538 bytes is below 2 GiB
        with pytest.raises(ValueError, match="^resolution 7 with 683 shapes needs about 2,148,597,792 bytes"):
            ss.SynthConfig(resolution=7, n_shapes=683)


class TestDefaultSeed:
    """Without --seed, tour, compare and simulate draw from seed 0, which the
    manifest records: two such runs give the same artifacts."""

    @pytest.mark.parametrize("command", ["simulate", "tour", "compare"])
    def test_runs_without_seed_are_identical(self, cohort, component_model, tmp_path, command):
        options = {
            "simulate": ("--resolution", "2", "--n-shapes", "3", "--noise-sd", "0.01", "--nuisance-rotation", "15"),
            "tour": ("--model", component_model, "--topology", cohort / "base.obj", "--stops", "2"),
            "compare": ("--meshes", cohort / "meshes", "--labels", cohort / "labels.csv", "--p", "2", "--n-perm", "19"),
        }[command]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(command, *options, "--out", out) == 0
        assert artifact_bytes(outs[0]) == artifact_bytes(outs[1])
        assert [json.loads((out / "manifest.json").read_text())["seed"] for out in outs] == [0, 0]


class TestConfigFile:
    def test_config_supplies_options_and_flags_override(self, cohort, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"meshes = {cohort / 'meshes'}\n"
            f"labels = {cohort / 'labels.csv'}\n"
            "p = 3\n"
            "n-perm = 49\n"
            "seed = 1\n"
        )
        out = tmp_path / "from_config"
        assert run("compare", "--config", config, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_perm"] == 49 and report["n_components"] == 3

        out2 = tmp_path / "override"
        assert run("compare", "--config", config, "--out", out2, "--p", "2") == 0
        report2 = json.loads((out2 / "report.json").read_text())
        assert report2["n_components"] == 2

        # a flag equal to its parser default still beats the config file
        out3 = tmp_path / "override_default"
        assert run("compare", "--config", config, "--out", out3, "--n-perm", "500") == 0
        assert json.loads((out3 / "report.json").read_text())["n_perm"] == 500

    def test_unknown_config_key_is_validation_error(self, cohort, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mesh-folder = /nope\n")
        assert run("compare", "--config", config, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize(
        "command, line, message",
        [
            # argparse checks no default against its choices: these were refused only mid-run, naming no flag
            ("compare", "mode = bogus", "--mode invalid choice: 'bogus'"),
            ("register", "size-constraint = bogus", "--size-constraint invalid choice: 'bogus'"),
            ("diff", "mode = bogus", "--mode invalid choice: 'bogus'"),
            ("register", "rigid = maybe", "--rigid expected a boolean, got 'maybe'"),
            ("register", "max_iter = 1.5", "--max-iter invalid int value: '1.5'"),
            # a positional is no config key; it was ignored
            ("diff", "base = x.obj", "--base is not a config option of surfshape diff"),
            ("register", "config = other.cfg", "--config is not a config option of surfshape register"),
            ("register", "max-iter 5", "expected key = value"),
            ("register", "tol = --", "--tol needs a value, got '--'"),
            # the ASCII decoder named neither the file nor the line
            ("register", "# caf\u00e9", "non-ASCII byte"),
        ],
    )
    def test_bad_line_refused_before_out_naming_file_and_line(self, cohort, tmp_path, capsys, command, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"# the second line is refused\n{line}\n", encoding="utf-8")
        inputs = {
            "compare": ("--meshes", cohort / "meshes", "--labels", cohort / "labels.csv", "--p", "2", "--n-perm", "9"),
            "register": ("--meshes", cohort / "meshes"),
            "diff": (cohort / "base.obj", cohort / "meshes" / "shape_000.obj"),
        }[command]
        out = tmp_path / "out"
        assert run(command, *inputs, "--config", config, "--out", out) == 2
        assert f"error: validation: {config}: line 2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_later_line_wins_and_false_gives_no_flag(self, cohort, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"meshes = {cohort / 'meshes'}\nrigid = yes\nmax-iter = 1\nRIGID = no\n")
        assert run("register", "--config", config, "--out", tmp_path / "o") == 2  # keys are case-sensitive
        config.write_text(f"meshes = {cohort / 'meshes'}\nrigid = yes\nmax-iter = 1\nrigid = Off\nmax_iter = 50\n")
        assert run("register", "--config", config, "--out", tmp_path / "config") == 0
        assert run("register", "--meshes", cohort / "meshes", "--max-iter", "50", "--out", tmp_path / "flags") == 0
        assert artifact_bytes(tmp_path / "config") == artifact_bytes(tmp_path / "flags")


class TestCompareOptions:
    """Option values the cohort cannot support are validation errors (exit 2)."""

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--p", "50"), "{meshes}: --p 50 needs at least 52 shapes, got 16"),
            (("--p", "15"), "{meshes}: --p 15 needs at least 17 shapes, got 16"),
            (("--p", "0"), "--p must be at least 1, got 0"),
            (("--p", "2", "--n-perm", "0"), "--n-perm must be at least 1, got 0"),
        ],
    )
    def test_bad_option_is_exit_2(self, cohort, tmp_path, capsys, options, message):
        code = run(
            "compare", "--meshes", cohort / "meshes", "--labels", cohort / "labels.csv", *options,
            "--out", tmp_path / "cmp",
        )
        assert code == 2
        assert f"error: validation: {message.format(meshes=cohort / 'meshes')}" in capsys.readouterr().err


class TestTamperedModel:
    """A model file whose arrays disagree in length, or whose triangles are
    broken, is refused at load (exit 2) with the file named."""

    @pytest.fixture(scope="class")
    def models(self, cohort, tmp_path_factory):
        root = tmp_path_factory.mktemp("models")
        meshes = read_cohort(cohort / "meshes")
        write_files([(root / "control.json", ss.fit_control_model(ss.ShapeSample(tuple(meshes[:6]))))])
        assert run("pca", "--meshes", cohort / "meshes", "--components", "2", "--out", root / "pca") == 0
        return root

    def tamper(self, source, target, edit):
        doc = json.loads(source.read_text())
        edit(doc)
        target.write_text(json.dumps(doc))
        return target

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(nu=d["nu"][:5]), "nu must have 66 entries, one per vertex, got shape (5,)"),
            (lambda d: d.update(control_r=d["control_r"][:-1]), "control_d (6,) and control_r (5,)"),
            (lambda d: d["triangles"][0].__setitem__(1, d["triangles"][0][0]), "triangle 0 repeats a vertex index"),
            (lambda d: d["triangles"][3].__setitem__(2, 66), "triangle index out of range"),
            # without its triangles vertex 0 would get zero area weight
            (lambda d: d.update(triangles=[t for t in d["triangles"] if 0 not in t]), "vertex 0 appears in no triangle"),
            (lambda d: d["fpca"].update(mean=d["fpca"]["mean"][:-1]), "mean must be (66, 3) for 66 vertex weights"),
            (
                lambda d: d["fpca"].update(eigenfunctions=[row[:-3] for row in d["fpca"]["eigenfunctions"]]),
                "eigenfunctions must be (2, 198): one row of 3J entries per eigenvalue, got (2, 195)",
            ),
            (
                lambda d: d["fpca"]["eigenfunctions"][0].pop(),
                "field 'eigenfunctions' is not a rectangular numeric array",
            ),
            (lambda d: d["nu"].__setitem__(0, None), "field 'nu' holds a null or non-finite value"),
            (lambda d: d["fpca"]["weights"].__setitem__(2, None), "field 'weights' holds a null or non-finite value"),
            (
                lambda d: d.update(control_d=[], control_r=[]),
                "control_r is empty: the 95th percentile needs at least one control",
            ),
            # no fit gives these; the first three would assess to r = Infinity (invalid JSON), a negative r
            # within range and a negative q95
            (lambda d: d["nu"].__setitem__(3, 0), "nu must be positive: vertex 3 has 0.0"),
            (lambda d: d.update(nu=[-v for v in d["nu"]]), "nu must be positive: vertex 0 has -"),
            (lambda d: d.update(control_r=[-v for v in d["control_r"]]), "control_r must be non-negative: control 0"),
            (lambda d: d["fpca"].update(total_variance=1e-9), "total_variance 1e-09 is below the eigenvalue sum"),
        ],
    )
    def test_control_model_for_assess(self, cohort, tmp_path, capsys, models, edit, message):
        model = self.tamper(models / "control.json", tmp_path / "control_model.json", edit)
        shape = cohort / "meshes" / "shape_000.obj"
        capsys.readouterr()
        code = run(
            "assess", "--model", model, "--pre", shape, "--post", shape, "--pairing", cohort / "pairing.csv",
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert f"error: validation: {model}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_component_model_for_tour(self, cohort, tmp_path, capsys, models):
        model = self.tamper(
            models / "pca" / "model.json", tmp_path / "model.json", lambda d: d.update(weights=d["weights"][:-1])
        )
        capsys.readouterr()
        code = run("tour", "--model", model, "--topology", cohort / "base.obj", "--out", tmp_path / "out")
        assert code == 2
        assert f"error: validation: {model}: mean must be (65, 3) for 65 vertex weights" in capsys.readouterr().err


    @pytest.fixture(scope="class")
    def scored_model(self, cohort, tmp_path_factory):
        """A control model of 8 controls whose asymmetry scores were kept."""
        path = tmp_path_factory.mktemp("scored") / "control.json"
        meshes = read_cohort(cohort / "meshes")
        pairing = read_pairing(cohort / "pairing.csv", meshes[0].n_vertices)
        write_files([(path, ss.fit_control_model(ss.ShapeSample(tuple(meshes[:8])), pairing=pairing))])
        return path

    @pytest.mark.parametrize(
        "scores",
        # the empty table failed in the percentile, naming no file; one negative score assessed at 100.0
        [[], [-5.0], [-5.0] + [0.1] * 7],
        ids=["empty", "one-negative", "negative"],
    )
    def test_control_asymmetry_for_assess(self, cohort, tmp_path, capsys, scored_model, scores):
        model = self.tamper(
            scored_model, tmp_path / "control_model.json", lambda d: d["control_asymmetry"].update({"global": scores})
        )
        shape = cohort / "meshes" / "shape_000.obj"
        code = run(
            "assess", "--model", model, "--pre", shape, "--post", shape, "--pairing", cohort / "pairing.csv",
            "--out", tmp_path / "out",
        )
        assert code == 2
        message = "control_asymmetry region 'global' must hold 8 finite, non-negative scores, one per control"
        assert f"error: validation: {model}: {message}" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_required_option(self, tmp_path):
        assert run("register", "--out", tmp_path / "o") == 2

    def test_bad_mesh_file(self, tmp_path, capsys):
        mesh_dir = tmp_path / "meshes"
        mesh_dir.mkdir()
        for name in ("bad.obj", "other.obj"):  # two, so that GPA's listing rule passes
            (mesh_dir / name).write_text("v 0 0\n")
        assert run("register", "--meshes", mesh_dir, "--out", tmp_path / "o") == 2
        assert f"{mesh_dir / 'bad.obj'}: line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diff", "assess"])
    def test_non_finite_coordinate_is_validation_error(self, cohort, tmp_path, capsys, command):
        bad = tmp_path / "controls" / "bad.obj"
        bad.parent.mkdir()
        lines = (cohort / "meshes" / "shape_000.obj").read_text().splitlines(keepends=True)
        bad.write_text("".join(["v nan 0 0\n", *lines[1:]]))
        for i in range(1, 5):  # with four more, the controls pass their listing rule
            shutil.copy(cohort / "meshes" / f"shape_00{i}.obj", bad.parent)
        shape = cohort / "meshes" / "shape_001.obj"
        if command == "diff":
            argv = ("diff", bad, shape)
        else:
            argv = ("assess", "--controls", bad.parent, "--pre", shape, "--post", shape,
                    "--pairing", cohort / "pairing.csv")
        assert run(*argv, "--out", tmp_path / "o") == 2
        assert f"{bad}: vertex 1 has a non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_override_is_validation_error(self, cohort, tmp_path, capsys, weight):
        overrides = tmp_path / "weights.csv"
        overrides.write_text(f"vertex_index,weight\n0,{weight}\n")
        argv = ("register", "--meshes", cohort / "meshes", "--weight-overrides", overrides, "--out", tmp_path / "o")
        assert run(*argv) == 2
        assert f"{overrides}: line 2: weight must be finite" in capsys.readouterr().err

    def test_vertex_on_no_triangle_in_a_cohort_is_validation_error(self, cohort, tmp_path, capsys):
        meshes = tmp_path / "meshes"
        meshes.mkdir()
        for path in sorted((cohort / "meshes").glob("*.obj")):
            (meshes / path.name).write_bytes(path.read_bytes())
        with open(meshes / "shape_003.obj", "a", encoding="ascii") as fh:
            fh.write("v 0 0 0\n")
        assert run("register", "--meshes", meshes, "--out", tmp_path / "o") == 2
        assert f"{meshes / 'shape_003.obj'}: vertex 67 appears in no triangle" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_ascii_label_is_validation_error(self, cohort, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes((cohort / "labels.csv").read_bytes() + "caf\u00e9.obj,A\n".encode("utf-8"))
        n_lines = len(labels.read_bytes().splitlines())
        argv = ("compare", "--meshes", cohort / "meshes", "--labels", labels, "--p", "2", "--n-perm", "9", "--out", tmp_path / "o")
        assert run(*argv) == 2
        assert f"{labels}: line {n_lines}: non-ASCII byte" in capsys.readouterr().err

    def test_numerical_failure_is_exit_3(self, tmp_path):
        mesh_dir = tmp_path / "meshes"
        mesh_dir.mkdir()
        # collinear configurations make the registration degenerate
        line = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6), np.zeros(6)])
        line[:, 2] = 1e-12 * np.arange(6)  # keep triangles with nonzero area
        mesh = ss.SurfaceMesh(line, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
        write_files([(mesh_dir / "a.obj", mesh)])
        write_files([(mesh_dir / "b.obj", mesh.with_vertices(mesh.vertices + 0.01))])
        assert run("register", "--meshes", mesh_dir, "--out", tmp_path / "o") == 3

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validation: subcommand invalid choice: 'frobnicate'") and err.count("\n") == 1

    def test_no_subcommand_prints_help(self, capsys):
        assert run() == 2
        assert "subcommand" in capsys.readouterr().out


class TestSplitAffine:
    def test_outputs_and_reconstruction(self, cohort, tmp_path):
        out = tmp_path / "split"
        assert run("split-affine", "--meshes", cohort / "meshes", "--out", out) == 0
        names = sorted(p.name for p in (out / "affine").glob("*.obj"))
        assert len(names) == 16
        affine = read_mesh(out / "affine" / names[0])
        nonaffine = read_mesh(out / "nonaffine" / names[0])
        mean = read_mesh(out / "mean.obj")
        coeffs = json.loads((out / "coefficients.json").read_text())
        assert len(coeffs["coefficients"]) == 16
        rebuilt = affine.vertices + nonaffine.vertices - mean.vertices
        gpa_aligned_dir = tmp_path / "reg_check"
        assert run("register", "--meshes", cohort / "meshes", "--out", gpa_aligned_dir) == 0
        aligned = read_mesh(gpa_aligned_dir / "aligned" / names[0])
        np.testing.assert_allclose(rebuilt, aligned.vertices, atol=1e-5)


@pytest.fixture(scope="module")
def component_model(cohort, tmp_path_factory):
    out = tmp_path_factory.mktemp("pca")
    assert run("pca", "--meshes", cohort / "meshes", "--components", "2", "--out", out) == 0
    return out / "model.json"


def inputs(command, cohort, model):
    """Valid input options of each subcommand, on the module's cohort."""
    meshes = cohort / "meshes"
    case = ("--pre", meshes / "shape_000.obj", "--post", meshes / "shape_001.obj", "--pairing", cohort / "pairing.csv")
    return {
        "simulate": ("--resolution", "2", "--n-shapes", "3", "--seed", "1"),
        "register": ("--meshes", meshes),
        "pca": ("--meshes", meshes),
        "tour": ("--model", model, "--topology", cohort / "base.obj", "--seed", "2"),
        "compare": ("--meshes", meshes, "--labels", cohort / "labels.csv", "--p", "2", "--n-perm", "9"),
        "split-affine": ("--meshes", meshes),
        "asymmetry": ("--meshes", meshes, "--pairing", cohort / "pairing.csv"),
        "assess": ("--controls", meshes, *case),
        "warp": ("--source", cohort / "base.obj", "--target", meshes / "shape_000.obj", "--template", cohort / "base.obj"),
        "diff": (meshes / "shape_000.obj", meshes / "shape_001.obj"),
    }[command]


class TestRunner:
    """Every subcommand runs through one runner: it prints one summary line and
    writes a manifest of one shape, naming the subcommand."""

    @pytest.mark.parametrize(
        "command",
        ["simulate", "register", "pca", "tour", "compare", "split-affine", "asymmetry", "assess", "warp", "diff"],
    )
    def test_manifest_contract(self, cohort, component_model, tmp_path, capsys, command):
        capsys.readouterr()
        assert run(command, *inputs(command, cohort, component_model), "--out", tmp_path / "out") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(doc) == {"tool", "version", "command", "created_at", "options", "seed"}
        assert doc["command"] == command
        assert not {"handler", "parser", "config"} & set(doc["options"])

    @pytest.mark.parametrize(
        "command",
        ["simulate", "register", "pca", "tour", "compare", "split-affine", "asymmetry", "assess", "warp", "diff"],
    )
    def test_artifacts_come_from_one_write(self, cohort, component_model, tmp_path, monkeypatch, command):
        # the handler writes nothing: every artifact is an item of the runner's one write_files call,
        # and manifest.json follows in a call of its own
        out, calls = tmp_path / "out", []

        def files(items):
            items = list(items)
            calls.append(("write_files", sorted(str(path.relative_to(out)) for path, *_ in items)))
            return ss.io.write_files(items)

        monkeypatch.setattr("surfshape.cli.write_files", files)
        assert run(command, *inputs(command, cohort, component_model), "--out", out) == 0
        artifacts = sorted(artifact_bytes(out))
        assert len(artifacts) >= 2
        assert calls == [("write_files", artifacts), ("write_files", ["manifest.json"])]


SYNTH_RANGES = "radii must be positive; noise_sd, nuisance_translation, nuisance_log_scale non-negative"

_probe = argparse.ArgumentParser()
_probe.add_argument("--x")
# argparse (3.11 at least) reads --x=-- as the empty list, which check_options refuses
EMPTY_LIST = pytest.mark.skipif(_probe.parse_args(["--x=--"]).x != [], reason="this argparse reads --x=-- as '--'")


# what the handlers read their inputs with: none may run before the options are checked
INPUT_READERS = ("load_mesh_directory", "read_mesh", "load_model", "read_pairing", "read_regions",
                 "read_weight_overrides")


class TestOptionValues:
    """An option value the library would refuse is a validation error (exit 2)
    naming the option, refused before any work and before the manifest."""

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("pca", ("--components", "0"), "--components must be at least 1, got 0"),
            ("pca", ("--variance", "0"), "--variance must lie in (0, 1), got 0.0"),
            ("pca", ("--variance", "1.0"), "--variance must lie in (0, 1), got 1.0"),
            ("pca", ("--variance", "1.5"), "--variance must lie in (0, 1), got 1.5"),
            ("assess", ("--variance", "3.7"), "--variance must lie in (0, 1), got 3.7"),
            ("tour", ("--components", "0"), "--components must be at least 1, got 0"),
            ("tour", ("--components", "99"), "--components must be at most 2, got 99"),
            ("tour", ("--stops", "0"), "--stops must be at least 1, got 0"),
            ("tour", ("--frames-per-leg", "-1"), "--frames-per-leg must be at least 0, got -1"),
            ("diff", ("--lo", "5", "--hi", "1"), "--lo must be below --hi, got 5 and 1"),
            ("diff", ("--reference", "9"), "--reference must lie in [--lo, --hi]"),
            ("simulate", ("--n-shapes", "0"), "--n-shapes must be at least 1, got 0"),
            ("simulate", ("--spectrum", ",".join(str(13 - i) for i in range(13))), "eigen_spectrum gives at most 12"),
            ("compare", ("--bonferroni", "nan"), "--bonferroni must lie in (0, 1), got nan"),
            ("compare", ("--bonferroni", "-1"), "--bonferroni must lie in (0, 1), got -1.0"),
            ("compare", ("--bonferroni", "2"), "--bonferroni must lie in (0, 1), got 2.0"),
            ("register", ("--tol", "nan"), "--tol must be finite and at least 1e-15, got nan"),
            ("register", ("--tol", "-1"), "--tol must be finite and at least 1e-15, got -1.0"),
            ("register", ("--max-iter", "0"), "--max-iter must be at least 1, got 0"),
        ],
    )
    def test_bad_value_is_exit_2(self, cohort, component_model, tmp_path, capsys, command, options, message):
        out = tmp_path / "out"
        assert run(command, *inputs(command, cohort, component_model), *options, "--out", out) == 2
        assert f"error: validation: {message}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_single_shape_simulation_is_valid(self, tmp_path):
        assert run("simulate", "--n-shapes", "1", "--seed", "1", "--out", tmp_path) == 0

    @pytest.mark.parametrize(
        "command, message",
        [("assess", "--variance applies only with --controls"),
         ("simulate", "give either --n-shapes or --group-sizes, not both")],
    )
    def test_option_the_run_would_ignore_is_exit_2(self, cohort, component_model, tmp_path, capsys, command, message):
        meshes = cohort / "meshes"
        options = {
            # refused before the model is read, whatever its kind
            "assess": ("--model", component_model, "--variance", "0.3", "--pre", meshes / "shape_000.obj",
                       "--post", meshes / "shape_001.obj", "--pairing", cohort / "pairing.csv"),
            "simulate": ("--n-shapes", "7", "--group-sizes", "2,2"),
        }[command]
        assert run(command, *options, "--out", tmp_path / "out") == 2
        assert f"error: validation: {message}" in capsys.readouterr().err

    def test_n_shapes_defaults_to_20(self, tmp_path):
        assert run("simulate", "--resolution", "2", "--seed", "1", "--out", tmp_path) == 0
        assert len(list((tmp_path / "meshes").glob("*.obj"))) == 20

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("compare", ("--p", "2", "--n-perm", "0"), "--n-perm must be at least 1, got 0"),
            ("compare", ("--p", "0"), "--p must be at least 1, got 0"),
            ("compare", ("--p", "2", "--bonferroni", "2"), "--bonferroni must lie in (0, 1), got 2.0"),
            ("pca", ("--components", "0"), "--components must be at least 1, got 0"),
            ("pca", ("--variance", "1.5"), "--variance must lie in (0, 1), got 1.5"),
            ("pca", ("--components", "2", "--variance", "0.5"), "give either --components or --variance, not both"),
            ("tour", ("--stops", "0"), "--stops must be at least 1, got 0"),
            ("register", ("--max-iter", "0"), "--max-iter must be at least 1, got 0"),
            ("register", ("--tol", "nan"), "--tol must be finite and at least 1e-15, got nan"),
            ("warp", ("--ridge", "nan"), "--ridge must be finite and at least 0, got nan"),
            ("assess", ("--controls", "absent", "--variance", "3.7"), "--variance must lie in (0, 1), got 3.7"),
            ("assess", (), "give exactly one of --controls or --model"),
            ("assess", ("--model", "absent", "--variance", "0.5"), "--variance applies only with --controls"),
            ("simulate", ("--group-sizes", "3"), "group_sizes must be two positive counts, got (3,)"),
            ("diff", ("--lo", "5", "--hi", "1"), "--lo must be below --hi, got 5 and 1"),
            # every simulate recipe refusal comes before --out
            ("simulate", ("--radii", "1,2"), "radii must be three values, got 2"),
            ("simulate", ("--spectrum", "0.1,0.2"), "eigen_spectrum must be strictly decreasing"),
            ("simulate", ("--shift-component", "5"), "group_shift_component outside the planted modes"),
            ("simulate", ("--standardize", "--n-shapes", "3"), "standardization needs more shapes than modes"),
            ("simulate", ("--radii", "0,0,1"), SYNTH_RANGES),
            ("simulate", ("--noise-sd", "-1"), SYNTH_RANGES),
            ("simulate", ("--nuisance-log-scale", "-1"), SYNTH_RANGES),
            # recipe options that would be silently ignored
            ("simulate", ("--shift-sd", "3", "--group-sizes", "4,4"), "a group shift needs group_shift_component"),
            ("simulate", ("--shift-component", "1", "--shift-sd", "3"), "a group shift needs group_shift_component"),
            ("simulate", ("--shift-component", "1", "--group-sizes", "4,4"), "a group shift needs group_shift_component"),
            ("simulate", ("--exponent", "0"), "exponent must be positive, got 0.0"),
            ("asymmetry", ("--per-region-registration",), "--per-region-registration needs --regions"),
            # below 1e-15, rounding in the objective sets GPA's iteration count
            ("register", ("--tol", "0"), "--tol must be finite and at least 1e-15, got 0.0"),
            ("register", ("--tol", "1e-16"), "--tol must be finite and at least 1e-15, got 1e-16"),
            # a non-finite recipe number, or one whose draw would overflow, is refused with the recipe
            ("simulate", ("--noise-sd", "nan"), "noise_sd must be finite, got nan"),
            ("simulate", ("--asymmetry", "nan"), "asymmetry_magnitude must be finite, got nan"),
            ("simulate", ("--radii", "1,nan,1"), "radii must be finite, got (1.0, nan, 1.0)"),
            ("simulate", ("--spectrum", "0.05,nan"), "eigen_spectrum must be finite, got (0.05, nan)"),
            ("simulate", ("--nuisance-rotation", "nan"), "nuisance_rotation_deg must be finite, got nan"),
            ("simulate", ("--nuisance-translation", "inf"), "nuisance_translation must be finite, got inf"),
            ("simulate", ("--nuisance-translation", "1e308"), "nuisance_translation and nuisance_log_scale must keep"),
            ("simulate", ("--exponent", "nan"), "exponent must be finite, got nan"),
            ("simulate", ("--exponent", "1e400"), "exponent must be finite, got inf"),
            ("simulate", ("--exponent", "-1"), "exponent must be positive, got -1.0"),
            # a non-finite colour bound would paint NaN colours
            ("diff", ("--lo=-inf",), "--lo must be finite, got -inf"),
            ("diff", ("--hi=inf",), "--hi must be finite, got inf"),
            ("diff", ("--reference", "nan"), "--reference must be finite, got nan"),
            # a finite recipe number so extreme that the surface or the noise would stop being finite or distinct
            ("simulate", ("--exponent", "1e300"), "exponent must lie in [2.8e-15, 184] at resolution 2, got 1e+300"),
            ("simulate", ("--exponent", "1e-300"), "exponent must lie in [2.8e-15, 184] at resolution 2, got 1e-300"),
            ("simulate", ("--noise-sd", "1e308"), "noise_sd must be at most 1.2e+75, got 1e+308"),
            ("simulate", ("--radii", "1e308,1,1"), "radii must lie in [1.2e-75, 1.2e+75], got (1e+308, 1.0, 1.0)"),
            # argparse takes --name=-- for an empty list, of no type and no choice
            pytest.param("register", ("--max-iter=--",), "--max-iter needs a value, got '--'", marks=EMPTY_LIST),
            pytest.param("register", ("--weight-overrides=--",), "--weight-overrides needs a value, got '--'",
                         marks=EMPTY_LIST),
            pytest.param("diff", ("--mode=--",), "--mode needs a value, got '--'", marks=EMPTY_LIST),
            ("simulate", ("--spectrum", "0.1,-0.05"), "eigen_spectrum entries must be positive"),
            # numpy refused a negative seed mid-run, naming no flag and leaving --out behind
            ("simulate", ("--seed", "-1"), "--seed must be at least 0, got -1"),
            ("tour", ("--seed", "-1"), "--seed must be at least 0, got -1"),
            ("compare", ("--p", "2", "--seed", "-1"), "--seed must be at least 0, got -1"),
            # a handler's own rule, with one half or both read from --config (the value given is the file's text)
            ("assess", ("--config", "controls = {absent}", "--model", "{absent}"),
             "give exactly one of --controls or --model"),
            ("assess", ("--config", "model = {absent}\nvariance = 0.5"), "--variance applies only with --controls"),
            ("asymmetry", ("--config", "per-region-registration = true"), "--per-region-registration needs --regions"),
            ("diff", ("--config", "lo = 5", "--hi", "1"), "--lo must be below --hi, got 5 and 1"),
            ("pca", ("--config", "components = 2", "--variance", "0.5"),
             "give either --components or --variance, not both"),
            ("simulate", ("--config", "n-shapes = 7\ngroup-sizes = 2,2"),
             "give either --n-shapes or --group-sizes, not both"),
            # a negative ridge lowers the kernel's diagonal: the fit bends more than the exact one, not less
            ("warp", ("--ridge", "-1"), "--ridge must be finite and at least 0, got -1.0"),
            # a value of the wrong type names the flag and the value
            ("compare", ("--p", "2", "--n-perm", "x"), "--n-perm invalid int value: 'x'"),
        ],
    )
    def test_refused_before_any_input_is_read(self, tmp_path, capsys, monkeypatch, command, options, message):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read before the options were checked")

        for reader in INPUT_READERS:
            monkeypatch.setattr(f"surfshape.cli.{reader}", unread)
        monkeypatch.chdir(tmp_path)
        absent = tmp_path / "absent"  # no input exists: none may be opened
        options = [option.format(absent=absent) for option in options]
        if "--config" in options:
            at = options.index("--config") + 1
            (tmp_path / "run.cfg").write_text(options[at] + "\n")
            options[at] = tmp_path / "run.cfg"
        inputs = {
            "compare": ("--meshes", absent, "--labels", absent),
            "pca": ("--meshes", absent),
            "tour": ("--model", absent, "--topology", absent),
            "register": ("--meshes", absent),
            "warp": ("--source", absent, "--target", absent, "--template", absent),
            "assess": ("--pre", absent, "--post", absent, "--pairing", absent),
            "asymmetry": ("--meshes", absent, "--pairing", absent),
            "simulate": (),
            "diff": (absent, absent),
        }[command]
        out = tmp_path / "out"
        assert run(command, *inputs, *options, "--out", out) == 2
        assert f"error: validation: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_refused_before_any_input_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("surfshape.cli.load_mesh_directory", lambda *a: pytest.fail("the cohort was read"))
        config = tmp_path / "run.cfg"
        config.write_text(f"meshes = {tmp_path / 'absent'}\nn-perm = 0\n")
        out = tmp_path / "out"
        assert run("compare", "--config", config, "--labels", tmp_path / "absent", "--p", "2", "--out", out) == 2
        assert f"error: validation: {config}: line 2: --n-perm must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()


# For each subcommand, values that argparse refuses (of the wrong type, outside
# the choices, outside the range), each with a valid one; asymmetry takes only
# paths and booleans.
REFUSED_VALUES = {
    "register": (("--max-iter", "x", "5"), ("--size-constraint", "bogus", "unit_area"), ("--max-iter", "0", "5")),
    "pca": (("--components", "1.5", "2"), ("--variance", "1", "0.5")),
    "tour": (("--stops", "x", "2"), ("--frames-per-leg", "-1", "0"), ("--seed", "-1", "3")),
    "compare": (("--n-perm", "x", "9"), ("--mode", "bogus", "tangent_pca"), ("--n-perm", "0", "9"),
                ("--bonferroni", "nan", "0.01"), ("--seed", "-1", "3")),
    "split-affine": (("--tol", "x", "1e-9"), ("--tol", "1e-16", "1e-9")),
    "asymmetry": (),
    "assess": (("--variance", "x", "0.5"), ("--variance", "0", "0.5")),
    "warp": (("--ridge", "x", "0"), ("--ridge", "inf", "0"), ("--ridge", "-1", "0")),
    "simulate": (("--resolution", "x", "2"), ("--n-shapes", "0", "3"), ("--seed", "-1", "3")),
    "diff": (("--lo", "x", "-1"), ("--mode", "bogus", "normal"), ("--reference", "nan", "0")),
}


class TestRefusedValueReturns2:
    """main returns 2 with one 'error: validation:' line, and never exits
    through argparse, for a value of the wrong type, choice or range or a
    missing value, from the command line or --config (an unknown subcommand:
    TestExitCodes)."""

    def run(self, *argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exit:
                pytest.fail(f"argparse exited with {exit.code}: {err.getvalue()}")
        assert code == 2
        assert err.getvalue().count("\n") == 1 and "usage:" not in err.getvalue()
        return err.getvalue()

    @pytest.fixture()
    def positionals(self, tmp_path, monkeypatch):
        for reader in ("load_mesh_directory", "read_mesh", "load_model"):
            monkeypatch.setattr(f"surfshape.cli.{reader}", lambda *a: pytest.fail("an input was read"))
        return lambda command: (tmp_path / "absent",) * 2 if command == "diff" else ()

    @pytest.mark.parametrize("command", list(REFUSED_VALUES))
    def test_every_subcommand(self, tmp_path, positionals, command):
        out, config = tmp_path / "out", tmp_path / "run.cfg"
        for flag, refused, valid in REFUSED_VALUES[command]:
            err = self.run(command, *positionals(command), f"{flag}={refused}", "--out", out)
            assert err.startswith(f"error: validation: {flag} ")
            config.write_text(f"# refused\n{flag[2:]} = {refused}\n")
            for later in ((), (flag, valid)):  # a config line is checked even when a later flag replaces it
                err = self.run(command, *positionals(command), "--config", config, *later, "--out", out)
                assert err.startswith(f"error: validation: {config}: line 2: {flag} ")
        err = self.run(command, *positionals(command), "--out")
        assert err == "error: validation: --out expected one argument\n"
        err = self.run(command, *positionals(command), "--out", out, "--config")
        assert err == "error: validation: --config expected one argument\n"
        assert not out.exists()


# the path options of each subcommand besides --config; diff's positionals: TestEmptyPath
PATH_OPTIONS = {
    "simulate": ("--out",),
    "register": ("--out", "--meshes", "--weight-overrides"),
    "pca": ("--out", "--meshes", "--weight-overrides"),
    "tour": ("--out", "--model", "--topology"),
    "compare": ("--out", "--meshes", "--weight-overrides", "--labels"),
    "split-affine": ("--out", "--meshes", "--weight-overrides"),
    "asymmetry": ("--out", "--meshes", "--pairing", "--regions"),
    "assess": ("--out", "--controls", "--model", "--pre", "--post", "--pairing", "--regions"),
    "warp": ("--out", "--source", "--target", "--template"),
    "diff": ("--out",),
}


class TestEmptyPath:
    """An empty path, which Path reads as the working directory, is refused for
    every path option, from the command line or --config, before anything is
    read or written: one validation line, exit 2."""

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        for reader in ("load_mesh_directory", "read_mesh", "load_model"):
            monkeypatch.setattr(f"surfshape.cli.{reader}", lambda *a: pytest.fail("an input was read"))
        monkeypatch.chdir(tmp_path)  # where an empty --out would write
        return tmp_path

    def refused(self, capsys, *argv):
        assert run(*argv) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", list(PATH_OPTIONS))
    def test_every_path_option(self, cohort, component_model, workdir, capsys, command):
        given, out, config = inputs(command, cohort, component_model), workdir / "out", workdir / "run.cfg"
        capsys.readouterr()
        for flag in ("--config", *PATH_OPTIONS[command]):
            err = self.refused(capsys, command, *given, "--out", out, flag, "")
            assert err == f"error: validation: {flag} needs a path, got ''\n"
        for flag in PATH_OPTIONS[command]:
            config.write_text(f"# refused\n{flag[2:]} =\n")
            err = self.refused(capsys, command, *given, "--config", config, *(() if flag == "--out" else ("--out", out)))
            assert err == f"error: validation: {config}: line 2: {flag} needs a path, got ''\n"
        assert [p.name for p in workdir.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("position", [0, 1])
    def test_diff_positionals(self, cohort, workdir, capsys, position):
        meshes = [cohort / "base.obj", cohort / "meshes" / "shape_000.obj"]
        meshes[position] = ""
        err = self.refused(capsys, "diff", *meshes, "--out", workdir / "out")
        assert err == f"error: validation: {('base', 'other')[position]} needs a path, got ''\n"
        assert list(workdir.iterdir()) == []


def refusal(case, cohort, tmp_path, monkeypatch):
    """The argv of a run that a check inside the handler of ``case`` refuses
    before anything is written, its exit code and a part of its message."""
    meshes, shape, other = cohort / "meshes", cohort / "meshes" / "shape_000.obj", cohort / "meshes" / "shape_001.obj"
    if case == "tour":
        model = tmp_path / "control_model.json"
        write_files([(model, ss.fit_control_model(ss.ShapeSample(tuple(read_cohort(meshes)[:6]))))])
        return ("tour", "--model", model, "--topology", shape), 2, f"{model}: not a component model"
    if case == "compare":
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(f"{p.name},{'ABC'[i % 3]}\n" for i, p in enumerate(sorted(meshes.glob("*.obj")))))
        argv = ("compare", "--meshes", meshes, "--labels", labels, "--p", "2")
        return argv, 2, f"{labels}: need exactly two groups, got 3"
    if case == "assess":
        four = tmp_path / "four"
        four.mkdir()
        for path in sorted(meshes.glob("*.obj"))[:4]:
            (four / path.name).write_bytes(path.read_bytes())
        argv = ("assess", "--controls", four, "--pre", shape, "--post", other, "--pairing", cohort / "pairing.csv")
        return argv, 2, "need at least 5 control shapes"
    if case == "asymmetry":
        regions = tmp_path / "regions.csv"
        regions.write_text((cohort / "regions.csv").read_text() + "0,pair\n1,pair\n")
        argv = ("asymmetry", "--meshes", meshes, "--pairing", cohort / "pairing.csv", "--regions", regions)
        return (*argv, "--per-region-registration"), 2, f"{regions}: region 'pair' has 2 vertices"
    if case == "warp":
        finer = tmp_path / "finer.obj"
        write_files([(finer, ss.synth_base_mesh(ss.SynthConfig(resolution=3))[0])])
        return ("warp", "--source", shape, "--target", finer, "--template", shape), 2, f"{finer}: vertex count 258"
    if case == "diff":
        return ("diff", shape, other, "--lo", "100"), 2, "--lo must be below --hi"
    if case == "register":
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("vertex_index,weight\n" + "".join(f"{j},0\n" for j in range(66)))
        return ("register", "--meshes", meshes, "--weight-overrides", zeros), 2, "weights sum to zero"
    planted = {"pca": ("fit_fpca", ValueError, 2), "split-affine": ("affine_nonaffine_split", ss.NumericalFailure, 3)}
    name, error, code = planted[case]

    def fail(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(f"surfshape.cli.{name}", fail)
    return (case, "--meshes", meshes), code, "planted"


class TestRefusalMakesNoOut:
    @pytest.mark.parametrize(
        "case", ["tour", "compare", "assess", "asymmetry", "warp", "diff", "register", "pca", "split-affine"]
    )
    def test_refused_in_the_handler(self, cohort, tmp_path, capsys, monkeypatch, case):
        argv, code, message = refusal(case, cohort, tmp_path, monkeypatch)
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "out") == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert_no_child_left()


class TestRefusedBeforeInput:
    """An --out that no run could make, and a --p or a cohort size the listed
    cohort cannot support, are refused before any input is read."""

    @staticmethod
    def no_reads(monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("an input was read")

        for name in ("read_mesh", "load_mesh_directory", "load_model"):
            monkeypatch.setattr(f"surfshape.cli.{name}", fail)

    @pytest.mark.parametrize(
        "command",
        ["simulate", "register", "pca", "tour", "compare", "split-affine", "asymmetry", "assess", "warp", "diff"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_that_is_a_file(self, cohort, component_model, tmp_path, capsys, monkeypatch, command, below):
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept\n")
        self.no_reads(monkeypatch)
        capsys.readouterr()
        out = afile / "sub" if below else afile
        assert run(command, *inputs(command, cohort, component_model), "--out", out) == 2
        assert capsys.readouterr().err == f"error: validation: --out {afile} exists and is not a directory\n"
        assert afile.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_p_beyond_the_listing(self, cohort, tmp_path, capsys, monkeypatch):
        self.no_reads(monkeypatch)
        capsys.readouterr()
        meshes, out = cohort / "meshes", tmp_path / "out"
        assert run("compare", "--meshes", meshes, "--labels", cohort / "labels.csv", "--p", "15", "--out", out) == 2
        assert capsys.readouterr().err == f"error: validation: {meshes}: --p 15 needs at least 17 shapes, got 16\n"
        assert not out.exists()

    @staticmethod
    def first(cohort, tmp_path, n):
        """A directory of the cohort's first ``n`` meshes."""
        directory = tmp_path / f"first{n}"
        directory.mkdir()
        for path in sorted((cohort / "meshes").glob("*.obj"))[:n]:
            shutil.copy(path, directory)
        return directory

    @pytest.mark.parametrize("command", ["register", "pca", "split-affine"])
    def test_one_mesh_to_register(self, cohort, tmp_path, capsys, monkeypatch, command):
        one, out = self.first(cohort, tmp_path, 1), tmp_path / "out"
        self.no_reads(monkeypatch)
        capsys.readouterr()
        assert run(command, "--meshes", one, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: validation: {one}: generalized registration needs at least two shapes, got 1\n"
        )
        assert not out.exists()

    def test_four_controls(self, cohort, tmp_path, capsys, monkeypatch):
        four, out, shape = self.first(cohort, tmp_path, 4), tmp_path / "out", cohort / "meshes" / "shape_004.obj"
        self.no_reads(monkeypatch)
        capsys.readouterr()
        argv = ("--controls", four, "--pre", shape, "--post", shape, "--pairing", cohort / "pairing.csv")
        assert run("assess", *argv, "--out", out) == 2
        assert capsys.readouterr().err == f"error: validation: {four}: need at least 5 control shapes, got 4\n"
        assert not out.exists()

    def test_compare_reads_the_names_it_listed(self, cohort, tmp_path, capsys, monkeypatch):
        # a file renamed after the listing is not read in its place under another name
        meshes, out = self.first(cohort, tmp_path, 16), tmp_path / "out"
        listed = mesh_names(meshes)

        def list_then_rename(directory):
            (meshes / "shape_003.obj").rename(meshes / "shape_zzz.obj")
            return listed

        monkeypatch.setattr("surfshape.cli.mesh_names", list_then_rename)
        capsys.readouterr()
        argv = ("--meshes", meshes, "--labels", cohort / "labels.csv", "--p", "2", "--n-perm", "9")
        assert run("compare", *argv, "--out", out) == 2
        assert str(meshes / "shape_003.obj") in capsys.readouterr().err
        assert not out.exists()

    def test_n_perm_beyond_the_memory_limit(self, cohort, tmp_path, capsys, monkeypatch):
        # 10^10 permutations of 16 shapes on 2 components: 10^10 x (16 + 16 x 3) bytes
        self.no_reads(monkeypatch)
        capsys.readouterr()
        meshes, out = cohort / "meshes", tmp_path / "out"
        argv = ("--meshes", meshes, "--labels", cohort / "labels.csv", "--p", "2", "--n-perm", "10000000000")
        assert run("compare", *argv, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: validation: --n-perm 10000000000: 10,000,000,000 permutations of 16 shapes on 2 components"
            " need about 640,000,000,000 bytes, above the limit of 2,147,483,648 bytes (2 GiB)\n"
        )
        assert not out.exists()


class TestExitCodeByType:
    """The exit code follows the error's type, wherever the handler raises it."""

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ss.NumericalFailure("planted"), 3, "error: numerical: planted"),
            (np.linalg.LinAlgError("planted"), 3, "error: numerical: planted"),
            (ValueError("planted"), 2, "error: validation: planted"),
            (OSError("planted"), 2, "error: validation: planted"),
        ],
        ids=["NumericalFailure", "LinAlgError", "ValueError", "OSError"],
    )
    def test_mid_run_error(self, cohort, tmp_path, capsys, monkeypatch, error, code, prefix):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("surfshape.cli.affine_nonaffine_split", fail)
        assert run("split-affine", "--meshes", cohort / "meshes", "--out", tmp_path / "out") == code
        assert capsys.readouterr().err.strip() == prefix
        assert not (tmp_path / "out").exists()

    def test_other_exception_is_a_bug_with_a_traceback(self, cohort, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("planted")

        monkeypatch.setattr("surfshape.cli.affine_nonaffine_split", fail)
        with pytest.raises(RuntimeError, match="planted"):
            run("split-affine", "--meshes", cohort / "meshes", "--out", tmp_path / "out")

    def test_too_few_controls_is_exit_2(self, cohort, tmp_path, capsys):
        controls = tmp_path / "controls"
        controls.mkdir()
        for name in ("shape_000.obj", "shape_001.obj", "shape_002.obj", "shape_003.obj"):
            (controls / name).write_bytes((cohort / "meshes" / name).read_bytes())
        shape = cohort / "meshes" / "shape_004.obj"
        code = run(
            "assess", "--controls", controls, "--pre", shape, "--post", shape, "--pairing", cohort / "pairing.csv",
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert f"error: validation: {controls}: need at least 5 control shapes, got 4" in capsys.readouterr().err

    def test_one_group_labels_is_exit_2(self, cohort, tmp_path, capsys, monkeypatch):
        self.labels_refused(cohort, tmp_path, capsys, monkeypatch, groups=1)

    def test_three_group_labels_is_exit_2(self, cohort, tmp_path, capsys, monkeypatch):
        self.labels_refused(cohort, tmp_path, capsys, monkeypatch, groups=3)

    @staticmethod
    def labels_refused(cohort, tmp_path, capsys, monkeypatch, groups):
        # the labels are checked against the listed file names before any mesh is read
        names = sorted(p.name for p in (cohort / "meshes").glob("*.obj"))
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(f"{name},{'ABC'[i % groups]}\n" for i, name in enumerate(names)))
        monkeypatch.setattr("surfshape.cli.load_mesh_directory", lambda *a: pytest.fail("the cohort was read"))
        capsys.readouterr()
        code = run(
            "compare", "--meshes", cohort / "meshes", "--labels", labels, "--p", "2", "--n-perm", "9",
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert f"error: validation: {labels}: need exactly two groups, got {groups}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# One process per BLAS thread count; each simulates the cohort and runs the
# subcommands whose results sum over the whole (n, 3J) stack or over J vertices.
BLAS_PROBE = """
import sys
from surfshape.cli import main

out = sys.argv[1]
sim = f"{out}/sim"
cohort = ["--meshes", f"{sim}/meshes"]
test = [*cohort, "--labels", f"{sim}/labels.csv", "--p", "2", "--n-perm", "20", "--seed", "1"]
sides = ["--pairing", f"{sim}/pairing.csv", "--regions", f"{sim}/regions.csv"]
runs = {
    "sim": ["simulate", "--resolution", "5", "--group-sizes", "6,6", "--noise-sd", "0.01", "--asymmetry", "0.02",
            "--seed", "5"],
    "register-rigid": ["register", *cohort, "--rigid"],
    "pca": ["pca", *cohort],
    "compare": ["compare", *test],
    "compare-gss": ["compare", *test, "--mode", "group_shape_space"],
    "asymmetry": ["asymmetry", *cohort, *sides],
    "assess": ["assess", "--controls", f"{sim}/meshes", "--pre", f"{sim}/meshes/shape_000.obj",
               "--post", f"{sim}/meshes/shape_001.obj", *sides],
}
for name, argv in runs.items():
    assert main([*argv, "--out", f"{out}/{name}"]) == 0, name
"""


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # J = 4,098 and n = 12: large enough for a multithreaded BLAS to split its reductions
    src = str(Path(ss.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads),
        }
        result = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE, str(tmp_path / threads)], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
    assert artifact_bytes(tmp_path / "1") == artifact_bytes(tmp_path / "2")
