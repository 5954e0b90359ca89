"""Command-line front end: one subcommand per pipeline stage.

``main`` is the only runner. It parses the options, each line of a --config
file becoming option tokens before the command line's (a flag wins); each
option's argparse type refuses a value of the wrong type, choice or range.
``check_options`` refuses a missing or conflicting option, and an --out whose
nearest existing path (itself or a parent) is not a directory, all before any
input is read. The subcommand's handler then
checks the rules that need other options or the data and does its work,
writing nothing: it returns a summary line and the ``write_files`` items of
its artifacts, paths relative to --out.
Only then does the runner make --out and the items' directories, write them in
one ``write_files`` call, then manifest.json (tool version, resolved options,
seed), and print the line: a refused run makes no --out. Identical options and
seed give byte-identical artifacts (only the manifest timestamp differs).

Exit codes follow the type of the error, not the stage that raised it:
0 success; 2 for any ``ValueError``, ``OSError`` or ``argparse.ArgumentError``,
i.e. a bad input or option, including one found mid-run (such as fewer than 5
controls); 3 for a ``NumericalFailure`` or ``np.linalg.LinAlgError`` only. Any
other exception is a bug and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .fpca import FpcaModel, fit_fpca, grand_tour, scores_from_tangent
from .groupcompare import COMPONENT_P_VALUE_CAVEAT, PERMUTATION_MODES, affine_nonaffine_split, permutation_test
from .individual import ControlModel, _checked_regions, asymmetry_report, fit_control_model, integrated_assessment
from .io import (
    ColorMap,
    csv_table,
    labels_table,
    load_mesh_directory,
    load_model,
    mesh_names,
    pairing_table,
    read_labels,
    read_mesh,
    read_pairing,
    read_regions,
    read_weight_overrides,
    regions_table,
    write_files,
)
from .mesh import DIFFERENCE_MODES, NumericalFailure, ShapeSample, SurfaceMesh, check_correspondence
from .mesh import shape_difference_field
from .registration import MIN_TOL, SIZE_CONSTRAINTS, GpaResult, _tangent_over_stack, weighted_gpa
from .synth import SynthConfig, synth_cohort
from .warp import apply_warp, check_tps_size, fit_tps

def parse_with_config(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse the subcommand of ``args`` again, with the lines of its --config file
    as option tokens placed before the command line's: argparse types and checks
    every value, and a flag on the command line wins. '#' starts a comment, keys
    are long option names with - or _ interchangeable, and a later line of a key
    replaces an earlier one. A value becomes ``--key=value``; a store-true key
    becomes ``--key`` when true and no token when false. A refusal names the
    file and the line."""
    parser, path = args.parser, args.config
    options = {s: a for a in parser._actions for s in a.option_strings if s not in ("-h", "--help", "--config")}
    values: dict[str, tuple[int, str]] = {}
    with open(path, "r", encoding="latin-1") as fh:  # every byte decodes, so a non-ASCII one is named by line
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not raw.isascii():
                raise ValueError(f"{path}: line {lineno}: non-ASCII byte")
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if _flag(key) not in options:
                raise ValueError(f"{path}: line {lineno}: {_flag(key)} is not a config option of {parser.prog}")
            if value == "--":  # see check_options
                raise ValueError(f"{path}: line {lineno}: {_flag(key)} needs a value, got '--'")
            values[_flag(key)] = lineno, value
    tokens = []
    for flag, (lineno, value) in values.items():
        if not isinstance(options[flag], argparse._StoreTrueAction):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("true", "1", "yes", "on"):
            tokens.append(flag)
        elif value.lower() not in ("false", "0", "no", "off"):
            raise ValueError(f"{path}: line {lineno}: {flag} expected a boolean, got {value!r}")
    rest = argv[argv.index(args.command) + 1 :]
    try:
        return parser.parse_args([*tokens, *rest], argparse.Namespace(command=args.command))
    except argparse.ArgumentError as err:
        raise ValueError(f"{path}: line {values[err.argument_name][0]}: {err.argument_name} {err.message}") from None


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _ranged(convert, within, what: str):
    """An argparse type: ``convert`` the text, then refuse a value not ``within`` as '``what``, got <value>'."""
    def checked(text: str):
        if not within(value := convert(text)):
            raise argparse.ArgumentTypeError(f"{what}, got {value}")
        return value
    checked.__name__ = convert.__name__  # argparse calls a text that does not convert an 'invalid int value'
    return checked


def _path(text: str) -> Path:
    """An argparse type: a path, refusing the empty text, which Path reads as the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("needs a path, got ''")
    return Path(text)


COUNT = _ranged(int, lambda v: v >= 1, "must be at least 1")
NATURAL = _ranged(int, lambda v: v >= 0, "must be at least 0")
FINITE = _ranged(float, np.isfinite, "must be finite")
FRACTION = _ranged(float, lambda v: 0 < v < 1, "must lie in (0, 1)")
TOL = _ranged(float, lambda v: np.isfinite(v) and v >= MIN_TOL, f"must be finite and at least {MIN_TOL:g}")
# Options that exclude each other wherever a subcommand takes both.
EXCLUSIVE_OPTIONS = (("components", "variance"), ("n_shapes", "group_sizes"))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_bounds(lo: float, hi: float) -> None:
    if not lo < hi:
        raise ValueError(f"--lo must be below --hi, got {lo:g} and {hi:g}")


def check_options(args: argparse.Namespace) -> None:
    """Refuse an option whose value is '--', missing required options, an
    --out that is not a directory, options given together that exclude each
    other, then the subcommands' rules that tie options together without the
    data, naming them (argparse checked each value)."""
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads --name=-- as an empty list, skipping type and choices
            raise ValueError(f"{_flag(name)} needs a value, got '--'")
    missing = [n for n in args.required if getattr(args, n) is None]
    if missing:
        raise ValueError("missing required options: " + ", ".join(map(_flag, missing)))
    # --out is made only after the run: refuse here one that no run could make
    existing = next(path for path in (args.out, *args.out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {existing} exists and is not a directory")
    for a, b in EXCLUSIVE_OPTIONS:
        if getattr(args, a, None) is not None and getattr(args, b, None) is not None:
            raise ValueError(f"give either {_flag(a)} or {_flag(b)}, not both")
    if args.command == "assess":
        if (args.controls is None) == (args.model is None):
            raise ValueError("give exactly one of --controls or --model")
        if args.model is not None and args.variance is not None:
            raise ValueError("--variance applies only with --controls")
    if args.command == "asymmetry" and args.per_region_registration and args.regions is None:
        raise ValueError("--per-region-registration needs --regions")
    if getattr(args, "lo", None) is not None and getattr(args, "hi", None) is not None:
        _check_bounds(args.lo, args.hi)
    if args.command == "simulate":
        _synth_config(args)


def write_manifest(out: Path, command: str, args: argparse.Namespace) -> None:
    skip = ("handler", "parser", "required", "command", "config")
    options = {k: str(v) if isinstance(v, Path) else v for k, v in sorted(vars(args).items()) if k not in skip}
    doc = {
        "tool": "surfshape",
        "version": __version__,
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "options": options,
        "seed": options.get("seed"),
    }
    write_files([(out / "manifest.json", doc)])


def _registered_cohort(args) -> tuple[list[str], SurfaceMesh, tuple[str, ...] | None, GpaResult]:
    """The names, the first mesh (the topology), the labels and the GPA of
    --meshes; the cohort itself is released. A --labels file must label each
    listed name, in exactly two groups, and the listing hold enough shapes for
    --p components, before any mesh is read; --weight-overrides is read once
    the meshes give the vertex count."""
    labels = None
    if getattr(args, "labels", None):
        table, names = read_labels(args.labels), mesh_names(args.meshes)
        missing = [n for n in names if n not in table]
        if missing:
            raise ValueError(f"{args.labels}: labels file misses entries for: {', '.join(missing)}")
        labels = tuple(table[n] for n in names)
        if len(set(labels)) != 2:
            raise ValueError(f"{args.labels}: need exactly two groups, got {len(set(labels))}")
        if len(names) < args.p + 2:  # compare, the one subcommand with --labels, fits --p components
            raise ValueError(f"{args.meshes}: --p {args.p} needs at least {args.p + 2} shapes, got {len(names)}")
    names, meshes = load_mesh_directory(args.meshes)
    sample = ShapeSample(tuple(meshes), labels=labels)
    overrides = None
    if getattr(args, "weight_overrides", None):
        overrides = read_weight_overrides(args.weight_overrides, sample.n_vertices)
    gpa = weighted_gpa(
        sample,
        max_iter=args.max_iter,
        tol=args.tol,
        size_constraint=args.size_constraint,
        allow_scaling=not args.rigid,
        weight_overrides=overrides,
    )
    return names, sample.meshes[0], sample.labels, gpa


def _painted(path: Path, mesh: SurfaceMesh, field: np.ndarray, diverging: bool = False) -> tuple:
    """The ``write_files`` item of ``field`` painted on ``mesh``, the colour map
    spanning its largest magnitude (1 if all zero)."""
    span = float(np.abs(field).max()) or 1.0
    cmap = ColorMap("diverging", lo=-span, hi=span) if diverging else ColorMap("sequential", lo=0.0, hi=span)
    return path, mesh, field, cmap


# ---------------------------------------------------------------- subcommands


def cmd_register(args) -> tuple[str, list]:
    names, topology, _, result = _registered_cohort(args)
    header = ["filename", "scale", *(f"r{i}{j}" for i in range(3) for j in range(3)), "tx", "ty", "tz"]
    rows = ((name, t.scale, *t.rotation.ravel(), *t.translation) for name, t in zip(names, result.transforms))
    return f"registered {len(names)} shapes in {result.iterations} iterations (converged={result.converged})", [
        *((Path("aligned", name), topology.with_vertices(verts)) for name, verts in zip(names, result.aligned)),
        ("mean.obj", topology.with_vertices(result.mean)),
        ("transforms.csv", csv_table(header, rows)),
        ("objective.csv", csv_table(("iteration", "objective"), enumerate(result.objective_trace, start=1))),
    ]


def cmd_pca(args) -> tuple[str, list]:
    names, topology, _, gpa = _registered_cohort(args)
    tangent = _tangent_over_stack(gpa)
    model = fit_fpca(tangent, gpa.mean_weights, k=args.components or args.variance or 0.80, mean_shape=gpa.mean)
    score_rows = scores_from_tangent(model, tangent)
    header = ["filename", *(f"pc{k + 1}" for k in range(model.n_components))]
    return f"fitted {model.n_components} components explaining {model.explained[-1]:.1%} of variance", [
        ("model.json", model),
        ("mean.obj", topology.with_vertices(gpa.mean)),
        ("scores.csv", csv_table(header, ((name, *row) for name, row in zip(names, score_rows)))),
    ]


def cmd_tour(args) -> tuple[str, list]:
    model = load_model(args.model)
    if not isinstance(model, FpcaModel):
        raise ValueError(f"{args.model}: not a component model")
    topology = read_mesh(args.topology)
    if topology.n_vertices != len(model.mean):
        raise ValueError(f"{args.topology}: vertex count {topology.n_vertices} != {len(model.mean)} of {args.model}")
    p = args.components or model.n_components
    if p > model.n_components:
        raise ValueError(f"--components must be at most {model.n_components}, got {p}")
    tour = grand_tour(model, p=p, n_stops=args.stops, seed=args.seed, frames_per_leg=args.frames_per_leg)
    doc = {
        "n_frames": int(tour.frames.shape[0]),
        "stop_indices": tour.stop_indices,
        "z_vectors": tour.z_vectors,
        "seed": args.seed,
        "components": p,
    }
    frames = [(f"tour_{i:04d}.obj", topology.with_vertices(frame)) for i, frame in enumerate(tour.frames)]
    return f"wrote {tour.frames.shape[0]} tour frames", frames + [("tour.json", doc)]


def cmd_compare(args) -> tuple[str, list]:
    _, _, labels, gpa = _registered_cohort(args)
    report = permutation_test(
        _tangent_over_stack(gpa),
        labels,
        p=args.p,
        weights=gpa.mean_weights,
        n_perm=args.n_perm,
        seed=args.seed,
        mode=args.mode,
        bonferroni_alpha=args.bonferroni,
    )
    quartiles = report.permuted_quartiles()
    doc = {
        "groups": list(report.group_names),
        "mode": args.mode,
        "n_components": args.p,
        "global_stat": report.global_stat,
        "global_p": report.global_p,
        "component_stats": report.component_stats,
        "component_p": report.component_p,
        "bonferroni_alpha": report.bonferroni_alpha,
        "significant_components": list(report.significant),
        "n_perm": args.n_perm,
        "seed": args.seed,
        "permuted_quartiles": {"global": quartiles["global"], "components": quartiles["components"]},
        "note": COMPONENT_P_VALUE_CAVEAT,
    }
    rows = [("global", report.global_stat, report.global_p, "")]
    for i in range(args.p):
        flag = "true" if (i + 1) in report.significant else "false"
        rows.append((i + 1, report.component_stats[i], report.component_p[i], flag))
    table = csv_table(("component", "statistic", "p_value", "significant"), rows)
    significant = list(report.significant) or "none"
    line = f"global statistic {report.global_stat:.4g} (p={report.global_p:.4g}); significant components: {significant}"
    return line, [("report.json", doc), ("report.csv", table)]


def cmd_split_affine(args) -> tuple[str, list]:
    names, topology, _, gpa = _registered_cohort(args)
    affine, nonaffine, alphas = affine_nonaffine_split(gpa.aligned, gpa.mean)
    items = [("mean.obj", topology.with_vertices(gpa.mean))]
    for sub, stack in (("affine", affine), ("nonaffine", nonaffine)):
        items += [(Path(sub, name), topology.with_vertices(verts)) for name, verts in zip(names, stack)]
    items.append(("coefficients.json", {"filenames": names, "coefficients": alphas}))
    return f"split {len(names)} shapes into affine and non-affine parts", items


def cmd_asymmetry(args) -> tuple[str, list]:
    names, meshes = load_mesh_directory(args.meshes)
    pairing = read_pairing(args.pairing, meshes[0].n_vertices)
    regions = read_regions(args.regions, meshes[0].n_vertices) if args.regions else {}
    try:  # the per-region rule, once and with the file named, before the first shape is scored
        _checked_regions(regions, meshes[0].n_vertices, args.per_region_registration)
    except ValueError as err:
        raise ValueError(f"{args.regions}: {err}") from None
    rows, items = [], []
    for name, mesh in zip(names, meshes):
        report = asymmetry_report(
            mesh,
            pairing,
            regions,
            allow_scaling=not args.rigid,
            register_per_region=args.per_region_registration,
        )
        rows.append((name, "global", report.global_score))
        rows.extend((name, region, report.region_scores[region]) for region in sorted(report.region_scores))
        items.append(_painted(f"{Path(name).stem}_asymmetry.ply", mesh, report.per_vertex_distance))
        items.append((f"{Path(name).stem}_reflection.obj", mesh.with_vertices(report.matched_reflection)))
    items.append(("asymmetry.csv", csv_table(("filename", "region", "score_mm"), rows)))
    return f"scored {len(names)} shapes", items


def cmd_assess(args) -> tuple[str, list]:
    if args.controls is None:  # a file of the wrong kind is refused before the cases are read
        model = load_model(args.model)
        if not isinstance(model, ControlModel):
            raise ValueError(f"{args.model}: not a control model")
    pre = read_mesh(args.pre)
    post = read_mesh(args.post)
    if args.controls is not None:
        controls = load_mesh_directory(args.controls)[1]
        reference, what = controls[0], f"control cohort {args.controls}"
    else:
        reference, what = model.mean_mesh(), f"control model {args.model}"
    for path, mesh in ((args.pre, pre), (args.post, post)):
        check_correspondence(mesh, reference, what, str(path))
    pairing = read_pairing(args.pairing, pre.n_vertices)
    regions = read_regions(args.regions, pre.n_vertices) if args.regions else {}
    items = []
    if args.controls is not None:
        model = fit_control_model(ShapeSample(tuple(controls)), args.variance or 0.80, pairing, regions)
        items.append(("control_model.json", model))
    assessment = integrated_assessment(model, pre, post, pairing, regions)
    items.append(("assessment.json", assessment.document))
    for name, (mesh, field) in sorted(assessment.artifacts.items()):
        diverging = name.endswith("_normal")
        items.append((f"{name}.obj", mesh) if field is None else _painted(f"{name}.ply", mesh, field, diverging))
    return "assessment written", items


def cmd_warp(args) -> tuple[str, list]:
    source = read_mesh(args.source)
    target = read_mesh(args.target)
    template = read_mesh(args.template)
    if source.n_vertices != target.n_vertices:
        raise ValueError(f"{args.target}: vertex count {target.n_vertices} != {source.n_vertices} of {args.source}")
    try:
        check_tps_size(source.n_vertices)
    except ValueError as err:
        raise ValueError(f"{args.source}: {err}") from None
    field = fit_tps(source.vertices, target.vertices, ridge=args.ridge)
    warped = template.with_vertices(apply_warp(field, template.vertices))
    doc = {
        "bending_energy": field.bending_energy,
        "bending_energy_by_coordinate": field.bending_energy_by_coordinate,
        "n_control_points": int(field.control_points.shape[0]),
    }
    return f"warped template ({field.bending_energy:.6g} bending energy)", [("warped.obj", warped), ("warp.json", doc)]


def _synth_config(args) -> SynthConfig:
    """The ``simulate`` options as a :class:`SynthConfig`, which refuses a bad recipe."""
    return SynthConfig(
        resolution=args.resolution,
        radii=args.radii,
        exponent=args.exponent,
        eigen_spectrum=args.spectrum,
        n_shapes=SynthConfig.n_shapes if args.n_shapes is None else args.n_shapes,
        group_sizes=args.group_sizes,
        group_shift_component=args.shift_component,
        group_shift_sd=args.shift_sd,
        asymmetry_magnitude=args.asymmetry,
        noise_sd=args.noise_sd,
        nuisance_rotation_deg=args.nuisance_rotation,
        nuisance_translation=args.nuisance_translation,
        nuisance_log_scale=args.nuisance_log_scale,
        standardize_scores=args.standardize,
        seed=args.seed,
    )


def cmd_simulate(args) -> tuple[str, list]:
    config = _synth_config(args)
    sample, truth = synth_cohort(config)
    names = [f"shape_{i:03d}.obj" for i in range(sample.n_shapes)]
    truth_doc = {
        "spectrum": truth.spectrum,
        "modes": truth.modes,
        "z": truth.z,
        "labels": list(sample.labels) if sample.labels else None,
        "shift_component": config.group_shift_component,
        "shift_sd": config.group_shift_sd,
        "seed": config.seed,
        "transforms": [
            {"scale": t.scale, "rotation": t.rotation, "translation": t.translation} for t in truth.transforms
        ],
    }
    items = [
        *zip((Path("meshes", name) for name in names), sample.meshes),
        ("base.obj", truth.base_mesh),
        ("ground_truth.json", truth_doc),
        ("pairing.csv", pairing_table(truth.pairing)),
        ("regions.csv", regions_table(truth.base_mesh.regions or {})),
    ]
    if sample.labels is not None:
        items.append(("labels.csv", labels_table(dict(zip(names, sample.labels)))))
    return f"simulated {sample.n_shapes} shapes with {len(truth.spectrum)} planted modes", items


def cmd_diff(args) -> tuple[str, list]:
    base = read_mesh(args.base)
    other = read_mesh(args.other)
    check_correspondence(other, base, str(args.base), str(args.other))
    field = shape_difference_field(base, other, args.mode)
    span = float(np.abs(field).max()) or 1.0
    lo = args.lo if args.lo is not None else -span
    hi = args.hi if args.hi is not None else span
    _check_bounds(lo, hi)  # with one bound given, the other comes from the field
    if not lo <= args.reference <= hi:
        raise ValueError(f"--reference must lie in [--lo, --hi] = [{lo:g}, {hi:g}], got {args.reference:g}")
    cmap = ColorMap("diverging", lo=lo, hi=hi, reference=args.reference)
    return f"wrote difference field ({cmap.clamped(field)} values clamped)", [
        ("difference.csv", csv_table(("vertex_index", "value_mm"), enumerate(field))),
        ("difference.ply", base, field, cmap),
    ]


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surfshape", description=__doc__, exit_on_error=False)
    parser.add_argument("--version", action="version", version=f"surfshape {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name: str, handler, help_text: str, cohort: bool = False, required=()) -> argparse.ArgumentParser:
        """A subparser needing --out and the ``required`` options; ``cohort`` adds
        --meshes (required) and the GPA options of a registered cohort."""
        p = sub.add_parser(name, help=help_text, exit_on_error=False)
        p.set_defaults(handler=handler, parser=p, required=("out", *(("meshes",) if cohort else ()), *required))
        p.add_argument("--config", type=_path, default=None, help="flat key = value option file")
        p.add_argument("--out", type=_path, default=None, help="output directory")
        if cohort:
            p.add_argument("--meshes", type=_path, default=None, help="directory of .obj shapes")
            p.add_argument("--max-iter", type=COUNT, default=100, help="GPA iteration cap")
            p.add_argument("--tol", type=TOL, default=1e-10, help="relative objective change to stop")
            p.add_argument(
                "--size-constraint",
                choices=SIZE_CONSTRAINTS,
                default="unit_area",
                help="mean-surface size constraint",
            )
            p.add_argument("--rigid", action="store_true", help="rigid registration (no scaling)")
            p.add_argument(
                "--weight-overrides", type=_path, default=None,
                help="vertex_index,weight CSV replacing computed area weights (curve points)",
            )
        return p

    add("register", cmd_register, "generalized Procrustes registration of a mesh cohort", cohort=True)

    p = add("pca", cmd_pca, "functional principal components of a registered cohort", cohort=True)
    p.add_argument("--components", type=COUNT, default=None, help="fixed component count")
    p.add_argument("--variance", type=FRACTION, default=None, help="explained-variance fraction rule")

    p = add("tour", cmd_tour, "grand tour shape sequence from a fitted model", required=("model", "topology"))
    p.add_argument("--model", type=_path, default=None, help="model.json from pca")
    p.add_argument("--topology", type=_path, default=None, help="mesh supplying the triangulation")
    p.add_argument("--components", type=COUNT, default=None, help="tour dimensionality (default: all)")
    p.add_argument("--stops", type=COUNT, default=5)
    p.add_argument("--frames-per-leg", type=NATURAL, default=9)
    p.add_argument("--seed", type=NATURAL, default=None)

    p = add("compare", cmd_compare, "two-group permutation comparison", cohort=True, required=("labels", "p"))
    p.add_argument("--labels", type=_path, default=None, help="filename,label CSV")
    p.add_argument("--p", type=COUNT, default=None, help="number of components")
    p.add_argument("--n-perm", type=COUNT, default=500)
    p.add_argument("--seed", type=NATURAL, default=None)
    p.add_argument("--mode", choices=PERMUTATION_MODES, default="tangent_pca")
    p.add_argument("--bonferroni", type=FRACTION, default=None, help="override the 0.05/p threshold")

    add("split-affine", cmd_split_affine, "affine/non-affine decomposition of a cohort", cohort=True)

    p = add("asymmetry", cmd_asymmetry, "bilateral asymmetry scores", required=("meshes", "pairing"))
    p.add_argument("--meshes", type=_path, default=None)
    p.add_argument("--pairing", type=_path, default=None, help="index,mirror_index CSV")
    p.add_argument("--regions", type=_path, default=None, help="vertex_index,region_name CSV")
    p.add_argument("--rigid", action="store_true", help="match the mirror image without scaling")
    p.add_argument("--per-region-registration", action="store_true")

    p = add(
        "assess", cmd_assess, "integrated pre/post assessment against controls", required=("pre", "post", "pairing")
    )
    p.add_argument("--controls", type=_path, default=None, help="directory of control .obj shapes")
    p.add_argument("--model", type=_path, default=None, help="previously fitted control_model.json")
    p.add_argument("--pre", type=_path, default=None)
    p.add_argument("--post", type=_path, default=None)
    p.add_argument("--pairing", type=_path, default=None)
    p.add_argument("--regions", type=_path, default=None)
    p.add_argument("--variance", type=FRACTION, default=None, help="control component rule (default 0.80)")

    p = add("warp", cmd_warp, "thin-plate-spline warp of a template", required=("source", "target", "template"))
    p.add_argument("--source", type=_path, default=None, help="model points to warp from")
    p.add_argument("--target", type=_path, default=None, help="model points to warp onto")
    p.add_argument("--template", type=_path, default=None, help="mesh carried along the warp")
    p.add_argument("--ridge", type=FINITE, default=0.0)

    p = add("simulate", cmd_simulate, "synthetic cohort with planted ground truth")
    p.add_argument("--resolution", type=int, default=SynthConfig.resolution)
    p.add_argument("--radii", type=_comma_floats, default=SynthConfig.radii, help="rx,ry,rz")
    p.add_argument("--exponent", type=float, default=SynthConfig.exponent,
                   help="superellipsoid exponent; exponent 1 is the (stretched) sphere")
    p.add_argument("--spectrum", type=_comma_floats, default=SynthConfig.eigen_spectrum,
                   help="planted eigenvalues, decreasing")
    p.add_argument("--n-shapes", type=COUNT, default=None, help="cohort size without groups (default 20)")
    p.add_argument("--group-sizes", type=_comma_ints, default=None, help="nA,nB")
    p.add_argument("--shift-component", type=int, default=None)
    p.add_argument("--shift-sd", type=float, default=0.0)
    p.add_argument("--asymmetry", type=float, default=0.0)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--nuisance-rotation", type=float, default=0.0, help="degrees")
    p.add_argument("--nuisance-translation", type=float, default=0.0)
    p.add_argument("--nuisance-log-scale", type=float, default=0.0)
    p.add_argument("--standardize", action="store_true", help="exactly standardize mode draws")
    p.add_argument("--seed", type=NATURAL, default=None)

    p = add("diff", cmd_diff, "painted difference field between two corresponded meshes")
    p.add_argument("base", type=_path)
    p.add_argument("other", type=_path)
    p.add_argument("--mode", choices=DIFFERENCE_MODES, default="normal")
    p.add_argument("--lo", type=FINITE, default=None)
    p.add_argument("--hi", type=FINITE, default=None)
    p.add_argument("--reference", type=FINITE, default=0.0)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        if args.config is not None:
            args = parse_with_config(args, argv)
        check_options(args)
        summary, items = args.handler(args)
        items = [(args.out / path, *rest) for path, *rest in items]
        for directory in {args.out, *(path.parent for path, *_ in items)}:
            directory.mkdir(parents=True, exist_ok=True)
        write_files(items)
        write_manifest(args.out, args.command, args)
        print(summary)
        return 0
    except (NumericalFailure, np.linalg.LinAlgError) as err:
        print(f"error: numerical: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, argparse.ArgumentError) as err:  # a bad input or option, wherever it is found
        if isinstance(err, argparse.ArgumentError):  # as '--flag message', the form of every other option refusal
            err = " ".join(filter(None, (err.argument_name, err.message)))  # Python 3.13 names no flag for some
        print(f"error: validation: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
