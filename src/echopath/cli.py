"""The echopath command line: run a scenario file, plus demo subcommands."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .pipeline import export, load_scenario, run
from .simulator import ambiguity_pair, echo_set_difference
from .symmetry import (
    DEFAULT_GENERICITY_TOL,
    Arrangement,
    ConcurrentLinesError,
    dihedral_counterexample,
    genericity_check,
)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {text!r}") from exc


def _open_output(path) -> bool:
    """Open path for writing, so an unwritable path fails before any step
    runs; True if this created the file."""
    try:
        open(path, "x", encoding="utf-8").close()
        return True
    except FileExistsError:
        open(path, "a", encoding="utf-8").close()
        return False


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.noise is not None:
        overrides["noise_sigma"] = args.noise
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    created = bool(args.out) and _open_output(args.out)
    try:
        records, metrics = run(scenario)
    except BaseException:
        if created:  # a file that existed before is left as it was
            os.remove(args.out)
        raise
    for r in records:
        if r.status == "success":
            print(
                f"step {r.step_index}: success pos_err={r.position_error:.3e} "
                f"ori_err={r.orientation_error:.3e} known={r.n_sources_known} new={r.n_sources_new}"
            )
        elif r.status == "bootstrap":
            print(f"step {r.step_index}: bootstrap registered={r.n_sources_new}")
        else:
            print(f"step {r.step_index}: FAIL ({r.fail_reason})")
    if metrics.position_rmse is not None:
        print(f"position_rmse={metrics.position_rmse:.6e} m")
        print(f"max_position_error={metrics.max_position_error:.6e} m")
        print(f"orientation_rmse={metrics.orientation_rmse:.6e} rad")
    print(f"fail_count={metrics.fail_count}")
    print(f"bootstrap_step_index={metrics.bootstrap_step_index}")
    if args.out:
        export(records, metrics, args.out, args.format)
        print(f"wrote {args.out}")
    return 0


def _cmd_genericity(args) -> int:
    scenario = load_scenario(args.scenario)
    arrangement = Arrangement(tuple(w.plane for w in scenario.walls), scenario.dimension)
    speaker = args.speaker if args.speaker is not None else scenario.speaker
    if speaker is None:
        print("no speaker position given (use --speaker)", file=sys.stderr)
        return 1
    if args.speaker is None and scenario.speaker_on_vehicle:
        print("the scenario's speaker rides on the vehicle (use --speaker)", file=sys.stderr)
        return 1
    try:
        report = genericity_check(arrangement, speaker, tol=args.tol)
    except ConcurrentLinesError as exc:
        print(f"arrangement rejected: {exc}", file=sys.stderr)
        return 1
    if report.passed:
        print(f"passed: speaker {np.asarray(speaker).tolist()} breaks all wall symmetries")
    else:
        print(f"failed: factor {report.failed_factor} vanishes")
    return 0


def _cmd_counterexample(args) -> int:
    arrangement = dihedral_counterexample(args.k)
    point = args.point if args.point is not None else np.array([2.0, 1.0])
    print(f"{len(arrangement)} lines through the origin:")
    for i, h in enumerate(arrangement.hyperplanes):
        print(f"  line {i}: normal=({h.normal[0]:.6f}, {h.normal[1]:.6f}) offset={h.offset:.6f}")
    refl = arrangement.reflections(point)
    print(f"reflections of {point.tolist()}:")
    for i, w in enumerate(refl):
        print(f"  w{i} = ({w[0]:.9f}, {w[1]:.9f})")
    print("pairwise distances:")
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            print(f"  |w{i} - w{j}| = {np.linalg.norm(refl[i] - refl[j]):.9f}")
    return 0


def _cmd_ambiguity(args) -> int:
    scenario = load_scenario(args.scenario)
    pa, pb, ea, eb = ambiguity_pair(scenario, args.pose_a, args.pose_b)
    for name, pose, echoes in (("a", pa, ea), ("b", pb, eb)):
        print(f"pose {name}: v={pose.v.tolist()}")
        for k, entries in enumerate(echoes.d_sets):
            formatted = ", ".join(f"{x:.9f}" for x in entries)
            print(f"  mic {k}: {{{formatted}}}")
    print(f"max set-difference: {echo_set_difference(ea, eb):.3e} m")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="echopath",
        description="Vehicle path reconstruction from first-order echoes of a fixed loudspeaker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario path and reconstruct it")
    p_run.add_argument("scenario")
    p_run.add_argument("--noise", type=float, default=None, help="override noise_sigma (m)")
    p_run.add_argument("--seed", type=int, default=None, help="override the noise seed")
    p_run.add_argument("--out", default=None, help="write records to this file")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("genericity", help="check a speaker position for symmetry breaking")
    p_gen.add_argument("scenario")
    p_gen.add_argument("--speaker", type=_parse_point, default=None, help="x,y[,z]")
    p_gen.add_argument("--tol", type=float, default=DEFAULT_GENERICITY_TOL)
    p_gen.set_defaults(func=_cmd_genericity)

    p_ctr = sub.add_parser("counterexample", help="line arrangement defeating symmetry breaking")
    p_ctr.add_argument("--k", type=int, default=3, help="number of lines (>= 3)")
    p_ctr.add_argument("--point", type=_parse_point, default=None, help="x,y")
    p_ctr.set_defaults(func=_cmd_counterexample)

    p_amb = sub.add_parser("ambiguity", help="compare the echo sets of two path poses")
    p_amb.add_argument("scenario")
    p_amb.add_argument("--pose-a", type=int, default=0)
    p_amb.add_argument("--pose-b", type=int, default=1)
    p_amb.set_defaults(func=_cmd_ambiguity)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
