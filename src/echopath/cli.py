"""Scenario files, batch runs, metrics and exports, plus demo subcommands."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from .geometry import Hyperplane, Wall
from .reconstruction import MicArray, SourceRegistry, locate_step, pose_to_euler
from .simulator import (
    Pose,
    Scenario,
    ambiguity_pair,
    echo_set_difference,
    generate_echoes,
    rotation_from_yaw_pitch_roll,
)
from .symmetry import (
    Arrangement,
    ConcurrentLinesError,
    dihedral_counterexample,
    genericity_check,
)


class ScenarioError(ValueError):
    """A scenario file could not be parsed or violates an invariant."""


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one emission: estimate, ground truth and bookkeeping."""

    step_index: int
    status: str  # "bootstrap", "success" or "fail"
    est_pose: Pose | None = None
    true_pose: Pose | None = None
    position_error: float | None = None
    orientation_error: float | None = None
    n_sources_known: int = 0
    n_sources_new: int = 0
    fail_reason: str | None = None

    def __post_init__(self):
        if self.status != "success" and not (
            self.position_error is None and self.orientation_error is None
        ):
            raise ValueError("errors are only defined for successful non-bootstrap steps")


@dataclass(frozen=True)
class Metrics:
    """Aggregates over the successful non-bootstrap steps of a run."""

    position_rmse: float | None
    max_position_error: float | None
    orientation_rmse: float | None
    fail_count: int
    bootstrap_step_index: int | None


def _require(cond: bool, where: str, message: str):
    if not cond:
        raise ScenarioError(f"{where}: {message}")


def _load_wall(entry, where: str) -> Wall:
    _require(isinstance(entry, dict), where, "expected a mapping with 'normal' and 'offset'")
    _require("normal" in entry and "offset" in entry, where, "needs 'normal' and 'offset'")
    normal = np.asarray(entry["normal"], dtype=float)
    offset = float(entry["offset"])
    norm = float(np.linalg.norm(normal))
    _require(norm > 0.0 and np.isfinite(norm), f"{where}.normal", "must be a nonzero vector")
    if abs(norm - 1.0) > 1e-12:
        warnings.warn(
            f"{where}.normal has length {norm:.6g}; renormalizing and rescaling the offset"
        )
    boundary = entry.get("boundary")
    try:
        return Wall(Hyperplane(normal, offset), None if boundary is None else np.asarray(boundary, dtype=float))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _load_pose(entry, where: str) -> Pose:
    _require(isinstance(entry, dict), where, "expected a mapping")
    _require("position" in entry, where, "needs 'position'")
    if "orientation" in entry:
        a = np.asarray(entry["orientation"], dtype=float)
    else:
        a = rotation_from_yaw_pitch_roll(
            float(entry.get("yaw", 0.0)),
            float(entry.get("pitch", 0.0)),
            float(entry.get("roll", 0.0)),
        )
    try:
        return Pose(np.asarray(entry["position"], dtype=float), a)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (YAML key/value document)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    _require(isinstance(doc, dict), str(path), "top level must be a mapping")

    dimension = int(doc.get("dimension", 3))
    walls_doc = doc.get("walls")
    _require(isinstance(walls_doc, list) and walls_doc, "walls", "need a nonempty list")
    walls = tuple(_load_wall(w, f"walls[{i}]") for i, w in enumerate(walls_doc))

    mic_local = None
    if doc.get("mic_local") is not None:
        mic_local = np.asarray(doc["mic_local"], dtype=float)
    path_poses = tuple(
        _load_pose(p, f"path[{i}]") for i, p in enumerate(doc.get("path") or [])
    )
    speaker = None if doc.get("speaker") is None else np.asarray(doc["speaker"], dtype=float)

    try:
        return Scenario(
            walls=walls,
            speaker=speaker,
            mic_local=mic_local,
            path=path_poses,
            noise_sigma=float(doc.get("noise_sigma", 0.0)),
            seed=int(doc.get("seed", 0)),
            occlusion_enabled=bool(doc.get("occlusion", True)),
            speaker_on_vehicle=bool(doc.get("speaker_on_vehicle", False)),
            dimension=dimension,
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _rotation_angle(r: np.ndarray) -> float:
    # atan2 of the angle's sine (from the skew part) and cosine (from the
    # trace): arccos of the trace alone turns a round-off deficit d in the
    # trace into an angle of about sqrt(d).
    skew = r - r.T
    sine = np.linalg.norm((skew[2, 1], skew[0, 2], skew[1, 0])) / 2.0
    return float(np.arctan2(sine, (np.trace(r) - 1.0) / 2.0))


def to_frozen_frame(bootstrap: Pose, pose: Pose) -> Pose:
    """Re-express a world pose in the vehicle frame of the bootstrap pose."""
    return Pose(bootstrap.A.T @ (pose.v - bootstrap.v), bootstrap.A.T @ pose.A)


def run(scenario: Scenario):
    """Simulate and reconstruct every pose of the scenario path.

    Per-step failures are recorded and the run continues with the registry
    from the last successful step. Ground truth is re-expressed in the frozen
    frame fixed by the bootstrap step before errors are computed.
    """
    if scenario.dimension != 3 or scenario.mic_local is None or not scenario.path:
        raise ScenarioError("run requires a 3-d scenario with microphones and a path")
    mics = MicArray(scenario.mic_local)
    registry = SourceRegistry()
    records: list[RunRecord] = []
    bootstrap_pose: Pose | None = None
    bootstrap_index: int | None = None

    for idx, pose in enumerate(scenario.path):
        echoes = generate_echoes(scenario, pose, idx)
        n_known = len(registry)
        result = locate_step(registry, mics, echoes, scenario.noise_sigma)
        n_new = len(result.new_sources) if result.new_sources is not None else 0
        if result.status == "fail":
            records.append(
                RunRecord(idx, "fail", n_sources_known=n_known, fail_reason=result.fail_reason)
            )
        elif result.pose is None:
            bootstrap_pose = pose
            bootstrap_index = idx
            records.append(
                RunRecord(idx, "bootstrap", n_sources_known=n_known, n_sources_new=n_new)
            )
        else:
            truth = to_frozen_frame(bootstrap_pose, pose)
            records.append(
                RunRecord(
                    idx,
                    "success",
                    est_pose=result.pose,
                    true_pose=truth,
                    position_error=float(np.linalg.norm(result.pose.v - truth.v)),
                    orientation_error=_rotation_angle(result.pose.A.T @ truth.A),
                    n_sources_known=n_known,
                    n_sources_new=n_new,
                )
            )

    fail_count = sum(r.status == "fail" for r in records)
    succ = [r for r in records if r.status == "success"]
    if not succ:
        return records, Metrics(None, None, None, fail_count, bootstrap_index)
    pos = np.array([r.position_error for r in succ])
    ori = np.array([r.orientation_error for r in succ])
    return records, Metrics(
        position_rmse=float(np.sqrt(np.mean(pos**2))),
        max_position_error=float(np.max(pos)),
        orientation_rmse=float(np.sqrt(np.mean(ori**2))),
        fail_count=fail_count,
        bootstrap_step_index=bootstrap_index,
    )


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _sig12_floats(d: dict) -> dict:
    return {k: (_sig12(v) if isinstance(v, float) else v) for k, v in d.items()}


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


CSV_COLUMNS = [
    "step", "status", "vx", "vy", "vz", "yaw", "pitch", "roll",
    "pos_err", "ori_err", "n_known", "n_new",
]


def _record_row(r: RunRecord) -> dict:
    row = {
        "step": r.step_index,
        "status": r.status,
        "vx": None, "vy": None, "vz": None,
        "yaw": None, "pitch": None, "roll": None,
        "pos_err": r.position_error,
        "ori_err": r.orientation_error,
        "n_known": r.n_sources_known,
        "n_new": r.n_sources_new,
    }
    if r.est_pose is not None:
        row["vx"], row["vy"], row["vz"] = (float(c) for c in r.est_pose.v)
        row["yaw"], row["pitch"], row["roll"] = pose_to_euler(r.est_pose.A)
    return row


def export(records, metrics: Metrics, path, fmt: str = "csv"):
    """Write run records (and, for JSON, the metrics) with 12 significant digits."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            row = _record_row(r)
            writer.writerow(
                [row["step"], row["status"]]
                + [_fmt(row[c]) for c in CSV_COLUMNS[2:10]]
                + [row["n_known"], row["n_new"]]
            )
        payload = buf.getvalue()
    else:
        doc = {
            "records": [_sig12_floats(_record_row(r)) for r in records],
            "metrics": _sig12_floats(asdict(metrics)),
        }
        payload = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {text!r}") from exc


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.noise is not None:
        overrides["noise_sigma"] = args.noise
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    records, metrics = run(scenario)
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
    p_gen.add_argument("--tol", type=float, default=1e-9)
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
    except ValueError as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
