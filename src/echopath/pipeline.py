"""Scenario files, batch runs over a scenario's path, their metrics and exports."""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from .geometry import Hyperplane, Wall
from .reconstruction import SourceRegistry, locate_step
from .simulator import Pose, Scenario, generate_echoes, pose_to_euler, rotation_from_yaw_pitch_roll


class ScenarioError(ValueError):
    """A scenario file could not be parsed or violates an invariant."""


@dataclass(frozen=True, eq=False, slots=True)
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


def _typed(doc: dict, key: str, default, kind, where: str | None = None):
    """doc[key] or default, of exact type kind: bool("false") is True, int(2.9) is 2.

    kind is a type or a tuple of types; errors name where, or else key.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    value = doc.get(key, default)
    names = " or ".join(k.__name__ for k in kinds)
    _require(type(value) in kinds, where or key, f"must be of type {names}, got {value!r}")
    return value


def _number(doc: dict, key: str, default, where: str | None = None) -> float:
    """doc[key] or default as a float, from a YAML int or float only (bool is not a number)."""
    return float(_typed(doc, key, default, (int, float), where))


def _numbers(value) -> bool:
    """True for a YAML int or float (bool is not a number) or a list of them, nested."""
    return type(value) in (int, float) or (type(value) is list and all(map(_numbers, value)))


def _coordinates(value, where: str) -> np.ndarray:
    """value as a float array, from YAML ints and floats only; anything else (a
    mapping, a string, a bool or a ragged list) is a ScenarioError naming where."""
    if _numbers(value):
        try:
            return np.asarray(value, dtype=float)
        except ValueError:  # a ragged list
            pass
    raise ScenarioError(f"{where}: must be an array of numbers, got {value!r}")


def _load_wall(entry, where: str) -> Wall:
    _require(isinstance(entry, dict), where, "expected a mapping with 'normal' and 'offset'")
    _require("normal" in entry and "offset" in entry, where, "needs 'normal' and 'offset'")
    normal = _coordinates(entry["normal"], f"{where}.normal")
    offset = _number(entry, "offset", None, f"{where}.offset")
    norm = float(np.linalg.norm(normal))
    _require(norm > 0.0 and np.isfinite(norm), f"{where}.normal", "must be a nonzero vector")
    if abs(norm - 1.0) > 1e-12:
        warnings.warn(
            f"{where}.normal has length {norm:.6g}; renormalizing and rescaling the offset"
        )
    boundary = entry.get("boundary")
    if boundary is not None:
        boundary = _coordinates(boundary, f"{where}.boundary")
    try:
        return Wall(Hyperplane(normal, offset), boundary)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _load_pose(entry, where: str) -> Pose:
    _require(isinstance(entry, dict), where, "expected a mapping")
    _require("position" in entry, where, "needs 'position'")
    if "orientation" in entry:
        a = _coordinates(entry["orientation"], f"{where}.orientation")
    else:
        a = rotation_from_yaw_pitch_roll(
            *(_number(entry, key, 0.0, f"{where}.{key}") for key in ("yaw", "pitch", "roll"))
        )
    position = _coordinates(entry["position"], f"{where}.position")
    try:
        return Pose(position, a)
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

    dimension = _typed(doc, "dimension", 3, int)
    walls_doc = doc.get("walls")
    _require(isinstance(walls_doc, list) and walls_doc, "walls", "need a nonempty list")
    walls = tuple(_load_wall(w, f"walls[{i}]") for i, w in enumerate(walls_doc))

    mic_local, speaker = (
        None if doc.get(key) is None else _coordinates(doc[key], key)
        for key in ("mic_local", "speaker")
    )
    path_doc = [] if doc.get("path") is None else doc["path"]
    _require(isinstance(path_doc, list), "path", f"need a list of poses, got {path_doc!r}")
    path_poses = tuple(_load_pose(p, f"path[{i}]") for i, p in enumerate(path_doc))

    try:
        return Scenario(
            walls=walls,
            speaker=speaker,
            mic_local=mic_local,
            path=path_poses,
            noise_sigma=_number(doc, "noise_sigma", 0.0),
            seed=_typed(doc, "seed", 0, int),
            occlusion_enabled=_typed(doc, "occlusion", True, bool),
            speaker_on_vehicle=_typed(doc, "speaker_on_vehicle", False, bool),
            dimension=dimension,
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _rotation_angle(r: np.ndarray) -> float:
    # atan2 of the angle's sine (from the skew part) and cosine (from the
    # trace): arccos of the trace alone turns a round-off deficit d in the
    # trace into an angle of about sqrt(d).
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    sine = math.hypot(r21 - r12, r02 - r20, r10 - r01) / 2.0
    return math.atan2(sine, (r00 + r11 + r22 - 1.0) / 2.0)


def to_frozen_frame(bootstrap: Pose, pose: Pose) -> Pose:
    """Re-express a world pose in the vehicle frame of the bootstrap pose."""
    bt = bootstrap.A.T  # ndarray.dot: the same products as @, without the ufunc's dispatch
    return Pose(bt.dot(pose.v - bootstrap.v), bt.dot(pose.A))


def run(scenario: Scenario):
    """Simulate and reconstruct every pose of the scenario path.

    Per-step failures are recorded and the run continues with the registry
    from the last successful step. Ground truth is re-expressed in the frozen
    frame fixed by the bootstrap step before errors are computed.
    """
    if scenario.mics is None or not scenario.path:  # microphones imply a 3-d scenario
        raise ScenarioError("run requires a 3-d scenario with microphones and a path")
    registry = SourceRegistry()
    records: list[RunRecord] = []
    bootstrap_pose: Pose | None = None
    bootstrap_index: int | None = None

    for idx, pose in enumerate(scenario.path):
        echoes = generate_echoes(scenario, pose, idx)
        n_known = len(registry)
        result = locate_step(registry, scenario.mics, echoes, scenario.noise_sigma)
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
                    position_error=math.dist(result.pose.v.tolist(), truth.v.tolist()),
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


def _fmt(x):
    return "" if x is None else x if isinstance(x, (int, str)) else f"{x:.12g}"


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
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
        payload = buf.getvalue()
    else:
        doc = {
            "records": [_sig12_floats(_record_row(r)) for r in records],
            "metrics": _sig12_floats(asdict(metrics)),
        }
        payload = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
