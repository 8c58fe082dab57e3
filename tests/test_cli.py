import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import box_scenario, tetra_mics

from echopath import ScenarioError, export, load_scenario, run
from echopath.cli import main
from echopath.pipeline import _rotation_angle, to_frozen_frame
from echopath.simulator import Pose, Scenario, rotation_from_yaw_pitch_roll
from echopath.geometry import Hyperplane, Wall


def test_load_box_scenario(scenario_dir):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    assert len(scn.walls) == 6
    assert scn.dimension == 3
    assert scn.mic_local.shape == (4, 3)
    assert len(scn.path) == 10
    assert not scn.occlusion_enabled


def test_load_2d_scenario(scenario_dir):
    scn = load_scenario(scenario_dir / "rect_room_2d.yaml")
    assert scn.dimension == 2
    assert len(scn.walls) == 4
    assert scn.mic_local is None


def test_load_rejects_coplanar_microphones(tmp_path):
    text = """
dimension: 3
walls:
  - {normal: [1, 0, 0], offset: 0.0}
speaker: [1, 1, 1]
mic_local: [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
"""
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="non-coplanar"):
        load_scenario(path)


def test_load_renormalizes_wall_normal_with_warning(tmp_path):
    text = """
dimension: 2
walls:
  - {normal: [2, 0], offset: 6.0}
  - {normal: [0, 1], offset: 0.0}
speaker: [1.0, 1.0]
"""
    path = tmp_path / "scaled.yaml"
    path.write_text(text)
    with pytest.warns(UserWarning, match="renormaliz"):
        scn = load_scenario(path)
    assert np.allclose(scn.walls[0].plane.normal, [1.0, 0.0])
    assert scn.walls[0].plane.offset == pytest.approx(3.0)  # same plane x = 3


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("offset: 0.0}", "offset: .nan}", "offset must be finite"),
        ("yaw: 0.4", "yaw: .nan", "orientation matrix must be finite"),
        ("noise_sigma: 0.0", "noise_sigma: .nan", "noise_sigma"),
        ("  - [0.24748737341529164,", "  - [.nan,", "mic_local coordinates must be finite"),
    ],
)
def test_load_rejects_non_finite_values(scenario_dir, tmp_path, old, new, message):
    path = tmp_path / "nan.yaml"
    path.write_text((scenario_dir / "box_room.yaml").read_text().replace(old, new, 1))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize(
    "old, new",
    [
        ("speaker_on_vehicle: false", 'speaker_on_vehicle: "false"'),
        ("occlusion: false", 'occlusion: "no"'),
        ("occlusion: false", "occlusion: 0"),
        ("seed: 20240601", "seed: 2.9"),
        ("seed: 20240601", "seed: true"),
        ("dimension: 3", "dimension: 3.7"),
    ],
)
def test_load_rejects_values_of_the_wrong_type(scenario_dir, tmp_path, old, new):
    # bool("false") is True and int(2.9) is 2: a coerced value would load.
    path = tmp_path / "typed.yaml"
    path.write_text((scenario_dir / "box_room.yaml").read_text().replace(old, new, 1))
    key = old.split(":")[0]
    with pytest.raises(ScenarioError, match=f"{key}: must be of type (int|bool), got"):
        load_scenario(path)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("noise_sigma: 0.0", "noise_sigma: true", "noise_sigma"),
        ("noise_sigma: 0.0", 'noise_sigma: "0.001"', "noise_sigma"),
        ("offset: 0.0}", "offset: false}", r"walls\[0\].offset"),
        ("yaw: 0.4", 'yaw: "0.4"', r"path\[1\].yaw"),
    ],
)
def test_load_rejects_numbers_given_as_bools_or_strings(scenario_dir, tmp_path, old, new, key):
    # float(True) is 1.0 and float("0.001") is 0.001: a coerced value would load.
    path = tmp_path / "typed.yaml"
    path.write_text((scenario_dir / "box_room.yaml").read_text().replace(old, new, 1))
    with pytest.raises(ScenarioError, match=f"{key}: must be of type int or float, got"):
        load_scenario(path)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("speaker: [1.1, 2.3, 1.7]", "speaker: {a: 1}", "speaker"),
        ("speaker: [1.1, 2.3, 1.7]", "speaker: [1.1, abc, 1.7]", "speaker"),
        ("speaker: [1.1, 2.3, 1.7]", 'speaker: ["1.1", "2.3", "1.7"]', "speaker"),
        ("normal: [1, 0, 0]", "normal: [true, 0, 0]", r"walls\[0\].normal"),
        ("normal: [1, 0, 0]", 'normal: "abc"', r"walls\[0\].normal"),
        ("offset: 0.0}", "offset: 0.0, boundary: {a: 1}}", r"walls\[0\].boundary"),
        ("position: [2.0, 1.5, 1.0]", "position: {x: 1}", r"path\[0\].position"),
        ("yaw: -0.8,", "orientation: [[1, 0, 0], [0, 1]],", r"path\[3\].orientation"),
        ("mic_local:\n  - [0.24748737341529164, ", "mic_local:\n  - [", "mic_local"),
    ],
    ids=[
        "speaker-mapping", "speaker-word", "speaker-strings", "normal-bool",
        "normal-string", "boundary-mapping",
        "position-mapping", "orientation-ragged", "mic_local-ragged",
    ],
)
def test_load_rejects_malformed_coordinates_naming_the_field(scenario_dir, tmp_path, old, new, key):
    # A mapping raised TypeError, and a word or a ragged list a ValueError that
    # named no field; numbers given as strings and true (as 1) loaded.
    path = tmp_path / "malformed.yaml"
    path.write_text((scenario_dir / "box_room.yaml").read_text().replace(old, new, 1))
    with pytest.raises(ScenarioError, match=f"^{key}: "):
        load_scenario(path)


def test_cli_run_reports_a_malformed_path_as_an_error(scenario_dir, tmp_path, capsys):
    # path: 5 raised TypeError from enumerate, which escaped main as a traceback.
    text = (scenario_dir / "box_room.yaml").read_text()
    path = tmp_path / "malformed.yaml"
    path.write_text(re.sub(r"path:\n(  - .*\n)+", "path: 5\n", text))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: path: ")


def test_load_accepts_integer_numbers(scenario_dir, tmp_path):
    text = (scenario_dir / "box_room.yaml").read_text()
    text = text.replace("offset: 6.0}", "offset: 6}").replace("yaw: 0.4,", "yaw: 1,")
    path = tmp_path / "ints.yaml"
    path.write_text(text.replace("noise_sigma: 0.0", "noise_sigma: 0"))
    scn = load_scenario(path)
    reference = load_scenario(scenario_dir / "box_room.yaml")
    assert scn.walls[1].plane.offset == reference.walls[1].plane.offset == 6.0
    assert scn.noise_sigma == 0.0
    assert np.allclose(scn.path[1].A, rotation_from_yaw_pitch_roll(1.0, -0.1, 0.05))


def test_load_rejects_a_reflected_orientation(scenario_dir, tmp_path):
    path = tmp_path / "mirrored.yaml"
    text = (scenario_dir / "box_room.yaml").read_text()
    mirror = "orientation: [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]"
    path.write_text(text.replace("yaw: -0.8, pitch: 0.15, roll: 0.25", mirror, 1))
    with pytest.raises(ScenarioError, match=r"^path\[3\]: .*reflection"):
        load_scenario(path)


def test_load_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("walls: [unclosed\n")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


def test_load_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("does_not_exist.yaml")


def test_run_noiseless_box(scenario_dir):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    records, metrics = run(scn)
    assert records[0].status == "bootstrap"
    assert all(r.status == "success" for r in records[1:])
    assert metrics.position_rmse <= 1e-6
    assert metrics.fail_count == 0
    assert metrics.bootstrap_step_index == 0


def test_run_records_carry_frozen_truth(scenario_dir):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    records, _ = run(scn)
    third = records[3]
    truth = to_frozen_frame(scn.path[0], scn.path[3])
    assert np.allclose(third.true_pose.v, truth.v)
    assert np.allclose(third.est_pose.v, truth.v, atol=1e-8)


def test_run_requires_three_dimensional_scenario(scenario_dir):
    scn = load_scenario(scenario_dir / "rect_room_2d.yaml")
    with pytest.raises(ScenarioError):
        run(scn)


def test_run_poses_are_orthogonal_and_orientation_preserving(scenario_dir):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    records, _ = run(scn)
    for r in records[1:]:
        a = r.est_pose.A
        assert np.max(np.abs(a.T @ a - np.eye(3))) <= 1e-8
        assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-8)


def test_frozen_frame_composes_back_to_world_truth(scenario_dir):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    records, metrics = run(scn)
    bootstrap = scn.path[metrics.bootstrap_step_index]
    for r in records:
        if r.status != "success":
            continue
        world = scn.path[r.step_index]
        assert np.allclose(bootstrap.A @ r.est_pose.v + bootstrap.v, world.v, atol=1e-6)
        assert np.allclose(bootstrap.A @ r.est_pose.A, world.A, atol=1e-6)


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_rotation_angle_of_near_identity_is_round_off_sized():
    # Trace deficit and orthogonality defect both about 1e-12: arccos of the
    # trace alone would report about 1e-6 rad.
    r = np.diag([1.0 - 5e-13, 1.0 - 5e-13, 1.0])
    r[0, 1] += 1e-14
    assert np.trace(r) - 3.0 == pytest.approx(-1e-12, rel=1e-3)
    assert np.max(np.abs(r.T @ r - np.eye(3))) == pytest.approx(1e-12, rel=1e-2)
    assert _rotation_angle(r) < 1e-9


@pytest.mark.parametrize("angle", [0.0, 1e-8, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-6, np.pi])
def test_rotation_angle_of_known_rotations(angle):
    rng = np.random.default_rng(7)
    for _ in range(5):
        r = axis_angle_rotation(rng.normal(size=3), angle)
        assert _rotation_angle(r) == pytest.approx(angle, abs=1e-12)
        assert _rotation_angle(r.T) == pytest.approx(angle, abs=1e-12)


def numpy_rotation_angle(r):
    """_rotation_angle in NumPy: the reference of its float arithmetic."""
    skew = r - r.T
    sine = np.linalg.norm((skew[2, 1], skew[0, 2], skew[1, 0])) / 2.0
    return float(np.arctan2(sine, (np.trace(r) - 1.0) / 2.0))


def test_frame_algebra_equals_the_matmul_forms():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b = (
            Pose(rng.uniform(-5.0, 5.0, size=3), rotation_from_yaw_pitch_roll(*rng.normal(size=3)))
            for _ in range(2)
        )
        frozen = to_frozen_frame(a, b)
        # 1e-15 per metre of the offset: a few ulps of its dot products.
        offset = b.v - a.v
        assert np.max(np.abs(frozen.v - a.A.T @ offset)) <= 1e-15 * np.abs(offset).max()
        assert np.max(np.abs(frozen.A - a.A.T @ b.A)) <= 1e-15
        for r in (a.A.T @ b.A, a.A, a.A @ a.A.T):
            assert abs(_rotation_angle(r) - numpy_rotation_angle(r)) <= 1e-15


def test_first_pose_deficient_bootstraps_later():
    patch = Wall(
        Hyperplane([0, 0, 1], 0.0),
        boundary=[[1, 2, 0], [2, 2, 0], [2, 3, 0], [1, 3, 0]],
    )
    walls = (Wall(Hyperplane([1, 0, 0], 0.0)), Wall(Hyperplane([0, 1, 0], 0.0)), patch)
    scn = Scenario(
        walls=walls,
        speaker=[1.5, 2.5, 1.0],
        mic_local=tetra_mics(0.5),
        path=(
            Pose([4.5, 0.8, 1.2], np.eye(3)),  # reflection ray misses the patch
            Pose([1.5, 2.5, 0.9], np.eye(3)),  # directly above the patch
            Pose([1.4, 2.6, 1.1], np.eye(3)),
        ),
        occlusion_enabled=True,
    )
    records, metrics = run(scn)
    assert [r.status for r in records] == ["fail", "bootstrap", "success"]
    assert metrics.bootstrap_step_index == 1
    assert metrics.fail_count == 1


def test_export_csv_header_only_for_empty(tmp_path):
    from echopath import Metrics

    out = tmp_path / "empty.csv"
    export([], Metrics(None, None, None, 0, None), out, "csv")
    lines = out.read_text().splitlines()
    assert lines == ["step,status,vx,vy,vz,yaw,pitch,roll,pos_err,ori_err,n_known,n_new"]


def test_export_csv_rows_and_determinism(scenario_dir, tmp_path):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    records, metrics = run(scn)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export(records, metrics, out1, "csv")
    records2, metrics2 = run(scn)
    export(records2, metrics2, out2, "csv")
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 11
    assert lines[1].startswith("0,bootstrap,")
    row3 = lines[4].split(",")
    assert row3[0] == "3" and row3[1] == "success"
    assert len(row3) == 12


def test_export_json_round_trip(scenario_dir, tmp_path):
    scn = load_scenario(scenario_dir / "box_room.yaml")
    records, metrics = run(scn)
    out = tmp_path / "run.json"
    export(records, metrics, out, "json")
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 10
    assert doc["metrics"]["fail_count"] == 0
    # serializing the parsed document again reproduces the file exactly
    again = tmp_path / "run2.json"
    again.write_text(json.dumps(doc, indent=2) + "\n")
    assert again.read_bytes() == out.read_bytes()


def test_export_rejects_unknown_format(tmp_path):
    from echopath import Metrics

    with pytest.raises(ValueError):
        export([], Metrics(None, None, None, 0, None), tmp_path / "x", "xml")


def test_cli_run_writes_output(scenario_dir, tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(["run", str(scenario_dir / "box_room.yaml"), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "bootstrap" in captured
    assert "position_rmse" in captured
    assert out.exists()


def test_cli_run_reports_an_unwritable_output_as_an_error(scenario_dir, tmp_path, capsys):
    # export's FileNotFoundError escaped main as a traceback after the steps;
    # the path is now opened before the run, so no step is printed.
    out = tmp_path / "missing" / "records.csv"
    assert main(["run", str(scenario_dir / "box_room.yaml"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.exists()


def test_cli_run_removes_the_output_it_created_when_the_run_fails(scenario_dir, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", str(scenario_dir / "rect_room_2d.yaml"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: run requires a 3-d scenario with microphones and a path\n"
    assert not out.exists()


def test_cli_run_leaves_an_existing_output_as_it_was_when_the_run_fails(
    scenario_dir, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    out.write_bytes(b"step_index,status\n0,success\n")
    before = out.stat()
    assert main(["run", str(scenario_dir / "rect_room_2d.yaml"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: run requires")
    assert out.read_bytes() == b"step_index,status\n0,success\n"
    assert out.stat().st_mtime_ns == before.st_mtime_ns


def test_cli_run_noise_override(scenario_dir, capsys):
    code = main(["run", str(scenario_dir / "box_room.yaml"), "--noise", "0.0005", "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "fail_count" in captured


def test_cli_genericity_midline_fails_naming_h(scenario_dir, capsys):
    code = main(["genericity", str(scenario_dir / "rect_room_2d.yaml"), "--speaker", "8,5"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "failed" in captured
    assert "h[" in captured


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_genericity_rejects_bad_tolerance(scenario_dir, capsys, tol):
    room = str(scenario_dir / "rect_room_2d.yaml")
    assert main(["genericity", room, "--speaker", "8,5"]) == 0
    assert "h[0, 1]" in capsys.readouterr().out
    assert main(["genericity", room, "--speaker", "8,5", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert "tol must be nonnegative and finite" in captured.err
    assert "passed" not in captured.out


def test_cli_genericity_rejects_nan_wall_offset(scenario_dir, tmp_path, capsys):
    path = tmp_path / "nan_wall.yaml"
    text = (scenario_dir / "box_room.yaml").read_text()
    path.write_text(text.replace("offset: 6.0}", "offset: .nan}", 1))
    assert main(["genericity", str(path)]) == 1
    captured = capsys.readouterr()
    assert "offset must be finite" in captured.err
    assert "passed" not in captured.out


def test_cli_genericity_names_two_wall_pairs_on_a_2d_f_failure(tmp_path, capsys):
    # The walls mirror the origin to (0.6, -0.8), (2, 0), (-3, 4) and
    # (-3.2, 2.4): mirror pairs 0-1 and 2-3 are both sqrt(2.6) apart, while
    # the squared reflection distances 1, 4, 25 and 16 keep every g and h
    # factor clear of zero.
    path = tmp_path / "twin_pairs_2d.yaml"
    path.write_text(
        "dimension: 2\n"
        "walls:\n"
        "  - {normal: [0.6, -0.8], offset: 0.5}\n"
        "  - {normal: [1, 0], offset: 1.0}\n"
        "  - {normal: [-0.6, 0.8], offset: 2.5}\n"
        "  - {normal: [-0.8, 0.6], offset: 2.0}\n"
        "speaker: [0.0, 0.0]\n"
    )
    assert main(["genericity", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("failed: factor f[(0, 1), (2, 3)] = ")
    assert float(out.split(" = ")[1].split()[0]) >= 0.0


def test_cli_genericity_axis_speaker_fails(scenario_dir, capsys):
    assert main(["genericity", str(scenario_dir / "box_room_axis.yaml")]) == 0
    assert "failed: factor" in capsys.readouterr().out


def test_cli_genericity_generic_point_passes(scenario_dir, capsys):
    code = main(["genericity", str(scenario_dir / "rect_room_2d.yaml"), "--speaker", "6.3,7.1"])
    assert code == 0
    assert "passed" in capsys.readouterr().out


def test_cli_genericity_prints_speaker_as_plain_floats(scenario_dir, capsys):
    main(["genericity", str(scenario_dir / "rect_room_2d.yaml"), "--speaker", "6.3,7.1"])
    assert "[6.3, 7.1]" in capsys.readouterr().out


def test_cli_genericity_rejects_onboard_speaker_offset(scenario_dir, capsys):
    code = main(["genericity", str(scenario_dir / "box_room_onboard.yaml")])
    assert code == 1
    captured = capsys.readouterr()
    assert "--speaker" in captured.err
    assert "passed" not in captured.out


def test_cli_counterexample_equilateral(capsys):
    code = main(["counterexample", "--k", "3"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "|w" in l]
    dists = [float(l.split("=")[1]) for l in lines]
    assert len(dists) == 3
    assert max(dists) - min(dists) < 1e-9


def test_cli_counterexample_rejects_small_k(capsys):
    code = main(["counterexample", "--k", "2"])
    assert code == 1


def test_cli_ambiguity_onboard(scenario_dir, capsys):
    code = main(["ambiguity", str(scenario_dir / "box_room_onboard.yaml"), "--pose-a", "0", "--pose-b", "1"])
    assert code == 0
    out = capsys.readouterr().out
    diff = float(out.strip().splitlines()[-1].split(":")[1].split()[0])
    assert diff <= 1e-9


def test_cli_unknown_flag_rejected(scenario_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(scenario_dir / "box_room.yaml"), "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_cli_load_error_exit_code(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.yaml")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _python(*args):
    """Run the interpreter with -W error and the package's source on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-W", "error", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_python_m_echopath_runs_the_cli():
    done = _python("-m", "echopath", "counterexample", "--k", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("3 lines through the origin:")


def test_python_m_echopath_cli_runs_without_warnings():
    done = _python("-m", "echopath.cli", "counterexample", "--k", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("3 lines through the origin:")


def test_importing_the_package_does_not_load_the_command_line():
    code = "import sys, echopath; print(sorted({'echopath.cli', 'argparse'} & set(sys.modules)))"
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
