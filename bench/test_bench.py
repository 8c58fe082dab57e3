"""Tests of the benchmark itself: generator, tracer, checks and output."""

import json

import numpy as np
import pytest

import rooms
import run as bench
import spans
import echopath
from echopath import LocateResult, RunRecord, SourceRegistry, world_microphones

SMALL = {
    "clean_14w": rooms.Workload(6, 0.0, 2, 6),
    "ghost_6w_long": rooms.Workload(6, 1e-3, 2, 8, large_rooms=1),
}


def _namespaces():
    return [echopath.run.__globals__, echopath.locate_step.__globals__, vars(rooms)]


def _snapshot():
    return [dict(ns) for ns in _namespaces()]


def _assert_restored(before):
    for ns, old in zip(_namespaces(), before):
        assert ns.keys() == old.keys()
        assert all(ns[k] is old[k] for k in old)


def test_generator_is_deterministic_per_seed():
    w = SMALL["ghost_6w_long"]
    first = bench.scenario_key(rooms.make_scenarios(w, 3))
    assert bench.scenario_key(rooms.make_scenarios(w, 3)) == first
    assert bench.scenario_key(rooms.make_scenarios(w, 4)) != first


def test_episodes_keep_clear_of_walls_and_speaker():
    for s in rooms.make_scenarios(rooms.Workload(10, 0.0, 3, 30, large_rooms=1), 5):
        normals = np.array([w.plane.normal for w in s.walls])
        offsets = np.array([w.plane.offset for w in s.walls])
        assert np.all(normals @ s.speaker < offsets)
        for pose in s.path:
            mics = world_microphones(s, pose)
            assert np.all(mics @ normals.T - offsets <= -0.3)
            assert np.min(np.linalg.norm(mics - s.speaker, axis=1)) >= 0.1


def test_traced_run_matches_untraced_bit_for_bit():
    scenarios = rooms.make_scenarios(SMALL["ghost_6w_long"], 1)
    plain = [bench.outcome(echopath.run(s)[0]) for s in scenarios]
    before = _snapshot()
    with spans.Tracer() as tracer:
        bench.install(tracer)
        traced_run = tracer.wrap(echopath.run, "cli.run")
        traced = [bench.outcome(traced_run(s)[0]) for s in scenarios]
    _assert_restored(before)
    assert traced == plain
    assert not tracer.absent
    _total, _self, calls = spans.span_totals(tracer.spans)
    assert calls["cli.run"] == len(scenarios)
    assert calls["reconstruction.locate_step"] == sum(len(s.path) for s in scenarios)
    assert tracer.counts["reconstruction.match_submatrices.comparisons"] > 0


def test_every_patched_name_is_restored_even_on_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            bench.install(tracer)
            tracer.patch(vars(rooms), "genericity_check", "symmetry.genericity_check")
            assert echopath.run.__globals__["locate_step"] is not echopath.locate_step
            raise RuntimeError("boom")
    _assert_restored(before)


def test_missing_name_is_reported_absent_and_left_alone():
    ns = {"present": len}
    with spans.Tracer() as tracer:
        assert not tracer.patch(ns, "gone", "module.gone")
        assert tracer.patch(ns, "present", "builtins.len")
        assert ns["present"]([1, 2]) == 2
    assert tracer.absent == ["module.gone"]
    assert ns == {"present": len}


def test_self_time_subtracts_direct_children():
    recorded = [(2, 1, "child", 1.0, 3.0), (3, 2, "leaf", 1.5, 2.0), (1, 0, "root", 0.0, 10.0)]
    total, self_time, calls = spans.span_totals(recorded)
    assert total == {"root": 10.0, "child": 2.0, "leaf": 0.5}
    assert self_time == {"root": 8.0, "child": 1.5, "leaf": 0.5}
    assert calls == {"root": 1, "child": 1, "leaf": 1}


def _main(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(bench, "WORKLOADS", SMALL)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    code = bench.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys, trace):
    spec = bench.load_spec()
    code, result = _main(monkeypatch, capsys, "ghost_6w_long", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
    for m in spec[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def test_gate_fails_and_exit_is_nonzero_on_a_noiseless_fail(monkeypatch, capsys):
    namespace = echopath.run.__globals__
    real = namespace["locate_step"]
    calls = []

    def fails_third_step(state: SourceRegistry, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            return LocateResult("fail", fail_reason="injected")
        return real(state, *args, **kwargs)

    monkeypatch.setitem(namespace, "locate_step", fails_third_step)
    code, result = _main(monkeypatch, capsys, "clean_14w", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_check_records_flags_registry_change_on_fail():
    scenario = rooms.make_scenarios(SMALL["ghost_6w_long"], 0)[0]
    records = [RunRecord(0, "bootstrap", n_sources_new=7)]
    records += [RunRecord(i, "fail", n_sources_known=7 + i) for i in range(1, len(scenario.path))]
    problems = bench.check_records(scenario, records)
    assert any("registry changed" in p for p in problems)
