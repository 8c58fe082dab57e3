"""Seeded benchmark of echopath's locate pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: echopath is imported from ./src
and nowhere else. A run builds the workload's episodes from the seed (see
rooms.py) and drives the public API in a closed loop with one emission in
flight: `echopath.run` per episode, which calls `generate_echoes` and
`locate_step` once per emission, each step using the registry the previous
one left.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. It runs every
episode, then the first one again, then the episodes in turn while the next
one would still end within S seconds. --trace 1 is a separate run of fixed
size: one untraced pass, one traced pass (spans.py) and a traced repeat of
the first episode. It reports the per-layer metrics and its own overhead.
Both scale their times to a fixed machine speed, probed by a reference loop
(see REFERENCE_S).
Both check the program's outputs and print, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 only when every check passed. bench/NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import echopath  # noqa: E402
import rooms  # noqa: E402
import spans  # noqa: E402

# name -> (walls, noise sigma in m, episodes, emissions per episode,
# episodes in large rooms)
WORKLOADS = {
    "clean_14w": rooms.Workload(14, 0.0, 6, 20),
    "ghost_6w_long": rooms.Workload(6, 1e-3, 48, 32, large_rooms=2),
}
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Acceptance criterion 1: noiseless poses are exact to 1e-6 (m and rad).
EXACT_TOL = 1e-6
# A pose counts as located when its position error is at most this many
# noise sigmas (and at most EXACT_TOL when there is no noise).
LOCATED_SIGMAS = 100.0
# The machine's speed drifts by up to 1.7x over seconds to minutes, on a
# shared host. A fixed pure-Python loop is timed between builds and between
# episode runs, and times are scaled by REFERENCE_S / (loop time): they read
# as on a machine where the loop takes REFERENCE_S, about its time on the
# quiet 2-vCPU Xeon VM the baseline in NOTES.md was measured on.
REFERENCE_LOOPS = 200_000
REFERENCE_S = 0.0125


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def scenario_key(scenarios) -> bytes:
    """Digest of every input value of a list of scenarios."""
    h = hashlib.sha256()
    for s in scenarios:
        for w in s.walls:
            h.update(w.plane.normal.tobytes())
            h.update(np.float64(w.plane.offset).tobytes())
        h.update(s.speaker.tobytes())
        h.update(s.mic_local.tobytes())
        for p in s.path:
            h.update(p.v.tobytes())
            h.update(p.A.tobytes())
        h.update(repr((s.noise_sigma, s.seed, s.occlusion_enabled)).encode())
    return h.digest()


def outcome(records) -> tuple:
    """What one run() returned that must repeat exactly, as plain values."""
    return tuple(
        (
            r.step_index,
            r.status,
            r.fail_reason,
            r.n_sources_known,
            r.n_sources_new,
            None if r.est_pose is None else r.est_pose.v.tobytes() + r.est_pose.A.tobytes(),
        )
        for r in records
    )


def check_records(scenario, records) -> list[str]:
    """Problems with one episode's records; an empty list means correct.

    Every emission has a record, a failed step leaves the registry as it
    was, and without noise every step after bootstrap succeeds exactly.
    """
    problems = []
    if [r.step_index for r in records] != list(range(len(scenario.path))):
        problems.append("records do not cover the path")
    known = 0
    for r in records:
        where = f"step {r.step_index}"
        if r.n_sources_known != known:
            problems.append(f"{where}: registry changed between steps")
        if r.status == "fail" and r.n_sources_new:
            problems.append(f"{where}: a failed step registered sources")
        known = r.n_sources_known + r.n_sources_new
        if scenario.noise_sigma == 0.0:
            if r.status == "fail":
                problems.append(f"{where}: noiseless step failed ({r.fail_reason})")
            elif r.status == "success" and max(r.position_error, r.orientation_error) > EXACT_TOL:
                problems.append(f"{where}: noiseless pose off by more than {EXACT_TOL}")
    return problems


def _rms(xs):
    return math.sqrt(sum(x * x for x in xs) / len(xs)) if xs else None


def accuracy(scenarios, records_per_episode) -> dict:
    """Accuracy summary of one pass over the episodes."""
    emissions = fails = located = final = true = 0
    pos, ori = [], []
    for s, records in zip(scenarios, records_per_episode):
        tol = max(EXACT_TOL, LOCATED_SIGMAS * s.noise_sigma)
        emissions += len(records)
        fails += sum(r.status == "fail" for r in records)
        ok = [r for r in records if r.status == "success"]
        located += sum(r.position_error <= tol for r in ok)
        pos += [r.position_error for r in ok]
        ori += [r.orientation_error for r in ok]
        final += records[-1].n_sources_known + records[-1].n_sources_new
        true += len(s.walls) + 1
    return {
        "fail_ratio": fails / emissions,
        "located_ratio": located / emissions,
        "pos_rmse_m": _rms(pos),
        "ori_rmse_rad": _rms(ori),
        "ghost_sources": final - true,
        "registry_ratio": final / true,
    }


class Checker:
    """Collects correctness problems and counts the emissions they affect."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed = 0

    def episode(self, index: int, scenario, records, reference=None) -> None:
        found = check_records(scenario, records)
        if reference is not None and outcome(records) != reference:
            found.append("outcome differs from the episode's first run")
        if found:
            self.failed += len(scenario.path)
            self.problems += [f"episode {index}: {p}" for p in found]


def reference_time() -> float:
    """Seconds of a fixed pure-Python loop: a probe of the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def timed_setup(workload, seed: int):
    """Build the episodes at least SETUP_REPEATS times and for SETUP_MIN_S,
    with a reference_time() probe before the first build and after each.

    Returns the build times, the probe times, the episodes and whether every
    build gave the same episodes.
    """
    times, probes, keys = [], [reference_time()], set()
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < 25):
        start = time.perf_counter()
        scenarios = rooms.make_scenarios(workload, seed)
        times.append(time.perf_counter() - start)
        keys.add(scenario_key(scenarios))
        probes.append(reference_time())
    return times, probes, scenarios, len(keys) == 1


def timed_visits(n: int, seconds: float, visit) -> list[list]:
    """Visit episodes 0..n-1, then episode 0 again, then keep cycling while
    the next visit would end within `seconds` of the start.

    visit(k) runs episode k and returns a tuple whose first item is its
    duration. Returns the visits of each episode, in order.
    """
    start = time.perf_counter()
    visits: list[list] = [[] for _ in range(n)]
    i = 0
    while True:
        k = i % n
        if i > n and time.perf_counter() - start + visits[k][-1][0] > seconds:
            return visits
        visits[k].append(visit(k))
        i += 1


def timed_run(run_fn, scenario):
    start = time.perf_counter()
    records, _ = run_fn(scenario)
    return time.perf_counter() - start, records


def measure_e2e(workload, seed: int, seconds: float):
    """The end-to-end metrics of one run, the checker and info lines."""
    check = Checker()
    setup_times, setup_probes, scenarios, same = timed_setup(workload, seed)
    probes: list[float] = []
    if not same:
        check.problems.append("set-up gave different scenarios for one seed")

    # locate_step latency is taken where run() looks the name up, with one
    # span per step and no other name patched.
    def visit(k):
        duration, records = timed_run(echopath.run, scenarios[k])
        recorded, _ = tracer.take()
        probes.append(reference_time())
        return duration, records, [end - start for *_, start, end in recorded]

    with spans.Tracer() as tracer:
        tracer.patch(echopath.run.__globals__, "locate_step", "reconstruction.locate_step")
        visits = timed_visits(len(scenarios), seconds, visit)

    first = [v[0][1] for v in visits]
    for k, (s, vs) in enumerate(zip(scenarios, visits)):
        reference = outcome(first[k])
        for _t, records, steps in vs:
            check.episode(k, s, records, reference)
            if len(steps) != len(s.path):
                check.problems.append(f"episode {k}: locate_step not called once per emission")
                check.failed += len(s.path)
    n_steps = sum(len(s.path) for s in scenarios)
    episode_s = [statistics.median(v[0] for v in vs) for vs in visits]
    # One latency per emission: its median over the visits of its episode.
    step_ms = [
        1000.0 * statistics.median(v[2][j] for v in vs)
        for vs in visits
        for j in range(len(vs[0][2]))
    ]
    unscaled = {
        "setup_s": statistics.median(setup_times),
        "emissions_per_s": n_steps / sum(episode_s),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": statistics.quantiles(step_ms, n=10)[8],
    }
    # Set-up is a few seconds at the start, so each build is scaled by the
    # mean of the probes just before and after it; the loop is scaled by the
    # median of its own probes.
    build_probes = [(a + b) / 2.0 for a, b in zip(setup_probes, setup_probes[1:])]
    probe_s = statistics.median(probes)
    scale = REFERENCE_S / probe_s
    acc = accuracy(scenarios, first)
    metrics = {
        "setup_s": statistics.median(
            t * REFERENCE_S / p for t, p in zip(setup_times, build_probes)
        ),
        "emissions_per_s": unscaled["emissions_per_s"] / scale,
        "step_ms_p50": unscaled["step_ms_p50"] * scale,
        "step_ms_p90": unscaled["step_ms_p90"] * scale,
        "located_ratio": acc["located_ratio"],
        "registry_ratio": acc["registry_ratio"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_visits = sum(map(len, visits))
    info = [
        f"{len(scenarios)} episodes x {workload.steps} emissions, {n_visits} episode runs",
        f"step latency samples: {len(step_ms)} (one per emission, median over its episode's runs)",
        f"reference loop: median {1000.0 * probe_s!r} ms over {len(probes)} probes in the "
        f"loop; times below are scaled to {REFERENCE_S * 1000.0} ms per loop",
        "unscaled: " + ", ".join(f"{k} {v!r}" for k, v in unscaled.items()),
        "fail_ratio {fail_ratio!r} ratio, pos_rmse_m {pos_rmse_m!r} m, "
        "ori_rmse_rad {ori_rmse_rad!r} rad, ghost_sources {ghost_sources} count".format(**acc),
    ]
    attempted = sum(len(s.path) * len(vs) for s, vs in zip(scenarios, visits))
    return metrics, check, attempted, info, [outcome(r) for r in first]


class TracedRun(NamedTuple):
    seconds: float
    records: list
    totals: tuple  # span_totals(): seconds, self seconds and calls per span name
    counts: dict


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: spans.Tracer) -> None:
    """Patch the traced names where run() and locate_step look them up."""
    outer = echopath.run.__globals__
    inner = echopath.locate_step.__globals__
    stats_type = getattr(echopath, "MatchStats", None)

    def echo_entries(args, kwargs, result, counts):
        counts["simulator.echo_entries"] += sum(len(d) for d in result.d_sets)

    def echo_grid(args, kwargs, result, counts):
        sets = _arg(args, kwargs, 1, "e").d_sets
        counts["reconstruction.echo_match.grid_cols"] += math.prod(len(d) for d in sets)
        counts["reconstruction.echo_match.cols_kept"] += result.delta.shape[1]

    def poly_rows(args, kwargs, result, counts):
        counts["cayley_menger.cm_polynomial_batch.rows"] += len(_arg(args, kwargs, 1, "xs"))

    def inject_stats(args, kwargs):
        if stats_type is None or len(args) > 5 or kwargs.get("stats") is not None:
            return kwargs
        return {**kwargs, "stats": stats_type()}

    def search(args, kwargs, result, counts):
        counts["reconstruction.match_submatrices.no_match"] += result is None
        counts["registry_size_sum"] += len(_arg(args, kwargs, 1, "b"))
        stats = kwargs.get("stats")
        if stats is not None:
            counts["reconstruction.match_submatrices.comparisons"] += stats.comparisons
            counts["reconstruction.match_submatrices.rank_checks"] += stats.rank_checks

    def new_sources(args, kwargs, result, counts):
        counts["reconstruction.update_sources.new"] += len(result)

    tracer.patch(outer, "generate_echoes", "simulator.generate_echoes", echo_entries)
    tracer.patch(outer, "locate_step", "reconstruction.locate_step")
    tracer.patch(inner, "echo_match", "reconstruction.echo_match", echo_grid)
    tracer.patch(inner, "cm_polynomial_batch", "cayley_menger.cm_polynomial_batch", poly_rows)
    tracer.patch(inner, "detected_distance_matrix", "reconstruction.detected_distance_matrix")
    tracer.patch(inner, "mutual_distances", "cayley_menger.mutual_distances")
    tracer.patch(inner, "bordered_rank", "cayley_menger.bordered_rank")
    tracer.patch(
        inner, "match_submatrices", "reconstruction.match_submatrices", search, inject_stats
    )
    tracer.patch(inner, "self_locate", "reconstruction.self_locate")
    tracer.patch(inner, "update_sources", "reconstruction.update_sources", new_sources)
    tracer.patch(inner, "affine_dimension", "geometry.affine_dimension")
    tracer.patch(inner, "pairwise_squared_distances", "geometry.pairwise_squared_distances")


def measure_layers(workload, seed: int, names):
    """The per-layer metrics of one traced run, the checker and info lines."""
    check = Checker()
    with spans.Tracer() as tracer:
        tracer.patch(vars(rooms), "genericity_check", "symmetry.genericity_check")
        scenarios = rooms.make_scenarios(workload, seed)
    setup_spans, _ = tracer.take()
    absent = set(tracer.absent)
    probes = [reference_time()]

    def plain_visit(k):
        seconds, records = timed_run(echopath.run, scenarios[k])
        probes.append(reference_time())
        return seconds, records

    def traced_visit(k) -> TracedRun:
        with spans.Tracer() as tracer:
            install(tracer)
            seconds, records = timed_run(tracer.wrap(echopath.run, "cli.run"), scenarios[k])
        probes.append(reference_time())
        absent.update(tracer.absent)
        recorded, counts = tracer.take()
        return TracedRun(seconds, records, spans.span_totals(recorded), counts)

    # One untraced and one traced pass, then a traced repeat of the first
    # episode, whose call and work counts must come out the same.
    plain = [plain_visit(k) for k in range(len(scenarios))]
    traced = [traced_visit(k) for k in range(len(scenarios))]
    again = traced_visit(0)
    if again.totals[2] != traced[0].totals[2] or again.counts != traced[0].counts:
        check.problems.append("traced call or work counts differ between repeats")
        check.failed += len(scenarios[0].path)
    for k, s in enumerate(scenarios):
        reference = outcome(plain[k][1])
        check.episode(k, s, traced[k].records, reference)
        check.episode(k, s, plain[k][1])
    check.episode(0, scenarios[0], again.records, outcome(plain[0][1]))

    total, self_time, calls, counts = Counter(), Counter(), Counter(), Counter()
    for run_ in traced:
        run_total, run_self, run_calls = run_.totals
        total.update(run_total)
        self_time.update(run_self)
        calls.update(run_calls)
        counts.update(run_.counts)
    n_steps = sum(len(s.path) for s in scenarios)
    values = {}
    for span in calls:
        values[f"{span}.ms"] = 1000.0 * total[span]
        values[f"{span}.self_ms"] = 1000.0 * self_time[span]
        values[f"{span}.calls"] = calls[span]
    setup_total, _, setup_calls = spans.span_totals(setup_spans)
    for span in setup_calls:
        values[f"{span}.ms"] = 1000.0 * setup_total[span]
        values[f"{span}.calls"] = setup_calls[span]
    values.update(counts)
    if calls["reconstruction.echo_match"]:
        values["reconstruction.echo_match.keep_ratio"] = (
            counts["reconstruction.echo_match.cols_kept"]
            / counts["reconstruction.echo_match.grid_cols"]
        )
    if calls["reconstruction.match_submatrices"]:
        values["reconstruction.registry_size_mean"] = (
            counts["registry_size_sum"] / calls["reconstruction.match_submatrices"]
        )
    acc = accuracy(scenarios, [r for _t, r in plain])
    for key in ("fail_ratio", "pos_rmse_m", "ori_rmse_rad", "ghost_sources"):
        if acc[key] is not None:
            values[f"cli.run.{key}"] = acc[key]
    # Times are scaled to the machine speed of REFERENCE_S, as in --trace 0.
    probe_s = statistics.median(probes)
    scale = REFERENCE_S / probe_s
    for key in [k for k in values if k.endswith((".ms", ".self_ms"))]:
        values[key] *= scale
    traced_s = sum(t.seconds for t in traced)
    plain_s = sum(t[0] for t in plain)
    values["tracer.traced_emissions_per_s"] = n_steps / traced_s / scale
    values["tracer.untraced_emissions_per_s"] = n_steps / plain_s / scale
    values["tracer.overhead_ratio"] = traced_s / plain_s

    missing = [n for n in names if n not in values]
    metrics = {n: values.get(n, 0.0) for n in names}
    info = [
        f"{len(scenarios)} episodes x {workload.steps} emissions, "
        "one untraced and one traced pass",
        "per-layer times and counts are totals over the traced pass",
        f"reference loop: median {1000.0 * probe_s!r} ms over {len(probes)} probes; "
        f"times are scaled by {REFERENCE_S * 1000.0} ms / that",
        f"absent names: {', '.join(sorted(absent)) if absent else 'none'}",
        f"metrics without data (reported as 0): {', '.join(missing) if missing else 'none'}",
    ]
    attempted = 2 * n_steps + len(scenarios[0].path)
    return metrics, check, attempted, info, [outcome(r) for _t, r in plain]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not Path(echopath.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"echopath was not imported from {SRC}", file=sys.stderr)
        return 2

    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workload = WORKLOADS[args.workload]
    if args.trace:
        measured = measure_layers(workload, args.seed, list(units))
    else:
        measured = measure_e2e(workload, args.seed, args.seconds)
    metrics, check, attempted, info, reference = measured
    if set(metrics) != set(units):
        print(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in info:
        print(f"  {line}")
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]!r} {unit}")
    print(f"  outcome digest: {hashlib.sha256(repr(reference).encode()).hexdigest()}")
    for problem in check.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not check.problems,
        "attempted": attempted,
        "failed": check.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
