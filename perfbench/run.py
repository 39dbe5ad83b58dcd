"""ctql benchmark.

    python3 perfbench/run.py --workload lq-gates --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) in rounds until the next
round would end after --seconds, checks every round's outputs, and prints as
its last line one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a run with spans inside the drivers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(HERE, "out")
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("lq-gates", "lq-wide", "mv-train")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s",
                    "sim_steps_per_s": "lane-steps/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "envsim.draw_s": "s", "envsim.draw_calls": "count",
    "envsim.stream_opens": "count", "ergodic.step_us": "us",
    "ergodic.lane_step_ns": "ns", "ergodic.live_step_ratio": "ratio",
    "ergodic.replay_s": "s", "mv.update_ms": "ms", "mv.eval_ms": "ms",
    "mv.self_ms": "ms", "approx.mv_s": "s", "approx.calls": "count",
    "baselines.mv_s": "s", "baselines.calls": "count",
    "oracle.solve_ms": "ms", "records.write_s": "s", "records.bytes": "B",
    "records.files": "count", "trace.run_s": "s",
}


def _cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)


def _import_program():
    """Import ctql from this checkout's src/, and the workloads on top."""
    if not os.path.isfile(os.path.join(SRC, "ctql", "__init__.py")):
        sys.exit(f"perfbench: no ctql sources under {SRC}")
    sys.path.insert(0, SRC)
    import ctql
    if not os.path.abspath(ctql.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported ctql from {ctql.__file__}, not {SRC}")
    import hostspeed
    import tracing
    import workloads
    return hostspeed, tracing, workloads


def _setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of the wall-clock time from process
    start to the end of the workload's set-up.

    Not rescaled to reference speed: set-up uses more CPU time than wall time
    (1.1-1.4 s in 0.8-1.0 s on the reference host), so the single-threaded
    host-speed kernel does not track it, and rescaling widened its spread.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe exited {code}")
    return statistics.median(times)


DRIVER_SPANS = ("ergodic.replications", "ergodic.solo",
                "mv.replications", "mv.solo")


def end_to_end(op_rounds, lane_steps, normalized) -> dict:
    """run_s and sim_steps_per_s from the operation times of every round.

    Each time is first rescaled to reference host speed.  Every round makes
    the same calls, so each operation gets its median over the rounds; run_s
    is their sum and the driver calls' sum is the time the lane-steps of one
    round took.
    """
    medians = [(ops[0][0], statistics.median(normalized(t, k) for _, t, k in ops))
               for ops in zip(*op_rounds)]
    driver_s = sum(t for span, t in medians if span in DRIVER_SPANS)
    return {"run_s": sum(t for _, t in medians),
            "sim_steps_per_s": _ratio(lane_steps, driver_s)}


def layer_metrics(snap: dict, probe: dict, setup: dict, stats) -> dict:
    """Per-layer metrics of one traced round, from span snapshots of the
    round, of the evaluation-only probe calls and of set-up.  0 where the
    workload does not use a layer."""
    def total(name, s=snap):
        return s.get(name, {}).get("total_s", 0.0)

    def self_s(name, s=snap):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name, s=snap):
        return s.get(name, {}).get("calls", 0)

    def prefixed(prefix, field):
        return sum(v[field] for k, v in snap.items() if k.startswith(prefix))

    erg_s = total("ergodic.replications") + total("ergodic.solo")
    probe_s = total("mv.eval_probe", probe)
    return {
        "envsim.draw_s": total("envsim.draw"),
        "envsim.draw_calls": calls("envsim.draw"),
        "envsim.stream_opens": calls("envsim.stream_open"),
        "ergodic.step_us": _ratio(erg_s * 1e6, stats.erg_steps_ran),
        "ergodic.lane_step_ns": _ratio(erg_s * 1e9, stats.erg_ran_lane_steps),
        "ergodic.live_step_ratio": _ratio(stats.erg_live, stats.erg_ran_lane_steps),
        "ergodic.replay_s": total("ergodic.solo"),
        "mv.update_ms": _ratio((total("mv.replications") - probe_s) * 1e3,
                               stats.mv_updates),
        "mv.eval_ms": _ratio(probe_s * 1e3, stats.mv_eval_episodes),
        "mv.self_ms": _ratio(
            (self_s("mv.replications") - self_s("mv.eval_probe", probe)) * 1e3,
            stats.mv_updates),
        "approx.mv_s": prefixed("approx.", "total_s"),
        "approx.calls": prefixed("approx.", "calls"),
        "baselines.mv_s": prefixed("baselines.", "total_s"),
        "baselines.calls": prefixed("baselines.", "calls"),
        "oracle.solve_ms": total("oracle.solve", setup) * 1e3,
        "records.write_s": total("records.write"),
        "records.bytes": stats.records_bytes,
        "records.files": stats.records_files,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    _cap_threads()
    hostspeed, tracing, workloads = _import_program()

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, tracing.Tracer(), OUT_ROOT)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, OUT_ROOT)
    setup_spans = tracer.snapshot()
    os.makedirs(OUT_ROOT, exist_ok=True)

    problems = list(wl.setup_problems)
    rows, spans, op_rounds, round_walls = [], [], [], []
    start = time.perf_counter()
    traced = tracing.installed(tracer) if args.trace else contextlib.nullcontext()
    with traced:
        while True:
            t0 = time.perf_counter()
            tracer.reset()
            wl.op_times = []
            out = wl.run_round()
            op_rounds.append(wl.op_times)
            try:
                stats = wl.measure(out)
                problems += wl.check(out)
            finally:
                wl.cleanup(out)
                # release this round's records before the next round runs,
                # so that peak_rss_mb holds one round's outputs, not two
                del out
            if args.trace:
                snap = tracer.snapshot()
                tracer.reset()
                wl.probe()
                probe = tracer.snapshot()
                spans.append({"round": snap, "probe": probe})
                rows.append(layer_metrics(snap, probe, setup_spans, stats))
            else:
                rows.append({"lane_steps": stats.lane_steps})
            round_walls.append(time.perf_counter() - t0)
            print(f"perfbench: round {len(rows)}: operations "
                  f"{sum(t for _, t, _ in wl.op_times):.4f} s wall, "
                  f"{sum(hostspeed.normalized(t, k) for _, t, k in wl.op_times):.4f}"
                  f" s at reference speed; with checks {round_walls[-1]:.4f} s",
                  file=sys.stderr)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(round_walls) > args.seconds:
                break

    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    if args.trace:
        units = PER_LAYER_UNITS
        metrics["trace.run_s"] = end_to_end(op_rounds, 0, hostspeed.normalized)["run_s"]
        path = os.path.join(OUT_ROOT, f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"setup": setup_spans, "rounds": spans}, fh, indent=1)
    else:
        units = END_TO_END_UNITS
        metrics.update(end_to_end(op_rounds, metrics["lane_steps"],
                                  hostspeed.normalized))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for msg in problems[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: {len(problems) - 20} more check failures", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rows)} rounds, "
          f"{wl.attempted} operations, {wl.failed} failed, "
          f"{len(problems)} check failures")
    for name in units:
        print(f"  {name:26s} {metrics[name]:.6g} {units[name]}")
    result = {"correct": not problems, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
