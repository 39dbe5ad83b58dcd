"""Lane-step accounting, replay comparison, spans and per-layer arithmetic."""

import math
import time
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads


def _rec(div=None, params=None, trace=None):
    return SimpleNamespace(status="ok" if div is None else "NA",
                           divergence_step=div, replication=0, master_seed=0,
                           final_params=params or {"a": 1.0}, metrics={},
                           trace=trace or {"t": [1.0, 2.0]})


def test_ergodic_lane_steps_count_diverged_lanes_to_their_step():
    t = [0.5 * (i + 1) for i in range(20)]  # 100 steps of 0.1, every 5th traced
    recs = [_rec(None, trace={"t": t}), _rec(9), _rec(49)]
    s = workloads.ergodic_lane_steps(recs, steps=100, dt=0.1)
    assert (s.erg_live, s.erg_steps_ran, s.erg_ran_lane_steps) == (160, 100, 300)
    assert s.lane_steps == 160


def test_ergodic_lane_steps_read_early_stop_from_the_trace():
    recs = [_rec(5, trace={"t": [1.0, 2.0]}), _rec(7, trace={"t": [1.0, 2.0]})]
    s = workloads.ergodic_lane_steps(recs, steps=1000, dt=0.1)
    assert (s.erg_live, s.erg_ran_lane_steps) == (14, 40)


def test_mv_lane_steps_cover_training_and_evaluation():
    cfg = SimpleNamespace(steps=25, updates=2, batch=4, eval_runs=3)
    assert workloads.mv_lane_steps(cfg, 2) == 2 * 25 * (2 * 4 + 3)


def test_same_record_is_bitwise_and_nan_aware():
    a = _rec(params={"x": float("nan"), "y": 0.1})
    b = _rec(params={"x": float("nan"), "y": 0.1})
    assert workloads.same_record(a, b)
    b.final_params["y"] = math.nextafter(0.1, 1.0)
    assert not workloads.same_record(a, b)
    assert not workloads.same_record(a, _rec(3, params=dict(a.final_params)))


def test_tracer_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))
    with tr.span("outer"):
        inner()
        inner()
    snap = tr.snapshot()
    assert snap["inner"]["calls"] == 2
    assert snap["outer"]["self_s"] == pytest.approx(
        snap["outer"]["total_s"] - snap["inner"]["total_s"])


def test_layer_metrics_subtract_the_evaluation_probe():
    snap = {"mv.replications": {"calls": 2, "total_s": 3.0, "self_s": 2.0},
            "approx.mv_q_eval": {"calls": 10, "total_s": 0.5, "self_s": 0.5},
            "approx.mv_q_grad": {"calls": 10, "total_s": 0.25, "self_s": 0.25}}
    probe = {"mv.eval_probe": {"calls": 2, "total_s": 1.0, "self_s": 0.5}}
    stats = workloads.RoundStats(mv_updates=100, mv_eval_episodes=200)
    m = run.layer_metrics(snap, probe, {}, stats)
    assert m["mv.update_ms"] == pytest.approx(20.0)
    assert m["mv.eval_ms"] == pytest.approx(5.0)
    assert m["mv.self_ms"] == pytest.approx(15.0)
    assert (m["approx.calls"], m["approx.mv_s"]) == (20, 0.75)
    assert m["ergodic.step_us"] == 0.0 and m["ergodic.live_step_ratio"] == 0.0
    assert set(m) | {"trace.run_s"} == set(run.PER_LAYER_UNITS)


def test_end_to_end_takes_each_operations_median_over_rounds():
    rounds = [[("ergodic.replications", 1.0, 1.0), ("records.write", 5.0, 1.0)],
              [("ergodic.replications", 6.0, 2.0), ("records.write", 2.0, 1.0)],
              [("ergodic.replications", 2.0, 1.0), ("records.write", 9.0, 1.0)]]
    m = run.end_to_end(rounds, lane_steps=100, normalized=lambda t, k: t / k)
    assert m == {"run_s": 7.0, "sim_steps_per_s": 50.0}


def test_host_speed_normalization_is_proportional():
    import hostspeed

    assert hostspeed.normalized(2.0, 2 * hostspeed.REFERENCE_S) == 1.0
    assert hostspeed.kernel_seconds() > 0.0
