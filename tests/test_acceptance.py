"""End-to-end gates for the shipped experiments.

Each test prints one [PASS]/[FAIL] line with the measured numbers so a log
scan shows the whole gate at a glance. Budgets are wall-clock seconds on a
single core and are asserted along with the numeric bands.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from ctql.envsim import LqCoefficients, RngStream
from ctql.experiments import (ErgodicExperimentConfig, MvExperimentConfig,
                              aggregate_metrics, run_all_checks,
                              run_ergodic_replications, run_mv_replications)
from ctql.experiments.ergodic import rate_kernel
from ctql.oracle import (ergodic_identity_residual, lq_ergodic_fixed_point,
                         lq_policy_value)


_CAP = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    if _CAP is not None:
        # bypass capture so the line shows up in a plain `pytest -v` run
        with _CAP.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    assert ok, line


def test_criterion_1_online_qlearning_parameter_band():
    t0 = time.perf_counter()
    cfg = ErgodicExperimentConfig()
    recs = run_ergodic_replications(cfg, "qlearn-online", "on-policy", 0, 20)
    p1 = float(np.mean([r.final_params["p1"] for r in recs]))
    p2 = float(np.mean([r.final_params["p2"] for r in recs]))
    elapsed = time.perf_counter() - t0
    ok = (all(r.status == "ok" for r in recs)
          and abs(p1 - (-0.35425)) <= 0.05
          and abs(p2 - (-0.70850)) <= 0.10
          and elapsed < 300.0)
    _report("online q-learning band", ok,
            f"mean p1={p1:.5f} (-0.35425+-0.05), mean p2={p2:.5f} "
            f"(-0.70850+-0.10), {elapsed:.0f}s/300s")


def test_criterion_2_oracle_self_consistency():
    sol = lq_ergodic_fixed_point()
    psi1_err = abs(sol.psi_star[0] - (math.sqrt(7.0) - 3.0))
    co = LqCoefficients()
    k, m = sol.psi_star[0], sol.psi_star[1]
    resid = max(abs(ergodic_identity_residual(co, sol.theta_star, k, m,
                                              sol.variance, sol.gamma,
                                              sol.V_star, x))
                for x in np.linspace(-5.0, 5.0, 101))
    theta, V = lq_policy_value(co, sol.gamma, k, m, sol.variance)
    round_trip = max(float(np.max(np.abs(theta - sol.theta_star))),
                     abs(V - sol.V_star))
    ok = psi1_err < 1e-12 and resid < 1e-10 and round_trip < 1e-10
    _report("oracle self-consistency", ok,
            f"psi1 err={psi1_err:.2e} (<1e-12), identity residual={resid:.2e} "
            f"(<1e-10), policy-value round trip={round_trip:.2e} (<1e-10)")


def test_criterion_3_offpolicy_martingale_mean_zero():
    t0 = time.perf_counter()
    n, dt = 1_000_000, 0.01
    sqdt = math.sqrt(dt)
    co = LqCoefficients()
    g = RngStream(0, (3, 0)).generator()
    a = g.standard_normal(n)
    z = g.standard_normal(n)
    x = np.empty(n + 1)
    x[0] = 0.0
    for k in range(n):
        xk = x[k]
        x[k + 1] = (xk + (co.A * xk + co.B * a[k]) * dt
                    + (co.C * xk + co.D * a[k]) * sqdt * z[k])
    sol = lq_ergodic_fixed_point()
    # the q-learning kernel at the oracle's parameters, a lane per step; its
    # test vectors are not read
    P = np.concatenate((sol.theta_star, sol.psi_star, [sol.V_star]))
    delta = rate_kernel(P, x[:-1], a, co.reward(x[:-1], a), x[1:], sol.gamma,
                        dt, "q", np.empty((6, n)))
    mean = float(delta.mean())
    se = float(delta.std(ddof=1)) / math.sqrt(n)
    elapsed = time.perf_counter() - t0
    ok = abs(mean) <= 4.0 * se and elapsed < 60.0
    _report("off-policy martingale mean", ok,
            f"mean delta={mean:.3e} = {abs(mean) / se:.2f} SE (<4 SE), "
            f"{elapsed:.0f}s/60s")


def test_criterion_4_dt_sensitivity_against_sarsa():
    t0 = time.perf_counter()
    fine = replace(ErgodicExperimentConfig(), dt=0.01, horizon=1e4)
    ql_f = run_ergodic_replications(fine, "qlearn-online", "on-policy", 4, 20)
    sa_f = run_ergodic_replications(fine, "sarsa", "on-policy", 4, 20)
    wins = sum(1 for qr, sr in zip(ql_f, sa_f)
               if qr.status == "ok"
               and (sr.status != "ok"
                    or qr.metrics["avg_reward"] > sr.metrics["avg_reward"]))

    coarse = replace(ErgodicExperimentConfig(), dt=0.1, horizon=1e4)
    ql_c = run_ergodic_replications(coarse, "qlearn-online", "on-policy", 4, 20)
    sa_c = run_ergodic_replications(coarse, "sarsa", "on-policy", 4, 20)
    # the untrained policy is N(0, 1); its long-run raw average is the bar
    _, v0 = lq_policy_value(coarse.coef, coarse.gamma, 0.0, 0.0, 1.0)
    bar = v0 - coarse.gamma * float(norm(scale=1.0).entropy())
    ql_up = sum(1 for r in ql_c
                if r.status == "ok" and r.metrics["avg_reward"] > bar)
    sa_up = sum(1 for r in sa_c
                if r.status == "ok" and r.metrics["avg_reward"] > bar)
    elapsed = time.perf_counter() - t0
    ok = wins >= 18 and ql_up >= 18 and sa_up >= 18 and elapsed < 600.0
    _report("dt sensitivity vs sarsa", ok,
            f"dt=0.01 q-learning beats sarsa {wins}/20 (>=18); dt=0.1 above "
            f"initial value {bar:.3f}: q-learning {ql_up}/20, sarsa "
            f"{sa_up}/20 (>=18), {elapsed:.0f}s/600s")


def test_criterion_5_offpolicy_band_and_pg_divergence():
    t0 = time.perf_counter()
    band = {}
    for tag, cfg in (("dt=0.1", ErgodicExperimentConfig()),
                     ("dt=0.01", replace(ErgodicExperimentConfig(),
                                         dt=0.01, horizon=2e4))):
        recs = run_ergodic_replications(cfg, "qlearn-online", "off-policy",
                                        5, 20)
        p1 = float(np.mean([r.final_params["p1"] for r in recs]))
        p2 = float(np.mean([r.final_params["p2"] for r in recs]))
        band[tag] = (p1, p2,
                     all(r.status == "ok" for r in recs)
                     and abs(p1 - (-0.35425)) <= 0.05
                     and abs(p2 - (-0.70850)) <= 0.10)

    pg_cfg = replace(ErgodicExperimentConfig(), dt=0.1, horizon=1e4)
    pg = run_ergodic_replications(pg_cfg, "pg", "off-policy", 5, 20)
    na = sum(1 for r in pg
             if r.status == "NA" and r.divergence_step is not None
             and r.divergence_step < 100_000)
    elapsed = time.perf_counter() - t0
    ok = all(v[2] for v in band.values()) and na >= 18 and elapsed < 600.0
    parts = ", ".join(f"{tag} p1={v[0]:.4f} p2={v[1]:.4f}"
                      for tag, v in band.items())
    _report("off-policy q-learning band, pg divergence", ok,
            f"{parts} (bands -0.35425+-0.05 / -0.70850+-0.10); pg NA "
            f"{na}/20 (>=18), {elapsed:.0f}s/600s")


def test_criterion_6_mean_variance_sharpe_bands():
    t0 = time.perf_counter()
    targets = (((-0.5, 0.1), 6.805), ((0.5, 0.1), 6.147), ((-0.5, 0.2), 3.377))
    parts = []
    ok = True
    for (mu, sigma), target in targets:
        cfg = replace(MvExperimentConfig(), mu=mu, sigma=sigma)
        recs = run_mv_replications(cfg, "qlearn-td", 6, 20)
        agg = aggregate_metrics(recs)
        sharpe = agg["metric_means"]["sharpe"]
        rel = (sharpe - target) / target
        ok = ok and agg["completed"] == 20 and abs(rel) <= 0.15
        parts.append(f"mu={mu} sigma={sigma}: {sharpe:.3f} vs {target} "
                     f"({rel:+.1%})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    _report("mean-variance sharpe bands", ok,
            "; ".join(parts) + f" (band +-15%), {elapsed:.0f}s/1800s")


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    results = run_all_checks(0)
    elapsed = time.perf_counter() - t0
    failed = [c.name for c in results if not c.passed]
    ok = not failed and elapsed < 300.0
    detail = f"{len(results) - len(failed)}/{len(results)} checks"
    if failed:
        detail += " (failed: " + ", ".join(failed) + ")"
    _report("property suite", ok, detail + f", {elapsed:.0f}s/300s")
