"""Command line entry point.

Subcommands: `mv` (episodic portfolio learning), `lq` (ergodic on-policy),
`lq-off` (ergodic off-policy under a fixed behavior policy), `oracle` (print
the closed-form fixed point), `check` (property suite).  A --config file of
key=value lines overrides any flag of the chosen subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..envsim import LqCoefficients
from ..oracle import lq_ergodic_fixed_point
from .checks import run_all_checks
from .ergodic import ALGOS, ErgodicExperimentConfig, run_ergodic_replications
from .mv import MV_ALGOS, MvExperimentConfig, run_mv_replications
from .records import aggregate_metrics, config_dict, write_summary

LQ_FIELDS = ("A", "B", "C", "D", "M", "N", "R", "P", "Q")


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least one."""
    if int(text) < 1:
        raise ValueError(f"{text} is not positive")
    return int(text)


def nonnegative_int(text: str) -> int:
    """argparse type for seeds, which the noise streams take only at zero or
    above."""
    if int(text) < 0:
        raise ValueError(f"{text} is negative")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=nonnegative_int, default=0, help="master seed")
    p.add_argument("--reps", type=positive_int, default=100, help="independent replications")
    p.add_argument("--out", default=None, help="output directory (default results/<cmd>)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value lines overriding the flags above")


def _parse_config_file(path: str, parser: argparse.ArgumentParser, args) -> None:
    """Apply FILE overrides onto the parsed namespace, each value converted by
    its flag's type and checked against its flag's choices.  A file that
    cannot be read is a usage error too."""
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"{path}: {getattr(exc, 'strerror', None) or exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"{path}:{lineno}: unknown option {key!r}")
        value = val
        if action.type is not None:
            try:
                value = action.type(val)
            except (TypeError, ValueError):
                parser.error(f"{path}:{lineno}: {key}: invalid "
                             f"{action.type.__name__} value {val!r}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            parser.error(f"{path}:{lineno}: {key}: invalid choice "
                         f"{value!r} (choose from {choices})")
        setattr(args, action.dest, value)


def _finish(out_dir, cfg_dict, records) -> int:
    path = write_summary(out_dir, cfg_dict, records)
    agg = aggregate_metrics(records)
    print(f"wrote {path}")
    print(json.dumps(agg, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctql",
        description="Continuous-time q-learning experiments and diagnostics.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    mv_p = sub.add_parser("mv", help="mean-variance portfolio learning")
    mv_p.add_argument("--algo", default="qlearn-td", choices=MV_ALGOS)
    mv_p.add_argument("--mu", type=float, default=-0.5)
    mv_p.add_argument("--sigma", type=float, default=0.1)
    mv_p.add_argument("--dt", type=float, default=1.0 / 25.0)
    mv_p.add_argument("--episodes", type=int, default=20000,
                      help="number of batch updates")
    mv_p.add_argument("--batch", type=int, default=32)
    mv_p.add_argument("--gamma", type=float, default=0.1)
    mv_p.add_argument("--eval-runs", type=int, default=100)
    _add_common(mv_p)

    def lq_flags(p):
        p.add_argument("--algo", default="qlearn-online", choices=ALGOS)
        p.add_argument("--dt", type=float, default=0.1)
        p.add_argument("--horizon", type=float, default=1.0e5,
                       help="trajectory length in time units")
        p.add_argument("--gamma", type=float, default=0.1)
        _add_common(p)

    lq_p = sub.add_parser("lq", help="ergodic regulator, on-policy")
    lq_flags(lq_p)
    lqo_p = sub.add_parser("lq-off", help="ergodic regulator, off-policy")
    lq_flags(lqo_p)
    lqo_p.add_argument("--behavior-mean", type=float, default=0.0)
    lqo_p.add_argument("--behavior-var", type=float, default=1.0)

    or_p = sub.add_parser("oracle", help="print the closed-form fixed point")
    or_p.add_argument("--gamma", type=float, default=0.1)
    for name in LQ_FIELDS:
        or_p.add_argument(f"--{name}", type=float,
                          default=getattr(LqCoefficients, name))

    ck_p = sub.add_parser("check", help="run the property suite")
    ck_p.add_argument("--seed", type=nonnegative_int, default=0)

    args = parser.parse_args(argv)
    subparsers = {"mv": mv_p, "lq": lq_p, "lq-off": lqo_p,
                  "oracle": or_p, "check": ck_p}
    if getattr(args, "config", None):
        _parse_config_file(args.config, subparsers[args.cmd], args)

    if args.cmd == "oracle":
        coef = LqCoefficients(**{k: getattr(args, k) for k in LQ_FIELDS})
        try:
            sol = lq_ergodic_fixed_point(coef, args.gamma)
        except ValueError as exc:  # InfeasibleProblem included
            or_p.error(str(exc))
        print(json.dumps(sol.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.cmd == "check":
        results = run_all_checks(args.seed)
        for res in results:
            print(res.line())
        return 0 if all(r.passed for r in results) else 1

    out_dir = args.out or os.path.join("results", args.cmd)
    mode = "off-policy" if args.cmd == "lq-off" else "on-policy"
    kwargs = {}
    if mode == "off-policy":
        kwargs = {"behavior_mean": args.behavior_mean,
                  "behavior_var": args.behavior_var}
    try:
        if args.cmd == "mv":
            cfg = MvExperimentConfig(mu=args.mu, sigma=args.sigma, dt=args.dt,
                                     gamma=args.gamma, updates=args.episodes,
                                     batch=args.batch, eval_runs=args.eval_runs)
        else:
            cfg = ErgodicExperimentConfig(dt=args.dt, horizon=args.horizon,
                                          gamma=args.gamma, **kwargs)
    except ValueError as exc:
        subparsers[args.cmd].error(str(exc))

    if args.cmd == "mv":
        records = run_mv_replications(cfg, args.algo, args.seed, args.reps)
        info = {"algo": args.algo, "master_seed": args.seed}
    else:
        records = run_ergodic_replications(cfg, args.algo, mode, args.seed, args.reps)
        info = {"algo": args.algo, "mode": mode, "master_seed": args.seed}
    return _finish(out_dir, {**config_dict(cfg), **info}, records)


if __name__ == "__main__":
    sys.exit(main())
