"""Cold start of the command line: fresh interpreters, timed end to end.

Each benchmark times one fresh Python process started from this one:
`import ctql.experiments.cli`, which then prints its own peak resident set
(`ru_maxrss`), and `python -m ctql.experiments.cli oracle` end to end.  The
children import ctql from this process's `PYTHONPATH`, so run with

    PYTHONPATH=src python -m pytest benchmarks/bench_startup.py \\
        --benchmark-json=out.json

The repository's test run does not collect this file.  To compare two
checkouts, run it against each (alternating, as often as the host's noise
asks) and merge the JSON files into the median and quartiles of the wall
seconds, and the median peak resident set, over all the rounds of each
side:

    python benchmarks/bench_startup.py before1.json,before2.json \
        after1.json,after2.json
"""

import json
import statistics
import subprocess
import sys

import pytest

CHILDREN = {
    "import-cli": ["-c", "import resource, ctql.experiments.cli\n"
                   "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
    "ctql-oracle": ["-m", "ctql.experiments.cli", "oracle"],
}


def _child(args) -> str:
    return subprocess.run([sys.executable, *args], check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("child", sorted(CHILDREN))
def test_startup(benchmark, child):
    outs = []
    benchmark.pedantic(lambda: outs.append(_child(CHILDREN[child])),
                       rounds=5, warmup_rounds=1)
    if child == "import-cli":
        # ru_maxrss is in KiB on Linux
        benchmark.extra_info["maxrss_mb"] = [int(o) / 1024.0 for o in outs[1:]]


def _rounds(paths):
    """{child: (wall seconds, peak MB)} of every round in `paths`."""
    wall, rss = {}, {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for b in data["benchmarks"]:
            child = b["params"]["child"]
            wall.setdefault(child, []).extend(b["stats"]["data"])
            rss.setdefault(child, []).extend(b["extra_info"].get("maxrss_mb", []))
    return {child: (wall[child], rss[child]) for child in wall}


def _side(wall, rss) -> dict:
    q1, med, q3 = statistics.quantiles(wall, n=4)
    out = {"wall_s": round(med, 4), "wall_s_quartiles": [round(q1, 4), round(q3, 4)],
           "rounds": len(wall)}
    if rss:
        out["maxrss_mb"] = round(statistics.median(rss), 1)
    return out


def merge(before_paths, after_paths) -> dict:
    before, after = _rounds(before_paths), _rounds(after_paths)
    rows = []
    for child in sorted(before):
        b, a = _side(*before[child]), _side(*after[child])
        rows.append({"child": child, "before": b, "after": a,
                     "wall_ratio": round(a["wall_s"] / b["wall_s"], 3)})
    return {"layer": "cold start", "rows": rows}


if __name__ == "__main__":
    json.dump(merge(sys.argv[1].split(","), sys.argv[2].split(",")),
              sys.stdout, indent=1)
    print()
