"""Summarise or compare prismnet benchmark run records.

    python3 perfbench/compare.py RUNS_DIR            # per workload: median, quartiles, spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR    # medians of NEW against BASE

Records are the JSON files run.py writes (.bench_runs/ by default; use
``run.py --runs-dir`` to keep two sets apart).  Spread is the distance
between the first and third quartile, as ``statistics.quantiles(values,
n=4)`` gives them, over the median.  Runs made with different kernel
backends or PRISMNET_BACKEND settings are never compared: the script
refuses with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def load(runs_dir: Path) -> dict:
    """(workload, trace) -> list of records."""
    groups = defaultdict(list)
    for path in sorted(runs_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        groups[(rec["args"]["workload"], rec["args"]["trace"])].append(rec)
    return groups


def backends(groups: dict) -> set:
    return {
        (rec["manifest"]["backend"], rec["manifest"]["PRISMNET_BACKEND"])
        for recs in groups.values()
        for rec in recs
    }


def figures(recs: list, trace: int) -> dict:
    """figure name -> values over the records."""
    out = defaultdict(list)
    for rec in recs:
        for name, value in (rec["layers"] if trace else rec["figures"]).items():
            out[name].append(value)
    return out


def stats(values: list) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarise(groups: dict):
    for (workload, trace), recs in sorted(groups.items()):
        print(f"# {workload}  trace={trace}  runs={len(recs)}")
        for name, values in figures(recs, trace).items():
            med, q1, q3, spread = stats(values)
            print(
                f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                f"  spread {spread:7.3f}"
            )


def compare(base: dict, new: dict, spec: dict):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse_any = False
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        if trace:
            continue
        print(f"# {workload}  runs base={len(base[key])} new={len(new[key])}")
        fb, fn = figures(base[key], 0), figures(new[key], 0)
        for name in [n for n in fb if n in fn]:
            mb, _, _, spread = stats(fb[name])
            mn = stats(fn[name])[0]
            better = bounds[name]["better"] if name in bounds else wl.REPORTED[name][1]
            change = (mn - mb) / mb if mb else 0.0
            worse = change if better == "lower" else -change
            note = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                note = f"bound {bound:.2f}  " + ("WORSE BEYOND BOUND" if worse > bound else "ok")
                worse_any |= worse > bound
            print(
                f"  {name:28s} base {mb:12.6g}  new {mn:12.6g}  change {change:+7.3f}"
                f"  base spread {spread:6.3f}  {note}"
            )
    return 1 if worse_any else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    groups = [load(Path(a)) for a in argv]
    seen = set().union(*(backends(g) for g in groups))
    if len(seen) > 1:
        seen = sorted(seen, key=str)
        print(f"error: runs use different backends {seen}; not comparing", file=sys.stderr)
        return 2
    if len(groups) == 1:
        summarise(groups[0])
        return 0
    return compare(*groups, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
