"""prismnet benchmark: run one workload and print its metrics.

Usage, from the root of a prismnet checkout:

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 15 --trace 0

Workloads: mc-small, mc-large, oracle, sweep-cli (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs half the time untraced and half traced and reports the per-layer ones.
A readable report comes first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Every run
also writes a record (manifest, every figure, any check failure) to
``.bench_runs/`` in the checkout.

Set-up time is measured in fresh processes, SETUP_REPEATS times, and
reported as the median, normalised for machine speed like the job times
(see speed.py) with the ``array`` probe, whichever the workload: set-up is
mostly imports, and that probe tracked it best.  The measured run happens
in one more fresh process so that its peak RSS covers the workload alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import workloads as wl
from proc import ROOT, SRC, run_child
from speed import SpeedMeter, Timing

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0


def source_digest() -> str:
    """sha256 over every file under src/, so a non-git checkout is identified too."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def time_setup(
    meter: SpeedMeter, workload: str, seed: int, work: Path, i: int
) -> tuple[Timing, str | None]:
    """Timing of one fresh set-up process, and an error message if it failed."""
    if workload == "sweep-cli":
        args = wl.cli_args(2, wl.library_seed(seed, workload), str(work / f"setup-{i}"))
        cmd = [sys.executable, "-m", "prismnet.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "measure.py"), "setup", "--workload", workload]
        cmd += ["--seed", str(seed), "--work", str(work)]
    proc, timing = meter.time(run_child, cmd, SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        return timing, f"set-up {i} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return timing, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--runs-dir", default=".bench_runs", help="where run records go (default .bench_runs)"
    )
    args = ap.parse_args()

    if not (SRC / "prismnet" / "__init__.py").is_file():
        print(
            f"error: no prismnet sources at {SRC / 'prismnet'}; run from a prismnet checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs_dir = ROOT / args.runs_dir
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    work = runs_dir / "work" / tag
    work.mkdir(parents=True)
    try:
        meter = SpeedMeter("array")
        setups = [
            time_setup(meter, args.workload, args.seed, work, i) for i in range(SETUP_REPEATS)
        ]
        cmd = [sys.executable, str(HERE / "measure.py"), "run", "--workload", args.workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--work", str(work)]
        proc = run_child(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: measured run exited {proc.returncode}", file=sys.stderr)
        return 1
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    setup_errors = [err for _, err in setups if err]
    failures = setup_errors + run["failures"]
    attempted = run["attempted"] + len(setups)
    figures = {
        "setup_s": statistics.median(t.norm_s for t, _ in setups),
        "setup_raw_s": statistics.median(t.raw_s for t, _ in setups),
        **run["e2e"],
        "error_rate": len(failures) / attempted,
    }
    kind = "per_layer" if args.trace else "end_to_end"
    values = run["layers"] if args.trace else figures
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }

    manifest = {
        **run["manifest"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "setup_timings": [vars(t) for t, _ in setups],
        "jobs": run["jobs"],
        "started_utc": stamp,
    }
    record = {
        "args": vars(args),
        "manifest": manifest,
        "figures": figures,
        "layers": run["layers"],
        "job_timings": run["job_timings"],
        "failures": failures,
        "result": result,
    }
    runs_dir.mkdir(parents=True, exist_ok=True)
    record_path = runs_dir / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units |= {name: unit for name, (unit, _) in wl.REPORTED.items()}
    print(
        f"# {args.workload}  seed {args.seed}  backend {manifest['backend']}"
        f"  PRISMNET_BACKEND={manifest['PRISMNET_BACKEND']}  jobs {run['jobs']}"
    )
    for name, value in figures.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for name, value in (run["layers"] or {}).items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"# record: {record_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
