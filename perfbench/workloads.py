"""Workload inputs of the prismnet benchmark.

Everything here is plain data built from the standard library, so the
orchestrator can read it without importing prismnet.  The benchmark's
``--seed`` picks the library seeds; the library only ever sees the seeds
and specs generated here.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math

WORKLOADS = ("mc-small", "mc-large", "oracle", "sweep-cli")

MIMO = {"family": "mimo_mrc_2x2", "beta": 1.0}
HOUSE5 = {"kind": "house", "L": 5.0}
HOUSE10 = {"kind": "house", "L": 10.0}
HALF_CYLINDER = {"kind": "half_cylinder", "r": 5.0, "h": 4.0}
# Regular hexagon of circumradius 2, counter-clockwise.
HEX_PRISM = {
    "kind": "prism",
    "base": [[2.0 * math.cos(k * math.pi / 3), 2.0 * math.sin(k * math.pi / 3)] for k in range(6)],
    "height": 3.0,
}

# Monte Carlo points; each timed job runs estimate() once per point with
# TRIALS_PER_CALL trials.
MC_POINTS = {
    "mc-small": [
        {"name": "house-L5", "domain": HOUSE5, "model": MIMO, "rho": 1.0},
        {"name": "half-cylinder", "domain": HALF_CYLINDER, "model": MIMO, "rho": 1.0},
        {
            "name": "hex-prism",
            "domain": HEX_PRISM,
            "model": {"family": "rayleigh", "beta": 1.0, "eta": 3.0},
            "rho": 5.0,
        },
    ],
    "mc-large": [{"name": "house-L10", "domain": HOUSE10, "model": MIMO, "rho": 1.0}],
}
TRIALS_PER_CALL = {"mc-small": 400, "mc-large": 40}
# Trials per point for the serial-vs-parallel equality check.
PARITY_TRIALS = {"mc-small": 40, "mc-large": 6}
# Checked against the reference but not timed.  mc-large's own point is
# connected in 99% of trials, so a run sees too few outages to expose a
# kernel that reports every graph connected; this sparse point does.
CHECK_POINTS = {
    "mc-small": [],
    "mc-large": [{"name": "house-L10-rho0.3", "domain": HOUSE10, "model": MIMO, "rho": 0.3}],
}
CHECK_TRIALS = 40

ORACLE = {
    "validation_suite": "defaults (28 rows)",
    "outer_integral": {
        "domain": HOUSE5,
        "model": {"family": "rayleigh", "beta": 1.0, "eta": 2.0},
        "rho": 1.0,
    },
    "phase_map": {"beta": 1.0, "rho": [0.1, 3.0, 0.05], "L": [1.0, 40.0, 0.5]},
    "assemble_pfc": {
        "domains": {"house-L5": HOUSE5, "half-cylinder": HALF_CYLINDER},
        "model": MIMO,
        "rho": [0.5, 1.5, 0.1],
    },
}

SWEEP_CLI = {
    "domain": HALF_CYLINDER,
    "model": MIMO,
    "rho_list": [0.25, 0.5, 0.75, 1.0],
    "threads": 2,
    "trials": 1000,
}

# Speed probe of each workload (speed.py): the probe whose work the
# workload's job resembles, so that host load slows both alike.
PROBE = {"mc-small": "graph", "mc-large": "alloc", "oracle": "quad", "sweep-cli": "array"}

# Figures the run prints and records but BENCHMARK.json does not gate, since
# they exist on some workloads only (error_rate is 0) or drift with the
# host's speed (the raw wall times, and the probe time they are normalised
# by): name -> (unit, better).
REPORTED = {
    "wall_s": ("s", "lower"),
    "setup_raw_s": ("s", "lower"),
    "probe_ms": ("ms", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "oracle_worst_tol_ratio": ("ratio", "lower"),
    "error_rate": ("ratio", "lower"),
}

# A sample mean more than Z_MAX binomial standard errors from the recorded
# reference fails the run.
Z_MAX = 5.0


def library_seed(seed: int, workload: str) -> int:
    """Base library seed of a run: a hash of (benchmark seed, workload).

    At least 2**20, so the check seeds just below it stay positive, and far
    enough below 2**31 for the job seeds above it.
    """
    digest = hashlib.sha256(f"{seed}:{workload}".encode()).digest()
    return 2**20 + int.from_bytes(digest[:4], "little") % (2**31 - 2**21)


def input_spec(workload: str) -> dict:
    """The full input specification of a workload, for the run manifest."""
    if workload in MC_POINTS:
        return {
            "points": MC_POINTS[workload],
            "trials_per_call": TRIALS_PER_CALL[workload],
            "workers": 1,
            "parity_trials": PARITY_TRIALS[workload],
            "check_points": CHECK_POINTS[workload],
            "check_trials": CHECK_TRIALS,
        }
    if workload == "oracle":
        return ORACLE
    return SWEEP_CLI


def cli_args(trials: int, seed: int, out: str) -> list[str]:
    """Arguments of the ``prismnet compare`` call made by sweep-cli."""
    return [
        "compare",
        "--domain",
        json.dumps(SWEEP_CLI["domain"]),
        "--model",
        json.dumps(SWEEP_CLI["model"]),
        "--rho-list",
        ",".join(str(r) for r in SWEEP_CLI["rho_list"]),
        "--threads",
        str(SWEEP_CLI["threads"]),
        "--trials",
        str(trials),
        "--seed",
        str(seed),
        "--out",
        out,
    ]


def binomial_z(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sample z statistic of the proportions k1/n1 and k2/n2 (pooled)."""
    p = (k1 + k2) / (n1 + n2)
    if p in (0.0, 1.0):
        return 0.0
    return (k1 / n1 - k2 / n2) / math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
