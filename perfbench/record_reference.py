"""Record perfbench/reference.json, the outputs the benchmark checks against.

Run from the checkout root:

    PYTHONPATH=src python3 perfbench/record_reference.py

Monte Carlo references are large runs at a fixed seed; the benchmark
accepts a run whose outage count lies within workloads.Z_MAX binomial
standard errors of them, so a change of random stream still passes while a
broken kernel fails.  Oracle references are the exact outputs.  Re-record
only for a change meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import importlib.metadata
import json

import workloads as wl
from measure import REFERENCE_PATH, import_prismnet, oracle_inputs, oracle_outputs

REF_SEED = 20140904
REF_TRIALS = {"mc-small": 20000, "mc-large": 3000, "check": 4000, "sweep-cli": 10000}
WORKERS = 2


def main():
    pn = import_prismnet()
    ref = {
        "recorded_with": {
            "backend": pn.simulator.BACKEND,
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "seed": REF_SEED,
        },
        "mc": {},
        "sweep_cli": {},
    }
    mc = [(p, REF_TRIALS[w]) for w, points in wl.MC_POINTS.items() for p in points]
    mc += [(p, REF_TRIALS["check"]) for points in wl.CHECK_POINTS.values() for p in points]
    for p, trials in mc:
        cfg = pn.SimConfig(
            domain=pn.domain_from_spec(p["domain"]),
            model=pn.model_from_spec(p["model"]),
            trials=trials,
            seed=REF_SEED,
            rho=p["rho"],
        )
        r = pn.simulator.estimate(cfg, workers=WORKERS)
        ref["mc"][p["name"]] = {"N": r.n, "trials": r.n_trials, "outages": r.n_trials - r.fc_count}
        print(p["name"], ref["mc"][p["name"]], flush=True)

    domain = pn.domain_from_spec(wl.SWEEP_CLI["domain"])
    model = pn.model_from_spec(wl.SWEEP_CLI["model"])
    rhos = wl.SWEEP_CLI["rho_list"]
    results = pn.simulator.sweep(
        domain, model, rhos, REF_TRIALS["sweep-cli"], seed=REF_SEED, workers=WORKERS
    )
    for rho, r in zip(rhos, results):
        b = pn.analytic.assemble_pfc(domain.features(), model, rho)
        ref["sweep_cli"][str(float(rho))] = {
            "N": r.n,
            "trials": r.n_trials,
            "outages": r.n_trials - r.fc_count,
            "p_out_analytic": float(b.p_out_raw),
        }
    print("sweep-cli", ref["sweep_cli"], flush=True)

    out = oracle_outputs(pn, oracle_inputs(pn))
    rows = out.pop("rows")
    ref["oracle"] = {
        "validation_rows": len(rows),
        "worst_tol_ratio": max(r.rel_error / r.rel_tol for r in rows),
        **out,
    }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
