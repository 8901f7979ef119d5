"""The benchmark's per-layer view: every wrapper its tracer installs sees calls.

perfbench/tracing.py replaces library functions by module attribute.  A
function that the library inlines, or calls through a local name, would
leave its wrapper idle and its layer metric reading 0 without an error.
The tracer is installed in a child process, so no other test sees it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRIALS = 3
SCRIPT = """
import json

import numpy as np

import tracing
from prismnet import analytic, domain_from_spec, mimo_mrc_2x2, quadrature, rayleigh, simulator


class Recording(tracing.Tracer):
    # Every span and counter name that install() sets up.
    installed = set()

    def span(self, name, fn):
        self.installed.add(name)
        return super().span(name, fn)

    def counter(self, name, fn):
        self.installed.add(name)
        return super().counter(name, fn)


tracer = Recording()
tracing.install(tracer)
per_estimate = {}
specs = [
    {"kind": "house", "L": 2.0},
    {"kind": "half_cylinder", "r": 1.5, "h": 1.0},
    {"kind": "prism", "base": [[0, 0], [2, 0], [2, 2], [0, 2]], "height": 2.0},
]
for spec in specs:
    before = {k: v[0] for k, v in tracer.spans.items()}
    cfg = simulator.SimConfig(
        domain=domain_from_spec(spec), model=mimo_mrc_2x2(1.0), trials=%d, rho=1.0
    )
    simulator.estimate(cfg, 1)
    per_estimate[spec["kind"]] = {k: v[0] - before.get(k, 0) for k, v in tracer.spans.items()}
house = domain_from_spec(specs[0])
# A sweep shares one pool across its densities, but still makes one
# estimate() call, so one span, per density.
before = tracer.spans["simulator.estimate"][0]
simulator.sweep(house, mimo_mrc_2x2(1.0), [0.5, 1.0, 1.5], %d, workers=2)
sweep_estimates = tracer.spans["simulator.estimate"][0] - before
analytic.assemble_pfc(house.features(), mimo_mrc_2x2(1.0), 1.0)
analytic.phase_map(1.0, [1.0], [5.0])
quadrature.validation_suite()
quadrature.outer_integral(house.features().edges[0], rayleigh(1.0, 2.0), 1.0)
calls = {k: v[0] for k, v in tracer.spans.items()} | tracer.sums
state = {
    "installed": sorted(tracer.installed),
    "calls": calls,
    "per_estimate": per_estimate,
    "sweep_estimates": sweep_estimates,
}
print(json.dumps(state))
""" % (TRIALS, TRIALS)


def test_every_traced_layer_sees_calls():
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}")
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    state = json.loads(res.stdout.splitlines()[-1])
    assert state["installed"], "the tracer installed nothing"
    idle = [name for name in state["installed"] if not state["calls"].get(name)]
    assert not idle, f"traced layers that saw no calls: {idle}"
    for kind, counts in state["per_estimate"].items():
        for name in ("simulator.run_trial", "simulator.trial_rng"):
            assert counts.get(name) == TRIALS, (kind, name, counts)
        # The sampler and the kernel each take a batch of trials per call;
        # the three trials of each of these small domains (4 to 10 nodes)
        # make one batch.
        for name in ("geometry.sample", "kernel.pair_graph_stats"):
            assert counts.get(name) == 1, (kind, name, counts)
    assert state["sweep_estimates"] == 3
