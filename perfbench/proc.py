"""Child-process helpers shared by the orchestrator and the measured run."""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    """Environment that makes children import prismnet from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PRISMNET_OUT", None)  # would redirect the CLI's --out
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd from the checkout root, killing its whole process group on timeout."""
    with subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nkilled after {timeout} s"
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
