"""Run the prismnet CLI with the benchmark's tracing wrappers installed.

Usage: python3 perfbench/cli_traced.py TRACE_DIR ARGS...

Behaves like ``prismnet ARGS...`` (same exit code and outputs) and also
writes the tracer state of the CLI process to TRACE_DIR/main.json and that
of each pool-worker chunk to TRACE_DIR/worker-*.json.
"""

import sys
import time

t0 = time.perf_counter()
import prismnet.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, install  # noqa: E402


def main(trace_dir: Path, args: list[str]) -> int:
    tracer = Tracer()
    install(tracer, worker_dir=trace_dir)
    cli._write_csv = tracer.span("cli.write_outputs", cli._write_csv)
    run = tracer.span("cli.main", cli.main)
    code = 0
    try:
        run(args=args, prog_name="prismnet")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    tracer.add("cli.import_s", import_s)
    (trace_dir / "main.json").write_text(json.dumps(tracer.state()))
    return code


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), sys.argv[2:]))
