"""Record the expected output summary of every op the benchmark can draw.

    python3 bench/record.py            # rewrites bench/expected.json

Run it only on a commit whose outputs are trusted: the benchmark fails any
op whose verdict, constants or exit code differ from what is recorded here.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("VILENKIN_OUTDIR", None)

import workloads as wl  # noqa: E402


def main() -> int:
    out = wl.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    expected = {}
    for workload in wl.WORKLOADS.values():
        ops = list({op.key: op for t in workload.templates + workload.once for op in t.expand()}.values())
        ctx = wl.Context(workdir=Path(tempfile.mkdtemp(prefix="record-", dir=out)), seed=0, expected={})
        try:
            wl.make_inputs(ctx, ops)
            for op in ops:
                _, (summary, _, health) = wl.run_op(op, ctx)
                expected[op.key] = summary
                print(f"{op.key}: {summary.get('verdict', summary.get('exit', ''))} {health}", flush=True)
        finally:
            ctx.close()
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{len(expected)} ops recorded in {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
