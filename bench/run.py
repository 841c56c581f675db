"""vilenkin benchmark: one client, closed loop, in-process calls.

    python3 bench/run.py --workload rows --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run sets up (import, generated inputs, one warm-up op per kind), then
repeats whole *passes* over the seed's op list, in a fresh seeded order each
pass, within ``--seconds``; the first pass also carries the workload's
once-per-run ops.  Every op is timed alone and its output is checked
after its timer stops; a fixed reference kernel then runs, and timings are
reported at the reference speed (see REFERENCE_S).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` odd passes run traced (see tracer.py), even
passes untraced, and the last line holds the per-layer metrics per traced
pass plus the traced/untraced throughput ratio.  Spans go to
``.bench_out/spans-<workload>.npz``, and the run's environment, result and
op samples to ``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("VILENKIN_OUTDIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("rows", "spectral", "cli-io")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def setup(wl, workload, seed: int):
    """Generate inputs and run one warm-up op per kind, with cold caches.

    Repeated SETUP_REPEATS times; returns the last context and each
    repetition's seconds.
    """
    ops, once = wl.draw_ops(workload, seed)
    OUT.mkdir(exist_ok=True)
    times = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        if ctx is not None:
            ctx.close()
        _clear_caches(wl.vilenkin)
        t0 = time.perf_counter()
        ctx = wl.Context(
            workdir=Path(tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=OUT)),
            seed=seed,
            expected=wl.load_expected(),
        )
        wl.make_inputs(ctx, ops + once)
        for op in wl.warmup_ops(ops):
            result = wl.prepare(op, ctx)()
            wl.cleanup(op, result)
        for op in ops + once:
            if "m" in op.args:
                wl.vilenkin.group.digit_table(wl.parse_m(op.args["m"]), op.args["N"])
        times.append(time.perf_counter() - t0)
    return ctx, ops, once, times


def _clear_caches(vilenkin) -> None:
    for mod in (vilenkin.group, vilenkin.transform, vilenkin.norms, vilenkin.experiments):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Sample(NamedTuple):
    slot: int  # index in the seed's op list; once-per-run ops are negative
    n_pass: int
    seconds: float  # raw wall time of the op
    ok: bool
    traced: bool
    key: str
    ref: float  # wall time of the reference kernel run right after the op


# On a shared host the same op's wall time drifts by tens of percent over
# seconds to minutes, alike for every kind of work.  A fixed reference kernel
# that never touches vilenkin runs after every op, outside the op's timer;
# each op's time is scaled by REFERENCE_S over the median reference time of
# the ops around it, i.e. reported at the reference speed.  Raw times stay in
# the run record.
REFERENCE_S = 2.2e-3  # the kernel's typical time on a 2-vCPU Xeon, Python 3.11, numpy 2.4
REFERENCE_WINDOW = 10  # ops on each side whose reference times set an op's scale


class Reference:
    """An interpreter loop, small numpy calls and one 1 MiB complex exp."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.arange(4096.0)
        self.large = 1j * np.arange(65536) / 7.0

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += (i * 7) % 5
        x = self.small
        for _ in range(20):
            x = np.sqrt(x * x + 1.0)
        np.exp(self.large).sum()
        return time.perf_counter() - t0


def at_reference_speed(samples) -> list[float]:
    """Each sample's seconds scaled to the reference speed around it."""
    refs = [s.ref for s in samples]
    w = REFERENCE_WINDOW
    return [
        s.seconds * REFERENCE_S / statistics.median(refs[max(0, i - w) : i + w + 1])
        for i, s in enumerate(samples)
    ]


def measure(wl, ctx, ops, once, seconds: float, seed: int, reference, tracer=None) -> list[Sample]:
    """Run whole passes within ``seconds``; with a tracer, odd passes are traced."""
    rng = random.Random(f"order:{seed}")
    samples: list[Sample] = []
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    n_pass = 0
    while True:
        t_pass = time.perf_counter()
        traced = tracer is not None and n_pass % 2 == 1
        order = list(enumerate(ops))
        rng.shuffle(order)
        if n_pass == 0:
            order = [(-1 - i, op) for i, op in enumerate(once)] + order
        if traced:
            tracer.new_pass()
            tracer.install()
        try:
            for slot, op in order:
                dt, ok = _one(wl, ctx, op, tracer if traced else None, len(samples))
                samples.append(Sample(slot, n_pass, dt, ok, traced, op.key, reference()))
        finally:
            if traced:
                tracer.uninstall()
        n_pass += 1
        # Start another pass only if one like the last still fits in the time.
        now = time.perf_counter()
        if n_pass >= (3 if tracer else 1) and now + (now - t_pass) > deadline:
            return samples


def _one(wl, ctx, op, tracer, op_id: int) -> tuple[float, bool]:
    result = None
    dt = 0.0
    try:
        call = wl.prepare(op, ctx)
        if tracer:
            span = tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op(span)
        before = ctx.cli_bytes
        wl.check(op, result, ctx)
        if tracer:
            tracer.count("cli.bytes_written", ctx.cli_bytes - before)
        return dt, True
    except Exception:  # an op that raises or fails its check counts as failed
        print(f"FAILED {op.key}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return dt, False
    finally:
        wl.cleanup(op, result)


def _quantile(values, q: float) -> float:
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(samples, setup_s: float) -> dict:
    # The once-per-run ops count in ok_frac and peak_rss_mib; in the latency
    # figures their weight would depend on how many passes fit in the run.
    scaled = at_reference_speed(samples)
    lat = [t for s, t in zip(samples, scaled) if s.slot >= 0 and s.ok]
    busy = sum(t for s, t in zip(samples, scaled) if s.slot >= 0)
    return {
        "ops_per_s": len(lat) / busy,
        "op_ms.p50": 1e3 * _quantile(lat, 0.5),
        "op_ms.p90": 1e3 * _quantile(lat, 0.9),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(1 for s in samples if s.ok) / len(samples),
    }


def trace_ratio(samples) -> float:
    """Traced over untraced ops_per_s; both sides run the same op list per pass."""
    scaled = at_reference_speed(samples)

    def rate(traced):
        lat = [t for s, t in zip(samples, scaled) if s.slot >= 0 and s.traced == traced]
        return len(lat) / sum(lat)

    return rate(True) / rate(False)


def run_workload(args) -> int:
    t0 = time.perf_counter()
    import workloads as wl

    import_s = time.perf_counter() - t0
    workload = wl.WORKLOADS[args.workload]
    ctx, ops, once, setup_times = setup(wl, workload, args.seed)
    reference = Reference()
    tracer = None
    try:
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer(wl.vilenkin)
        samples = measure(wl, ctx, ops, once, args.seconds, args.seed, reference, tracer)
    finally:
        ctx.close()

    # Set-up is scaled by the run's median reference time.
    setup_ref = statistics.median(s.ref for s in samples)
    setup_s = (import_s + statistics.median(setup_times)) * REFERENCE_S / setup_ref
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    passes = len({s.n_pass for s in samples})
    env = environment()
    if args.trace:
        traced_passes = len({s.n_pass for s in samples if s.traced})
        metrics = tracing.per_layer(tracer, traced_passes, trace_ratio(samples))
        units = tracing.PER_LAYER_UNITS
        tracer.write(OUT / f"spans-{workload.name}.npz")
        _print_shares(workload.name, metrics)
    else:
        metrics = end_to_end(samples, setup_s)
        units = END_TO_END_UNITS
        lat = [t for s, t in zip(samples, at_reference_speed(samples)) if s.slot >= 0 and s.ok]
        raw = [s.seconds for s in samples if s.slot >= 0 and s.ok]
        beyond = sum(1 for x in lat if x * 1e3 > metrics["op_ms.p90"])
        print(
            f"{workload.name}: {attempted} ops ({len(ops)} per pass x {passes} passes + {len(once)} once), "
            f"{len(lat)} latency samples, {beyond} beyond p90, failed_frac {failed / attempted:.4g}; "
            f"raw ops_per_s {len(raw) / sum(raw):.4g}, raw p50 {1e3 * _quantile(raw, 0.5):.4g} ms, "
            f"raw p90 {1e3 * _quantile(raw, 0.9):.4g} ms; reference median "
            f"{1e3 * statistics.median(s.ref for s in samples):.4g} ms (nominal {1e3 * REFERENCE_S:g} ms); "
            f"setup {[round(t, 4) for t in setup_times]} + import {import_s:.4f} s"
        )
        for name, value in metrics.items():
            print(f"  {name:14s} {value:12.6g} {units[name]}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "predictions": workload.predictions,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "result": result,
        "samples": [list(s) for s in samples],
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def _print_shares(name: str, m: dict) -> None:
    total = m["trace.op_s"]

    def share(*keys):
        return 100.0 * sum(m[k] for k in keys) / total if total else 0.0

    rows = share("transform.character_block.self_s", "experiments.partial_sum_rows.self_s")
    io = share("transform.io.read_s", "transform.io.write_s", "cli.main.self_s")
    ratio = m["trace.ops_per_s_ratio"]
    print(f"{name}: traced op time {total:.4f} s per pass, traced/untraced ops_per_s {ratio:.3f}")
    print(f"  character_block + partial_sum_rows self: {rows:6.2f}%")
    print(f"  fft (forward + inverse) self:            {share('transform.fft.self_s'):6.2f}%")
    print(f"  transform.io + cli.main self:            {io:6.2f}%")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"failed_frac {res['failed'] / res['attempted']:.4g}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:44s} {mv['value']:14.6g} {mv['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vilenkin" / "__init__.py").is_file():
        print(f"error: no vilenkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
