"""Tests of the benchmark itself: tracer coverage, trace transparency, checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


def _context(workload, tmp_path):
    ops, _ = wl.draw_ops(workload, SEED)
    distinct = list({op.key: op for op in ops}.values())
    ctx = wl.Context(workdir=tmp_path, seed=SEED, expected=wl.load_expected())
    wl.make_inputs(ctx, distinct)
    return ctx, distinct


def _run(op, ctx, tr=None, op_id=0) -> bytes:
    """Run and check one op; return the bytes that must repeat."""
    span = tr.begin_op(op_id) if tr else None
    try:
        result = wl.prepare(op, ctx)()
    finally:
        if tr:
            tr.end_op(span)
    try:
        wl.check(op, result, ctx)
        return wl.summarize(op, result)[1]
    finally:
        wl.cleanup(op, result)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_listed_function_is_hit(name, tmp_path):
    ctx, ops = _context(wl.WORKLOADS[name], tmp_path)
    tr = tracing.Tracer(wl.vilenkin)
    tr.install()
    try:
        for i, op in enumerate(ops):
            _run(op, ctx, tr, i)
    finally:
        tr.uninstall()
    hit = {span for span, (calls, _) in tr.totals().items() if calls}
    assert set(wl.COVERAGE[name]) <= set(tracing.SPANS)
    assert sorted(set(wl.COVERAGE[name]) - hit) == []


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_op_gives_the_same_bytes(name, tmp_path):
    ctx, ops = _context(wl.WORKLOADS[name], tmp_path)
    tr = tracing.Tracer(wl.vilenkin)
    for op in wl.warmup_ops(ops):
        plain = _run(op, ctx)
        tr.install()
        try:
            traced = _run(op, ctx, tr)
        finally:
            tr.uninstall()
        assert traced == plain, op.key
    assert tr.totals()[tracing.OP_SPAN][0] == len(wl.warmup_ops(ops))


def test_install_patches_every_binding_and_uninstall_restores_them():
    v = wl.vilenkin
    forward, scan = v.transform.forward, v.experiments.divergence_scan
    tr = tracing.Tracer(v)
    tr.install()
    try:
        for module in (v, v.transform, v.experiments, v.cli):
            assert module.forward is not forward
        assert v.cli.SCAN_REGISTRY["divergence"] is not scan
    finally:
        tr.uninstall()
    for module in (v, v.transform, v.experiments, v.cli):
        assert module.forward is forward
    assert v.cli.SCAN_REGISTRY["divergence"] is scan


def test_a_wrong_output_fails_its_check(tmp_path):
    ctx, ops = _context(wl.ROWS, tmp_path)
    op = wl.warmup_ops(ops)[0]
    want = ctx.expected[op.key]
    ctx.expected[op.key] = {**want, "verdict": "violated" if want.get("verdict") != "violated" else "bounded"}
    with pytest.raises(wl.CheckError):
        _run(op, ctx)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
