"""Workload definitions for the vilenkin benchmark: ops, inputs and output checks.

An *op* is one user-level call into vilenkin: a scan, a Lebesgue-table call
or one ``vilenkin.cli.main(argv)``.  Each workload is a fixed list of op
templates; the seed draws the free parameters of each template (``p`` from
{1/2, 2/3}, the scan seed from ``SEED_POOL``), the order of every pass and
the data of the CLI input files.  Grid sizes never depend on the seed, so
every seed asks for the same amount of work.

Every op's result is checked after its timer stops, against expectations
recorded from the library (``expected.json``, written by ``record.py``),
against oracle paths and by round trips; see ``check``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import struct
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import vilenkin  # noqa: E402
import vilenkin.cli  # noqa: E402,F401  (imports every module the tracer patches)

if not Path(vilenkin.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"vilenkin imported from {vilenkin.__file__}, not from {SRC}")

P_VALUES = (0.5, 2.0 / 3.0)
SEED_POOL = (1729, 7, 42, 2024)

# Relative tolerance for recorded constants, and the acceptance suite's
# absolute tolerance for health residuals.
CONST_RTOL = 1e-9
CONST_ATOL = 1e-12
HEALTH_TOL = 1e-9
# A CSV cell carries 12 significant digits (relative 5e-13); a transform
# sums at most 2^17 such cells, so its rounding stays far below this share
# of the largest magnitude.
VALUE_RTOL = 1e-10
# forward is compared with the naive O(M_N^2) oracle up to this size.
ORACLE_MAX = 4096

HEALTH_KEYS = ("closed_form_max_err",)


class CheckError(AssertionError):
    """An op produced a wrong or unexpected output."""


# ---------------------------------------------------------------------------
# ops and templates
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple  # sorted (name, value) pairs

    @property
    def key(self) -> str:
        return "|".join([self.kind] + [f"{k}={_fmt(v)}" for k, v in self.params])

    @property
    def args(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class Template:
    kind: str
    fixed: dict
    draw_p: bool = False
    draw_seed: bool = False

    def expand(self) -> list[Op]:
        """Every op this template can produce, for recording expectations."""
        ps = P_VALUES if self.draw_p else (None,)
        seeds = SEED_POOL if self.draw_seed else (None,)
        return [self.make(p, s) for p in ps for s in seeds]

    def make(self, p=None, seed=None) -> Op:
        params = dict(self.fixed)
        if self.draw_p:
            params["p"] = p
        if self.draw_seed:
            params["seed"] = seed
        return Op(self.kind, tuple(sorted(params.items())))

    def draw(self, rng: random.Random) -> Op:
        p = rng.choice(P_VALUES) if self.draw_p else None
        seed = rng.choice(SEED_POOL) if self.draw_seed else None
        return self.make(p, seed)


def T(kind, draw_p=False, draw_seed=False, **fixed) -> Template:
    return Template(kind, fixed, draw_p, draw_seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple
    once: tuple = ()  # ops run once per run, in the first pass only
    # (layer metric, end-to-end metric it should move on this workload)
    predictions: tuple = ()


def parse_m(text: str):
    return vilenkin.group.GeneratorSequence.parse(text)


# Small and mid grids appear several times per pass, each copy with its own
# drawn p and scan seed: a pass of over 100 ops keeps the latency
# distribution dense around p50 and p90, so the percentiles move smoothly.
_ROW_SMALL = (("2^", 8), ("2^", 9), ("3^", 6), ("2,3^", 7), ("2,3,4^", 6))
_ROW_TINY = (("3^", 5), ("2,3,4^", 5))
_ROW_LARGE = (("2^", 10), ("2,3^", 8))
_ROW_KINDS = (
    ("supp_measure", {}),
    ("dirichlet_floor", {}),
    ("lebesgue_table", {}),
    ("select_convention", {}),
    ("weighted_series", {"draw_p": True, "draw_seed": True, "trials": 1}),
    ("atom_ratio", {"draw_p": True, "draw_seed": True, "trials": 2}),
)


def _row(kind: str, extra: dict, m: str, n: int) -> Template:
    if kind == "select_convention":
        extra = {"limit": min(512, parse_m(m).size(n))}
    return T(kind, m=m, N=n, **extra)


ROWS = Workload(
    name="rows",
    why=(
        "Exhaustive per-index scans over M_N of about 256-1296: character-row "
        "generation (transform.character_block) dominates and the FFT is "
        "nearly absent.  One dirichlet_floor_scan at M_N = 4096 per run makes "
        "peak memory follow its quadratic |D_n| dict."
    ),
    templates=(
        *[_row(k, x, m, n) for k, x in _ROW_KINDS for m, n in _ROW_SMALL for _ in range(2)],
        *[_row(k, x, m, n) for k, x in _ROW_KINDS for m, n in _ROW_TINY for _ in range(4)],
        *[_row(k, x, m, n) for k, x in _ROW_KINDS[:3] for m, n in _ROW_LARGE],
    ),
    once=(T("dirichlet_floor", m="2^", N=12),),
    predictions=(
        ("transform.character_block.self_s", "ops_per_s, op_ms.p50"),
        ("transform.dirichlet_kernel_blocks.self_s", "ops_per_s, op_ms.p50"),
        ("experiments.partial_sum_rows.self_s", "ops_per_s"),
        ("experiments.<scan>.self_s", "ops_per_s"),
        ("norms.lp_norm.self_s", "op_ms.p50"),
        ("norms.lebesgue_table.self_s", "op_ms.p50"),
        ("experiments.dirichlet_floor_scan.self_s", "peak_rss_mib"),
        ("transform.fft.self_s", "no change (under 5% of traced time)"),
    ),
)

_SPEC_GRIDS = (("2^", 8), ("2^", 10), ("3^", 5), ("3^", 8), ("2,3^", 6), ("2,3^", 8), ("2,3,4^", 6))
_SPEC_SMALL = (("2^", 8), ("2^", 10), ("3^", 5), ("2,3^", 6), ("2,3^", 8), ("2,3,4^", 6))
_BOUNDED = ("Mn", "Mn_plus_Mn-1", "rho_bounded")
_DIVERGENT = ("Mn_plus_1", "general")
_MODULUS = [(f, n) for f in ("unit_kernel", "fast_decay") for n in ("default", "Mn_plus_1")]
SPECTRAL = Workload(
    name="spectral",
    why=(
        "Many-function scans up to M_N = 8192: FFTs, coarse_sums, "
        "scaled_bases and index_sub carry the time; character rows are a "
        "small share, so row-engine changes should not move it."
    ),
    templates=(
        *[T("boundedness", draw_p=True, draw_seed=True, m="2^", N=13, variant=v, trials=2) for v in _BOUNDED],
        *[
            T("boundedness", draw_p=True, draw_seed=True, m=m, N=n, variant=v, trials=4)
            for m, n in _SPEC_GRIDS
            for v in _BOUNDED
        ],
        *[
            T("divergence", draw_p=True, m=m, N=n, variant=v)
            for m, n in (("2^", 13), *_SPEC_GRIDS, *_SPEC_SMALL)
            for v in _DIVERGENT
        ],
        *[
            T("modulus", draw_p=True, m=m, N=n, f_rule=f, n_rule=r)
            for m, n in (("2^", 13), *_SPEC_GRIDS, *_SPEC_SMALL)
            for f, r in _MODULUS
        ],
        *[
            T("kernel_average", m=m, N=n, rank=rank)
            for m, n in (("2^", 8), ("3^", 5), ("2,3^", 6))
            for rank in (2, 3)
        ],
        T("kernel_average", m="2,3,4^", N=6, rank=2),
    ),
    predictions=(
        ("transform.fft.self_s", "ops_per_s"),
        ("transform.forward.distinct_ratio", "ops_per_s"),
        ("transform.partial_sum.self_s", "ops_per_s"),
        ("transform.coarse_sums.self_s", "ops_per_s"),
        ("group.scaled_bases.self_s", "ops_per_s"),
        ("group.decompose.self_s", "ops_per_s"),
        ("group.digit_table.self_s", "ops_per_s"),
        ("group.index_sub.self_s", "ops_per_s (kernel_average ops)"),
        ("norms.hardy_norm.self_s", "ops_per_s"),
        ("norms.weak_lp.self_s", "op_ms.p50"),
        ("transform.dirichlet_closed.self_s", "op_ms.p90"),
        ("transform.dirichlet_average.self_s", "op_ms.p90"),
        ("martingale.<function>.self_s", "op_ms.p90 (divergence and modulus ops)"),
        ("transform.character_block.self_s", "no change (under 10% of traced time)"),
    ),
)

_TRANSFORMS = (
    # (m, N, direction, input format, output format, copies per pass); M_N 2^12..2^17
    ("2^", 12, "forward", "csv", "csv", 3),
    ("2^", 12, "inverse", "bin", "csv", 3),
    ("3^", 8, "forward", "csv", "bin", 3),
    ("2,3^", 10, "inverse", "csv", "csv", 3),
    ("2^", 14, "forward", "bin", "csv", 3),
    ("2^", 14, "inverse", "csv", "bin", 3),
    ("2,3,4^", 8, "forward", "csv", "csv", 2),
    ("2,3,4^", 8, "inverse", "bin", "bin", 3),
    ("2^", 17, "forward", "csv", "csv", 1),
    ("2^", 17, "inverse", "bin", "bin", 1),
)
CLI_IO = Workload(
    name="cli-io",
    why=(
        "vilenkin.cli.main in-process on seed-generated CSV and .bin files "
        "(M_N 2^12-2^17) plus counterexample, atom, dirichlet, lebesgue and "
        "scan --svg: parsing, serialization and the output writers dominate, "
        "the compute modules do little."
    ),
    templates=(
        *[
            T("cli.transform", m=m, N=n, op=op, fin=fin, fout=fout)
            for m, n, op, fin, fout, copies in _TRANSFORMS
            for _ in range(copies)
        ],
        *[T("cli.counterexample", draw_p=True, m=m, N=n) for m, n in (("2^", 10), ("3^", 6), ("2,3^", 8))] * 7,
        *[
            T("cli.atom", draw_p=True, draw_seed=True, m=m, N=n, rank=2)
            for m, n in (("2^", 10), ("2,3,4^", 5))
        ] * 7,
        *[T("cli.dirichlet", m=m, N=n, n=k) for m, n, k in (("2^", 10, 37), ("2,3^", 6, 100))] * 5,
        *[T("cli.lebesgue", m=m, N=n) for m, n in (("2^", 6), ("3^", 4), ("2,3^", 4)) for _ in range(7)],
        *[T("cli.scan", draw_p=True, name="divergence", m="2^", N=10, variant="Mn_plus_1") for _ in range(7)],
        *[T("cli.scan", name="supp_measure", m="3^", N=5) for _ in range(6)],
        *[T("cli.scan", name="dirichlet_floor", m="2,3,4^", N=5) for _ in range(6)],
    ),
    predictions=(
        ("transform.io.read_s", "ops_per_s"),
        ("transform.io.write_s", "ops_per_s"),
        ("transform.io.bytes_read", "ops_per_s"),
        ("transform.io.bytes_written", "ops_per_s"),
        ("cli.main.self_s", "ops_per_s"),
        ("cli.bytes_written", "ops_per_s"),
        ("transform.fft.self_s", "little change (a small share here)"),
    ),
)

WORKLOADS = {w.name: w for w in (ROWS, SPECTRAL, CLI_IO)}

#: Traced functions each workload must reach (checked by test_bench.py).
COVERAGE = {
    "rows": (
        "group.scaled_bases", "group.decompose", "group.digit_table",
        "transform.character_block", "transform.dirichlet_kernel_blocks", "transform.forward",
        "transform.coarse_sums", "transform.dirichlet_closed",
        "norms.hardy_norm", "norms.lp_norm", "norms.lebesgue_table",
        "martingale.build_counterexample", "martingale.counterexample_atom",
        "martingale.random_atom", "martingale.validate_atom",
        "experiments.supp_measure_scan", "experiments.dirichlet_floor_scan",
        "experiments.weighted_series_scan", "experiments.atom_ratio_scan",
        "experiments.partial_sum_rows",
    ),
    "spectral": (
        "group.scaled_bases", "group.decompose", "group.digit_table", "group.index_sub",
        "transform.forward", "transform.inverse", "transform.partial_sum", "transform.coarse_sums",
        "transform.dirichlet_closed", "transform.dirichlet_average",
        "norms.hardy_norm", "norms.weak_lp", "norms.lp_norm",
        "martingale.build_counterexample", "martingale.counterexample_atom",
        "martingale.closed_partial_sum", "martingale.validate_atom",
        "experiments.boundedness_scan", "experiments.divergence_scan",
        "experiments.modulus_convergence_scan", "experiments.kernel_average_scan",
    ),
    "cli-io": (
        "cli.main", "transform.io.read", "transform.io.write",
        "transform.forward", "transform.inverse",
        "martingale.build_counterexample", "martingale.random_atom",
        "norms.lebesgue_table", "experiments.divergence_scan",
        "experiments.supp_measure_scan", "experiments.dirichlet_floor_scan",
    ),
}


def draw_ops(workload: Workload, seed: int) -> tuple[list[Op], list[Op]]:
    """The seed's op list (one per template) and its once-per-run ops."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [t.draw(rng) for t in workload.templates], [t.draw(rng) for t in workload.once]


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The cheapest op of each kind (by grid size), one per kind."""
    best: dict[str, Op] = {}
    for op in ops:
        cur = best.get(op.kind)
        if cur is None or _grid_size(op) < _grid_size(cur):
            best[op.kind] = op
    return list(best.values())


def _grid_size(op: Op) -> int:
    a = op.args
    return parse_m(a["m"]).size(a["N"])


# ---------------------------------------------------------------------------
# run context: generated inputs, first-seen outputs, oracle cache
# ---------------------------------------------------------------------------


@dataclass
class Context:
    workdir: Path
    seed: int
    expected: dict
    inputs: dict = field(default_factory=dict)  # op key -> (path, values)
    first: dict = field(default_factory=dict)  # op key -> digest of first output
    oracle: dict = field(default_factory=dict)  # op key -> reference values
    cli_bytes: int = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def make_inputs(ctx: Context, ops: list[Op]) -> None:
    """Write the CLI transform inputs drawn from the seed.

    Values are rounded to 6 decimals, so the CSV (12 significant digits)
    and binary files hold them exactly.
    """
    t = vilenkin.transform
    rng = np.random.default_rng(ctx.seed)
    indir = ctx.workdir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    ctx.inputs.clear()
    for op in ops:
        if op.kind != "cli.transform" or op.key in ctx.inputs:
            continue
        a = op.args
        m = parse_m(a["m"])
        size = m.size(a["N"])
        values = np.round(rng.standard_normal(size), 6) + 1j * np.round(rng.standard_normal(size), 6)
        if a["op"] == "forward":
            obj = t.GridFunction(m, a["N"], values)
            writers = (t.write_grid_csv, t.write_grid_binary)
        else:
            obj = t.SpectralVector(m, a["N"], values)
            writers = (t.write_spectral_csv, t.write_spectral_binary)
        path = indir / f"in{len(ctx.inputs)}.{a['fin']}"
        if a["fin"] == "csv":
            with path.open("w") as fh:
                writers[0](fh, obj)
        else:
            with path.open("wb") as fh:
                writers[1](fh, obj)
        ctx.inputs[op.key] = (path, values)


# ---------------------------------------------------------------------------
# running an op
# ---------------------------------------------------------------------------

_SCAN_CALLS = {
    "supp_measure": lambda a: vilenkin.experiments.supp_measure_scan(parse_m(a["m"]), a["N"]),
    "dirichlet_floor": lambda a: vilenkin.experiments.dirichlet_floor_scan(parse_m(a["m"]), a["N"]),
    "lebesgue_table": lambda a: vilenkin.norms.lebesgue_table(parse_m(a["m"]), a["N"]),
    "select_convention": lambda a: vilenkin.norms.select_variation_convention(
        parse_m(a["m"]), a["N"], a["limit"]
    ),
    "weighted_series": lambda a: vilenkin.experiments.weighted_series_scan(
        a["p"], parse_m(a["m"]), a["N"], trials=a["trials"], seed=a["seed"]
    ),
    "atom_ratio": lambda a: vilenkin.experiments.atom_ratio_scan(
        a["p"], parse_m(a["m"]), a["N"], trials=a["trials"], seed=a["seed"]
    ),
    "boundedness": lambda a: vilenkin.experiments.boundedness_scan(
        a["p"], a["variant"], parse_m(a["m"]), a["N"], trials=a["trials"], seed=a["seed"]
    ),
    "divergence": lambda a: vilenkin.experiments.divergence_scan(
        a["p"], a["variant"], parse_m(a["m"]), a["N"]
    ),
    "modulus": lambda a: vilenkin.experiments.modulus_convergence_scan(
        a["p"], a["f_rule"], a["n_rule"], parse_m(a["m"]), a["N"]
    ),
    "kernel_average": lambda a: vilenkin.experiments.kernel_average_scan(parse_m(a["m"]), a["N"], a["rank"]),
}


def _cli_argv(op: Op, ctx: Context, outdir: Path) -> tuple[list[str], Path | None]:
    a = op.args
    sub = op.kind.split(".", 1)[1]
    if sub == "transform":
        src, _ = ctx.inputs[op.key]
        out = outdir / f"out.{a['fout']}"
        return ["transform", "--op", a["op"], "--input", str(src), "--output", str(out)], out
    argv = [sub, "--m", a["m"], "--N", str(a["N"]), "--out", str(outdir)]
    if "p" in a:
        argv += ["--p", repr(a["p"])]
    if sub == "atom":
        argv += ["--rank", str(a["rank"]), "--seed", str(a["seed"])]
    elif sub == "dirichlet":
        argv += ["--n", str(a["n"])]
    elif sub == "scan":
        argv += ["--name", a["name"], "--svg"]
        if "variant" in a:
            argv += ["--variant", a["variant"]]
    return argv, None


def prepare(op: Op, ctx: Context):
    """Return the op's call, with everything outside the op done beforehand."""
    if not op.kind.startswith("cli."):
        fn = _SCAN_CALLS[op.kind]
        a = op.args
        return lambda: fn(a)
    outdir = Path(tempfile.mkdtemp(prefix="op", dir=ctx.workdir))
    argv, out = _cli_argv(op, ctx, outdir)

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = vilenkin.cli.main(argv)
        return rc, outdir, out

    return call


def cleanup(op: Op, result) -> None:
    if op.kind.startswith("cli.") and result is not None:
        shutil.rmtree(result[1], ignore_errors=True)


# ---------------------------------------------------------------------------
# checking an op's output
# ---------------------------------------------------------------------------


def summarize(op: Op, result) -> tuple[dict, bytes, dict]:
    """(recorded summary, bytes that must repeat, health residuals)."""
    if op.kind == "lebesgue_table":
        body = "\n".join(r.csv_row() for r in result).encode()
        summary = {
            "rows": len(result),
            "violations": [r.n for r in result if not r.in_bracket],
            "L_max": max(r.value for r in result),
            "L_sum": math.fsum(r.value for r in result),
        }
        return summary, body, {}
    if op.kind == "select_convention":
        convention, violations = result
        summary = {"convention": convention, "violations": violations}
        return summary, json.dumps(summary, sort_keys=True).encode(), {}
    if op.kind.startswith("cli."):
        return _summarize_cli(op, result)
    text = result.to_json()
    return _scan_summary(json.loads(text)), text.encode(), _scan_health(json.loads(text))


def _scan_summary(blob: dict) -> dict:
    constants = {k: v for k, v in blob["constants"].items() if k not in HEALTH_KEYS}
    return {"verdict": blob["verdict"], "constants": constants}


def _scan_health(blob: dict) -> dict:
    health = {k: blob["constants"][k] for k in HEALTH_KEYS if k in blob["constants"]}
    shifts = [pt["shift_identity_err"] for pt in blob["points"] if pt.get("shift_identity_err") is not None]
    if shifts:
        health["shift_identity_err"] = max(shifts)
    return health


def _summarize_cli(op: Op, result) -> tuple[dict, bytes, dict]:
    rc, outdir, out = result
    files = sorted(p for p in outdir.iterdir() if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() if out is None else b"")
        digest.update(path.read_bytes())
    summary: dict = {"exit": rc}
    health: dict = {}
    sub = op.kind.split(".", 1)[1]
    if sub == "scan":
        (js,) = [p for p in files if p.suffix == ".json"]
        blob = json.loads(js.read_text())
        summary.update(_scan_summary(blob))
        health = _scan_health(blob)
        if not any(p.suffix == ".svg" and p.read_text().startswith("<svg") for p in files):
            raise CheckError("scan --svg wrote no SVG chart")
    elif sub == "counterexample":
        (js,) = [p for p in files if p.suffix == ".json"]
        summary["spec"] = json.loads(js.read_text())
    elif sub in ("lebesgue", "dirichlet"):
        (csv,) = files
        summary["rows"] = sum(1 for line in csv.read_text().splitlines() if line[:1].isdigit())
    return summary, digest.digest(), health


def same(expected, actual) -> bool:
    """Equality with a relative tolerance on floats, recursively."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(same(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(same(e, a) for e, a in zip(expected, actual))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or actual is None:
            return expected == actual
        if not (math.isfinite(expected) and math.isfinite(actual)):
            return expected == actual
        return abs(expected - actual) <= CONST_RTOL * max(abs(expected), abs(actual)) + CONST_ATOL
    return expected == actual


def check(op: Op, result, ctx: Context) -> None:
    """Raise CheckError unless the op's output is right."""
    summary, body, health = summarize(op, result)
    want = ctx.expected.get(op.key)
    if want is None:
        raise CheckError(f"no recorded expectation for {op.key}")
    if not same(want, summary):
        raise CheckError(f"{op.key}: got {summary!r}, recorded {want!r}")
    for key, value in health.items():
        if value is None or not value <= HEALTH_TOL:
            raise CheckError(f"{op.key}: health residual {key} = {value!r} exceeds {HEALTH_TOL}")
    digest = hashlib.sha256(body).digest()
    if ctx.first.setdefault(op.key, digest) != digest:
        raise CheckError(f"{op.key}: output bytes differ from the same op earlier in the run")
    if op.kind == "cli.transform":
        _check_transform(op, result, ctx)
    elif op.kind == "cli.atom":
        _check_atom(op, result)
    if op.kind.startswith("cli."):
        ctx.cli_bytes += sum(p.stat().st_size for p in result[1].iterdir())


def _read_values(path: Path) -> np.ndarray:
    """Parse a vilenkin CSV or binary function file without the library."""
    raw = path.read_bytes()
    if path.suffix == ".bin":
        if raw[:4] != b"VGF1":
            raise CheckError(f"{path.name}: bad magic")
        _, _, mlen = struct.unpack_from("<BIH", raw, 4)
        return np.frombuffer(raw[11 + mlen :], dtype="<c16")
    _, sep, body = raw.decode().partition("index,re,im\n")
    if not sep:
        raise CheckError(f"{path.name}: no column header")
    cells = np.fromstring(body.replace("\n", ","), dtype=np.float64, sep=",").reshape(-1, 3)
    if not np.array_equal(cells[:, 0], np.arange(cells.shape[0])):
        raise CheckError(f"{path.name}: rows out of order")
    return cells[:, 1] + 1j * cells[:, 2]


def _close(actual: np.ndarray, ref: np.ndarray, what: str) -> None:
    if actual.shape != ref.shape:
        raise CheckError(f"{what}: shape {actual.shape}, expected {ref.shape}")
    err = float(np.abs(actual - ref).max())
    if not err <= VALUE_RTOL * float(np.abs(ref).max()):
        raise CheckError(f"{what}: max error {err:.3e} exceeds {VALUE_RTOL:g} of the peak")


def _check_transform(op: Op, result, ctx: Context) -> None:
    t = vilenkin.transform
    a = op.args
    m = parse_m(a["m"])
    _, values = ctx.inputs[op.key]
    got = _read_values(result[2])
    ref = ctx.oracle.get(op.key)
    if ref is None:
        if a["op"] == "forward":
            f = t.GridFunction(m, a["N"], values)
            ref = (t.forward_naive(f, block=64) if values.size <= ORACLE_MAX else t.forward(f)).coeffs
        else:
            ref = t.inverse(t.SpectralVector(m, a["N"], values)).values
        ctx.oracle[op.key] = ref
    _close(got, ref, f"{op.key} output")
    if a["op"] == "forward":
        back = t.inverse(t.SpectralVector(m, a["N"], got)).values
    else:
        back = t.forward(t.GridFunction(m, a["N"], got)).coeffs
    _close(back, values, f"{op.key} round trip")


def _check_atom(op: Op, result) -> None:
    """The three p-atom conditions, checked on the written file."""
    a = op.args
    (path,) = [p for p in result[1].iterdir() if p.suffix == ".csv"]
    values = _read_values(path)
    m_rank = parse_m(a["m"]).base(a["rank"])
    support = (np.arange(values.size) % m_rank) == 0
    if abs(values[support].mean()) / m_rank > HEALTH_TOL:
        raise CheckError(f"{op.key}: atom mean is not zero on its support")
    if np.abs(values).max() > m_rank ** (1.0 / a["p"]) * (1.0 + HEALTH_TOL):
        raise CheckError(f"{op.key}: atom exceeds its sup bound")
    if np.any(values[~support] != 0):
        raise CheckError(f"{op.key}: atom is nonzero off its support")


def run_op(op: Op, ctx: Context):
    """Run one op untimed and return (result, summary); used by record.py and tests."""
    result = prepare(op, ctx)()
    try:
        return result, summarize(op, result)
    finally:
        cleanup(op, result)
