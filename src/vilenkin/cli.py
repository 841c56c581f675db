"""Command-line front-end: transforms, kernel and constant tables,
counterexample construction, and the scenario scans.

Every emitted file begins with its run configuration, and seeds default
to a fixed constant, so artifacts regenerate bit-identically from their
own headers.  Exit codes: 0 success, 1 a scan verdict came back
"violated", 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .group import (
    GeneratorSequence,
    GroupPoint,
    coset_mask,
    decompose,
    group_add,
    group_sub,
    variation,
)
from .martingale import (
    build_counterexample,
    counterexample_atom,
    default_alphas,
    random_atom,
    spectral_profile,
    validate_atom,
)
from .norms import (
    hardy_norm,
    lebesgue_constant,
    lebesgue_table,
    lp_norm,
    maximal_function,
    modulus_hp,
    restricted_maximal,
    select_variation_convention,
    weak_lp,
)
from .experiments import DEFAULT_SEED, SCAN_REGISTRY
from .transform import (
    GridFunction,
    character_values,
    constant,
    dirichlet_closed,
    dirichlet_direct,
    forward,
    grid_function,
    inverse,
    partial_sum,
    read_grid_binary,
    read_grid_csv,
    read_spectral_binary,
    read_spectral_csv,
    write_grid_binary,
    write_grid_csv,
    write_spectral_binary,
    write_spectral_csv,
)

ENV_OUTDIR = "VILENKIN_OUTDIR"


@dataclass
class RunConfig:
    """Everything needed to regenerate an artifact."""

    command: str
    m: str
    N: int
    p: float | None = None
    seed: int = DEFAULT_SEED
    outdir: str = "."

    def header_lines(self) -> list[str]:
        pairs = [f"command={self.command}", f"m={self.m}", f"N={self.N}"]
        if self.p is not None:
            pairs.append(f"p={self.p:.12g}")
        pairs.extend([f"seed={self.seed}", f"version={__version__}"])
        return [f"# vilenkin-config: {' '.join(pairs)}"]


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {line!r} (expected key=value)")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _outdir(args) -> Path:
    out = os.environ.get(ENV_OUTDIR) or getattr(args, "out", None) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, config: RunConfig, body: str) -> None:
    path.write_text("\n".join(config.header_lines()) + "\n" + body)


def _read_function(path: Path):
    if path.suffix == ".bin":
        with path.open("rb") as fh:
            kind = fh.read(5)[4:]  # the kind byte follows the 4-byte magic
            fh.seek(0)
            return read_spectral_binary(fh) if kind == b"\x01" else read_grid_binary(fh)
    with path.open() as fh:
        first = fh.readline()
        fh.seek(0)
        if "spectral" in first:
            return read_spectral_csv(fh)
        return read_grid_csv(fh)


def _parse_common(args) -> tuple[GeneratorSequence, int]:
    m = GeneratorSequence.parse(args.m)
    return m, args.N


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_transform(args) -> int:
    m, n = _parse_common(args)
    src = Path(args.input)
    obj = _read_function(src)
    if args.op == "forward":
        if not isinstance(obj, GridFunction):
            raise ValueError("forward transform expects a grid-function input")
        result = forward(obj)
        writer_csv, writer_bin = write_spectral_csv, write_spectral_binary
    else:
        if isinstance(obj, GridFunction):
            raise ValueError("inverse transform expects a spectral input")
        result = inverse(obj)
        writer_csv, writer_bin = write_grid_csv, write_grid_binary
    out = Path(args.output)
    if out.suffix == ".bin":
        with out.open("wb") as fh:
            writer_bin(fh, result)
    else:
        with out.open("w") as fh:
            writer_csv(fh, result)
    print(f"{args.op} transform: {src} -> {out} (M_N = {result.size})")
    return 0


def _cmd_dirichlet(args) -> int:
    m, resolution = _parse_common(args)
    config = RunConfig("dirichlet", m.format(), resolution, seed=args.seed)
    closed = dirichlet_closed(m, args.n, resolution)
    direct = dirichlet_direct(m, args.n, resolution)
    err = float(np.abs(closed.values - direct.values).max())
    print(f"D_{args.n} at N={resolution}: closed-vs-direct max err {err:.3e}")
    bases = m.scaled_bases(resolution)
    if args.n in bases:
        k = bases.index(args.n)
        ref = np.zeros(m.size(resolution), dtype=complex)
        mask = coset_mask(m, resolution, k)
        ref[mask] = args.n
        block_err = float(np.abs(closed.values - ref).max())
        print(f"block-kernel identity at k={k}: max err {block_err:.3e}")
    outdir = _outdir(args)
    path = outdir / f"dirichlet_m{m.format().replace(',', '_').replace('^', 'c')}_n{args.n}.csv"
    import io as _io

    buf = _io.StringIO()
    write_grid_csv(buf, closed)
    _write_text(path, config, buf.getvalue())
    print(f"kernel written to {path}")
    return 0 if err <= 1e-9 else 1


def _cmd_lebesgue(args) -> int:
    m, resolution = _parse_common(args)
    config = RunConfig("lebesgue", m.format(), resolution, seed=args.seed)
    convention = args.convention
    note = ""
    if convention == "auto":
        convention, violations = select_variation_convention(
            m, resolution, min(m.size(resolution), 512)
        )
        note = f" (oracle pick; bracket violations {dict((k, len(v)) for k, v in violations.items())})"
    table = lebesgue_table(m, resolution, args.limit, convention)
    rows = ["n,L_n,lower,upper,v,v_star,convention"]
    rows.extend(r.csv_row() for r in table)
    outdir = _outdir(args)
    path = outdir / f"lebesgue_m{m.format().replace(',', '_').replace('^', 'c')}_N{resolution}.csv"
    _write_text(path, config, "\n".join(rows) + "\n")
    bad = [r.n for r in table if not r.in_bracket]
    print(f"{len(table)} rows under convention {convention}{note}; bracket violations: {bad or 'none'}")
    print(f"table written to {path}")
    return 0 if not bad else 1


def _cmd_atom(args) -> int:
    m, resolution = _parse_common(args)
    config = RunConfig("atom", m.format(), resolution, p=args.p, seed=args.seed)
    if args.validate:
        f = _read_function(Path(args.validate))
        if not isinstance(f, GridFunction):
            raise ValueError("atom validation expects a grid-function file")
        atom = validate_atom(f, args.p, args.rank, args.base)
        print(f"valid p-atom: support rank {atom.support_rank}, p = {atom.p}")
        return 0
    rng = np.random.default_rng(args.seed)
    atom = random_atom(m, args.p, args.rank, resolution, rng, base_index=args.base)
    outdir = _outdir(args)
    path = outdir / f"atom_p{args.p:g}_rank{args.rank}.csv"
    import io as _io

    buf = _io.StringIO()
    write_grid_csv(buf, atom.values)
    _write_text(path, config, buf.getvalue())
    print(f"random p-atom written to {path} (validated)")
    return 0


def _cmd_counterexample(args) -> int:
    m, resolution = _parse_common(args)
    config = RunConfig("counterexample", m.format(), resolution, p=args.p, seed=args.seed)
    alphas = (
        [int(tok) for tok in args.alphas.split(",")] if args.alphas else default_alphas(m, resolution)
    )
    lambdas = [float(tok) for tok in args.lambdas.split(",")] if args.lambdas else None
    phi = _parse_phi(args.phi)
    spec = build_counterexample(
        m, args.p, alphas, rule=args.rule, phi=phi, lambdas=lambdas, resolution=resolution
    )
    outdir = _outdir(args)
    stem = f"counterexample_p{args.p:g}_N{resolution}"
    (outdir / f"{stem}.json").write_text(spec.to_json() + "\n")
    profile = spectral_profile(spec)
    rows = ["j,re,im"]
    rows.extend(f"{j},{z.real:.12g},{z.imag:.12g}" for j, z in enumerate(profile))
    _write_text(outdir / f"{stem}_coefficients.csv", config, "\n".join(rows) + "\n")
    with (outdir / f"{stem}_realized.bin").open("wb") as fh:
        write_grid_binary(fh, spec.realized)
    print(
        f"martingale spec: alphas {list(spec.alphas)}, budget sum|lambda|^p = "
        f"{spec.coefficient_budget:.6g}; files under {outdir}/{stem}*"
    )
    return 0


def _parse_phi(text: str | None):
    if not text or text == "none":
        return None
    tag, _, value = text.partition(":")
    if tag == "constant":
        return ("constant", float(value or 1.0))
    if tag == "log":
        return ("log",)
    if tag == "power":
        return ("power", float(value or 0.5))
    raise ValueError(f"unknown phi form {text!r} (use constant:<c>, log, power:<t>)")


def _cmd_scan(args) -> int:
    m, resolution = _parse_common(args)
    if args.name not in SCAN_REGISTRY:
        raise ValueError(f"unknown scan {args.name!r}; available: {', '.join(sorted(SCAN_REGISTRY))}")
    config = RunConfig(f"scan:{args.name}", m.format(), resolution, p=args.p, seed=args.seed)
    kwargs: dict = {}
    if args.name == "atom_ratio":
        result = SCAN_REGISTRY[args.name](args.p, m, resolution, trials=args.trials, seed=args.seed)
    elif args.name == "divergence":
        alphas = [int(t) for t in args.alphas.split(",")] if args.alphas else None
        lambdas = [float(t) for t in args.lambdas.split(",")] if args.lambdas else None
        result = SCAN_REGISTRY[args.name](
            args.p,
            args.variant or "Mn_plus_1",
            m,
            resolution,
            phi=_parse_phi(args.phi),
            alphas=alphas,
            rule=args.rule,
            lambdas=lambdas,
        )
    elif args.name == "boundedness":
        result = SCAN_REGISTRY[args.name](
            args.p, args.variant or "Mn", m, resolution, trials=args.trials, seed=args.seed
        )
    elif args.name == "weighted_series":
        result = SCAN_REGISTRY[args.name](args.p, m, resolution, trials=args.trials, seed=args.seed)
    elif args.name == "modulus_convergence":
        result = SCAN_REGISTRY[args.name](
            args.p, args.f_rule, args.variant or "default", m, resolution
        )
    elif args.name == "kernel_average":
        result = SCAN_REGISTRY[args.name](m, resolution, args.rank, n_limit=args.limit)
    else:  # supp_measure, dirichlet_floor
        result = SCAN_REGISTRY[args.name](m, resolution, n_limit=args.limit)

    outdir = _outdir(args)
    stem = f"scan_{args.name}_m{m.format().replace(',', '_').replace('^', 'c')}_N{resolution}"
    (outdir / f"{stem}.json").write_text(result.to_json() + "\n")
    _write_text(outdir / f"{stem}.csv", config, result.to_csv())
    if args.svg:
        (outdir / f"{stem}.svg").write_text(result.to_svg())
    print(f"scan {args.name}: verdict {result.verdict}; constants {result.constants}")
    print(f"results under {outdir}/{stem}.*")
    return 1 if result.verdict == "violated" else 0


# ---------------------------------------------------------------------------
# selftest: the trivial identities, asserted end to end
# ---------------------------------------------------------------------------


def _selftest_checks():
    walsh = GeneratorSequence.parse("2^")
    triadic = GeneratorSequence.parse("3^")
    mixed = GeneratorSequence.parse("2,3,4")

    def scaled_bases():
        assert GeneratorSequence((2, 2, 2)).scaled_bases(3) == [1, 2, 4, 8]
        assert mixed.scaled_bases(3) == [1, 2, 6, 24]
        assert walsh.scaled_bases(5) == [2**k for k in range(6)]

    def digit_statistics():
        for m, k in [(walsh, 5), (triadic, 4), (mixed, 3)]:
            idx = decompose(m.base(k) + 1, m)
            assert (idx.top, idx.bottom, idx.rho) == (k, 0, k)
            idx = decompose(m.base(k) + m.base(k - 1), m)
            assert (idx.top, idx.bottom, idx.rho) == (k, k - 1, 1)
            idx = decompose(m.base(k), m)
            assert (idx.top, idx.bottom, idx.rho) == (k, k, 0)

    def variation_counts():
        assert variation(decompose(1, walsh), walsh, "from1") == (1, 0)
        assert variation(decompose(5, walsh), walsh, "from1") == (3, 0)
        assert variation(decompose(1, triadic), triadic, "from0")[1] == 1
        assert variation(decompose(1, triadic), triadic, "from1")[1] == 0

    def group_law():
        x = GroupPoint((1, 0, 1), walsh)
        assert group_add(x, x).coords == (0, 0, 0)
        m32 = GeneratorSequence((3, 2))
        y = GroupPoint((2, 1), m32)
        assert group_add(y, y).coords == ((2 + 2) % 3, 0)
        assert group_sub(y, y).coords == (0, 0)

    def characters():
        assert np.allclose(character_values(walsh, 0, 3), 1.0)
        vals = character_values(walsh, 1, 3)
        assert vals[0] == 1 and abs(vals[1] + 1) < 1e-12
        v3 = character_values(triadic, 1, 2)
        assert abs(v3[1] - np.exp(2j * np.pi / 3)) < 1e-12

    def orthonormality():
        f = constant(walsh, 3)
        coeffs = forward(f).coeffs
        assert abs(coeffs[0] - 1) < 1e-12 and np.abs(coeffs[1:]).max() < 1e-12
        g = grid_function(walsh, 3, character_values(walsh, 5, 3))
        coeffs = forward(g).coeffs
        assert abs(coeffs[5] - 1) < 1e-12

    def kernels():
        assert np.allclose(dirichlet_closed(walsh, 1, 3).values, 1.0)
        for k in range(4):
            d = dirichlet_closed(walsh, 2**k, 4).values
            mask = (np.arange(16) % 2**k) == 0
            assert np.abs(d[mask] - 2**k).max() < 1e-9
            assert np.abs(d[~mask]).max(initial=0.0) < 1e-9

    def partial_sums():
        rng = np.random.default_rng(0)
        f = grid_function(walsh, 4, rng.standard_normal(16))
        assert np.abs(partial_sum(f, 16).values - f.values).max() < 1e-10
        psi = grid_function(walsh, 4, character_values(walsh, 6, 4))
        assert np.abs(partial_sum(psi, 7).values - psi.values).max() < 1e-10
        assert np.abs(partial_sum(psi, 6).values).max() < 1e-10

    def norm_values():
        for k in range(4):
            dk = dirichlet_closed(walsh, 2**k, 4)
            assert abs(lp_norm(dk, 1.0) - 1.0) < 1e-12
            assert abs(lp_norm(dk, 0.5) - 2.0**-k) < 1e-12  # M_k^(1-1/p), p=1/2
        c = constant(walsh, 3, 2.5)
        assert abs(lp_norm(c, 0.7) - 2.5) < 1e-12
        assert abs(weak_lp(c, 0.5) - 2.5) < 1e-9

    def weak_two_level():
        vals = np.zeros(8)
        vals[::2] = 1.0  # indicator of I_1
        f = grid_function(walsh, 3, vals)
        for p in (0.5, 1.0, 2.0):
            assert abs(weak_lp(f, p) - 0.5 ** (1.0 / p)) < 1e-9

    def lebesgue_trivia():
        assert abs(lebesgue_constant(walsh, 1, 4).value - 1.0) < 1e-12
        for k in range(1, 4):
            assert abs(lebesgue_constant(walsh, 2**k, 4).value - 1.0) < 1e-12
        assert abs(lebesgue_constant(walsh, 3, 4).value - 1.5) < 1e-12

    def hardy_trivia():
        f = constant(walsh, 3)
        assert abs(hardy_norm(f, 0.5) - 1.0) < 1e-12
        rng = np.random.default_rng(1)
        g = grid_function(walsh, 4, rng.standard_normal(16))
        assert hardy_norm(g, 0.5) >= lp_norm(g, 0.5) - 1e-12

    def restricted_trivia():
        rng = np.random.default_rng(2)
        f = grid_function(walsh, 3, rng.standard_normal(8))
        top = restricted_maximal(f, [8])
        assert np.abs(top.values.real - np.abs(f.values)).max() < 1e-10
        full = restricted_maximal(f, [1, 2, 4, 8])
        assert np.abs(full.values - maximal_function(f).values).max() < 1e-10

    def modulus_trivia():
        rng = np.random.default_rng(3)
        f = grid_function(walsh, 4, rng.standard_normal(16))
        assert modulus_hp(f, 4, 0.5) < 1e-12
        psi = grid_function(walsh, 4, character_values(walsh, 4, 4))  # psi_{M_2}
        for n in (0, 1, 2):
            assert abs(modulus_hp(psi, n, 0.5) - hardy_norm(psi, 0.5)) < 1e-12

    def atoms():
        try:
            validate_atom(constant(walsh, 3), 0.5, 0)
            raise AssertionError("constant function accepted as atom")
        except Exception as exc:
            assert "mean" in str(exc)
        atom = counterexample_atom(walsh, 3, 0.5, 4)
        vals = atom.values.values.real
        assert abs(vals[(np.arange(16) % 4) == 0].mean() * 0 + vals[0] - 2.0) < 1e-9
        mask1 = (np.arange(16) % 2) == 0
        assert abs(vals[mask1].mean()) < 1e-9  # mean zero over I_1

    def counterexample_boundary():
        spec = build_counterexample(walsh, 0.5, [3, 5], rule="explicit", lambdas=[1.0, 1.0], resolution=6)
        from .martingale import closed_partial_sum

        s = closed_partial_sum(spec, 4)  # j = M_{|alpha_1|}: kernel term vanishes
        ref = partial_sum(spec.realized, 4)
        assert np.abs(s.values - ref.values).max() < 1e-9

    return [
        ("scaled bases", scaled_bases),
        ("digit statistics", digit_statistics),
        ("variation counts", variation_counts),
        ("group law", group_law),
        ("characters", characters),
        ("orthonormality", orthonormality),
        ("block kernels", kernels),
        ("partial sums", partial_sums),
        ("norm values", norm_values),
        ("weak two-level", weak_two_level),
        ("Lebesgue constants", lebesgue_trivia),
        ("Hardy norm", hardy_trivia),
        ("restricted maximal", restricted_trivia),
        ("modulus", modulus_trivia),
        ("atoms", atoms),
        ("counterexample boundary", counterexample_boundary),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # keep going; report all failures
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("all selftest checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(sub, need_p=False):
    sub.add_argument("--m", default="2^", help="generator sequence, e.g. 2^ or 2,3,4 or 2,3^")
    sub.add_argument("--N", type=int, default=8, help="resolution (grid has M_N cosets)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUTDIR})")
    sub.add_argument("--config", default=None, help="key=value config file with flag defaults")
    if need_p:
        sub.add_argument("--p", type=float, default=0.5)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Vilenkin-Fourier analysis: transforms, kernels, Hardy norms, divergence scans",
    )
    parser.add_argument("--version", action="version", version=f"vilenkin {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    s = commands["transform"] = subs.add_parser(
        "transform", help="forward/inverse transform a function file"
    )
    _add_common(s)
    s.add_argument("--op", choices=["forward", "inverse"], required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    s.set_defaults(func=_cmd_transform)

    s = commands["dirichlet"] = subs.add_parser("dirichlet", help="emit a Dirichlet kernel and verify its identities")
    _add_common(s)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_dirichlet)

    s = commands["lebesgue"] = subs.add_parser("lebesgue", help="exact Lebesgue constants with variation bounds")
    _add_common(s)
    s.add_argument("--limit", type=int, default=None, help="table covers 1 <= n < limit")
    s.add_argument("--convention", choices=["auto", "from0", "from1"], default="auto")
    s.set_defaults(func=_cmd_lebesgue)

    s = commands["atom"] = subs.add_parser("atom", help="generate or validate a p-atom")
    _add_common(s, need_p=True)
    s.add_argument("--rank", type=int, default=2, help="support coset rank")
    s.add_argument("--base", type=int, default=0, help="support coset base index")
    s.add_argument("--validate", default=None, help="grid file to validate instead of generating")
    s.set_defaults(func=_cmd_atom)

    s = commands["counterexample"] = subs.add_parser("counterexample", help="build the divergence martingale")
    _add_common(s, need_p=True)
    s.add_argument("--rule", choices=["balanced", "unit_kernel", "explicit"], default="balanced")
    s.add_argument("--alphas", default=None, help="comma list; default M_(2^k)+1")
    s.add_argument("--lambdas", default=None, help="comma list (rule=explicit)")
    s.add_argument("--phi", default=None, help="constant:<c> | log | power:<t>")
    s.set_defaults(func=_cmd_counterexample)

    s = commands["scan"] = subs.add_parser("scan", help="run a scenario scan by name")
    _add_common(s, need_p=True)
    s.add_argument("--name", required=True, help=", ".join(sorted(SCAN_REGISTRY)))
    s.add_argument("--variant", default=None)
    s.add_argument("--f-rule", dest="f_rule", default="unit_kernel")
    s.add_argument("--rule", default="balanced")
    s.add_argument("--alphas", default=None)
    s.add_argument("--lambdas", default=None)
    s.add_argument("--phi", default=None)
    s.add_argument("--trials", type=int, default=50)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--rank", type=int, default=3)
    s.add_argument("--svg", action="store_true", help="also write an SVG of the trace")
    s.set_defaults(func=_cmd_scan)

    s = commands["selftest"] = subs.add_parser("selftest", help="run the built-in identity checks")
    s.set_defaults(func=_cmd_selftest)

    return parser, commands


def _cast_config(action: argparse.Action, value: str):
    """A config value typed like its flag: switches take true/false."""
    if action.nargs == 0:
        if value not in ("true", "false"):
            raise ValueError(f"config key {action.dest!r} is a switch: use true or false, not {value!r}")
        return value == "true"
    if action.type is None:
        return value
    try:
        return action.type(value)
    except ValueError:
        raise ValueError(f"config key {action.dest!r}: cannot read {value!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            sub = commands[args.command]
            known = {action.dest: action for action in sub._actions if action.dest != "help"}
            overrides = {}
            for k, v in _load_config_file(args.config).items():
                if k not in known:
                    raise ValueError(
                        f"unknown config key {k!r} for {args.command} "
                        f"(known: {', '.join(sorted(known))})"
                    )
                overrides[k] = _cast_config(known[k], v)
            # Config values become subcommand defaults, so explicit flags win.
            sub.set_defaults(**overrides)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        # OverflowError covers BaseOverflowError: a grid past the 64-bit width.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
