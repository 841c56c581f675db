"""Command-line front-end: transforms, kernel and constant tables,
counterexample construction, and the scenario scans.

Every emitted file begins with its run configuration, and seeds default
to a fixed constant, so artifacts regenerate bit-identically from their
own headers.  Exit codes: 0 success, 1 a scan verdict came back
"violated", 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .group import (
    GeneratorSequence,
    GroupPoint,
    WALSH,
    coset_mask,
    decompose,
    group_add,
    group_sub,
    variation,
)
from .martingale import (
    MartingaleSpec,
    build_counterexample,
    closed_partial_sum,
    counterexample_atom,
    default_alphas,
    random_atom,
    spectral_profile,
    validate_atom,
)
from .norms import (
    _picked_table,
    hardy_norm,
    lebesgue_constant,
    lebesgue_table,
    lp_norm,
    maximal_function,
    modulus_hp,
    restricted_maximal,
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
    write_csv_rows,
    write_grid_binary,
    write_grid_csv,
    write_spectral_binary,
    write_spectral_csv,
)

# Parsed values that leave a file's bytes alone, or that ``command=`` names.
_UNRECORDED = {"command", "name", "out", "config", "func"}


def _config_line(args, m: GeneratorSequence) -> str:
    """The first line of every file a command writes: each parsed flag not at
    None as ``dest=value`` in parser order, so it reads back as ``--config``."""
    command = f"scan:{args.name}" if args.command == "scan" else args.command
    flags = [(k, v) for k, v in dict(vars(args), m=m.format()).items() if k not in _UNRECORDED and v is not None]
    pairs = [f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in flags]
    return f"# vilenkin-config: {' '.join([f'command={command}', *pairs, f'version={__version__}'])}\n"


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
    """``--out``, else the working directory."""
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _file_tag(m: GeneratorSequence) -> str:
    """The generator sequence as a file-name part: 2,3^ becomes 2_3c."""
    return m.format().replace(",", "_").replace("^", "c")


def _grid(args) -> tuple[GeneratorSequence, int]:
    """``--m`` and ``--N``.  A negative N is refused here, before a flag such
    as ``--rank`` is checked against a range derived from it."""
    m = GeneratorSequence.parse(args.m)
    if args.N < 0:
        raise ValueError("resolution must be nonnegative")
    return m, args.N


def _read_function(path: Path, read_csv, read_binary):
    """Read ``path`` with ``read_binary`` if it ends in .bin, else ``read_csv``.

    The caller passes the readers of the kind it expects; each one parses the
    header and refuses a file of the other kind.
    """
    if path.suffix == ".bin":
        with path.open("rb") as fh:
            return read_binary(fh)
    with path.open() as fh:
        return read_csv(fh)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_transform(args) -> int:
    src = Path(args.input)
    # The readers refuse non-finite entries, but finite ones near the float
    # limit can still overflow the transform: refused here, before the output
    # is opened, since the readers would refuse what it wrote.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.op == "forward":
            result = forward(_read_function(src, read_grid_csv, read_grid_binary))
            writer_csv, writer_bin, values = write_spectral_csv, write_spectral_binary, result.coeffs
        else:
            result = inverse(_read_function(src, read_spectral_csv, read_spectral_binary))
            writer_csv, writer_bin, values = write_grid_csv, write_grid_binary, result.values
    if not np.isfinite(values).all():
        raise ValueError(f"the {args.op} transform of {src} overflows the float range")
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
    m, resolution = _grid(args)
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
    path = outdir / f"dirichlet_m{_file_tag(m)}_n{args.n}.csv"
    with path.open("w") as fh:
        fh.write(_config_line(args, m))
        write_grid_csv(fh, closed)
    print(f"kernel written to {path}")
    return 0 if err <= 1e-9 else 1


def _cmd_lebesgue(args) -> int:
    m, resolution = _grid(args)
    convention, note = args.convention, ""
    if convention == "auto":
        convention, violations, table = _picked_table(m, resolution, args.limit)
        note = f" (oracle pick; bracket violations {dict((k, len(v)) for k, v in violations.items())})"
    else:
        table = lebesgue_table(m, resolution, args.limit, convention)
    outdir = _outdir(args)
    path = outdir / f"lebesgue_m{_file_tag(m)}_N{resolution}.csv"
    with path.open("w") as fh:
        fh.write(_config_line(args, m) + "n,L_n,lower,upper,v,v_star,convention\n")
        fh.writelines(f"{r.csv_row()}\n" for r in table)
    bad = [r.n for r in table if not r.in_bracket]
    print(f"{len(table)} rows under convention {convention}{note}; bracket violations: {bad or 'none'}")
    print(f"table written to {path}")
    return 0 if not bad else 1


def _default_rank(args, default: int, least: int, resolution: int) -> int:
    """``--rank`` as given, else ``default``, set on ``args`` for the config
    line.  The default needs N >= ``least``; below that it is refused by name,
    not through a range derived from an N the rank was never checked against."""
    if args.rank is None:
        if resolution < least:
            raise ValueError(f"the default --rank {default} needs N >= {least}, not N = {resolution}; pass --rank")
        args.rank = default
    return args.rank


def _cmd_atom(args) -> int:
    if args.validate:
        # the grid is the file's; --m and --N are not read
        f = _read_function(Path(args.validate), read_grid_csv, read_grid_binary)
        # a coset of rank R <= N
        atom = validate_atom(f, args.p, _default_rank(args, 2, 2, f.resolution), args.base)
        print(f"valid p-atom: support rank {atom.support_rank}, p = {atom.p}")
        return 0
    m, resolution = _grid(args)
    rng = np.random.default_rng(args.seed)
    # a support coset of rank R < N
    atom = random_atom(m, args.p, _default_rank(args, 2, 3, resolution), resolution, rng, base_index=args.base)
    outdir = _outdir(args)
    path = outdir / f"atom_p{args.p:g}_rank{args.rank}.csv"
    with path.open("w") as fh:
        fh.write(_config_line(args, m))
        write_grid_csv(fh, atom.values)
    print(f"random p-atom written to {path} (validated)")
    return 0


def _cmd_counterexample(args) -> int:
    m, resolution = _grid(args)
    alphas = _parse_list(args.alphas, int, "--alphas") or default_alphas(m, resolution)
    lambdas = _parse_list(args.lambdas, float, "--lambdas")
    phi = _parse_phi(args.phi)
    spec = build_counterexample(
        m, args.p, alphas, rule=args.rule, phi=phi, lambdas=lambdas, resolution=resolution
    )
    profile = spectral_profile(spec)
    outdir = _outdir(args)
    stem = f"counterexample_p{args.p:g}_N{resolution}"
    (outdir / f"{stem}.json").write_text(spec.to_json() + "\n")
    with (outdir / f"{stem}_coefficients.csv").open("w") as fh:
        fh.write(_config_line(args, m) + "j,re,im\n")
        write_csv_rows(fh, profile)
    with (outdir / f"{stem}_realized.bin").open("wb") as fh:
        write_grid_binary(fh, spec.realized)
    print(
        f"martingale spec: alphas {list(spec.alphas)}, budget sum|lambda|^p = "
        f"{spec.coefficient_budget:.6g}; files under {outdir}/{stem}*"
    )
    return 0


def _parse_token(text: str, cast, flag: str):
    """``cast(text)``, refused with the flag and the token named."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not {'an integer' if cast is int else 'a number'}") from None


def _parse_list(text: str | None, cast, flag: str) -> list | None:
    return [_parse_token(tok, cast, flag) for tok in text.split(",")] if text else None


def _parse_phi(text: str | None):
    if not text or text == "none":
        return None
    tag, _, value = text.partition(":")
    if tag == "constant":
        return ("constant", _parse_token(value, float, "--phi") if value else 1.0)
    if tag == "log":
        if text != "log":
            raise ValueError(f"--phi: log takes no value, not {text!r}")
        return ("log",)
    if tag == "power":
        return ("power", _parse_token(value, float, "--phi") if value else 0.5)
    raise ValueError(f"unknown phi form {text!r} (use constant:<c>, log, power:<t>)")


# Scan keywords whose flag has another name, and the --variant a scan gets
# when none is given.  Every other keyword reads the flag of its own name.
SCAN_FLAGS = {"resolution": "N", "n_rule": "variant", "n_limit": "limit", "support_rank": "rank"}
SCAN_VARIANTS = {"divergence": "Mn_plus_1", "boundedness": "Mn", "modulus_convergence": "default"}


def _cmd_scan(args) -> int:
    m, resolution = _grid(args)
    if args.name not in SCAN_REGISTRY:
        raise ValueError(f"unknown scan {args.name!r}; available: {', '.join(sorted(SCAN_REGISTRY))}")
    # inspect.signature follows __wrapped__, so a functools.wraps wrapper in
    # the registry still shows the scan's own keywords.
    params = inspect.signature(SCAN_REGISTRY[args.name]).parameters
    # kernel_average averages over a coset of rank R <= N; the other scans take no rank
    _default_rank(args, 3, 3 if "support_rank" in params else 0, resolution)
    flags = dict(
        vars(args),
        m=m,
        variant=args.variant or SCAN_VARIANTS.get(args.name),
        alphas=_parse_list(args.alphas, int, "--alphas"),
        lambdas=_parse_list(args.lambdas, float, "--lambdas"),
        phi=_parse_phi(args.phi),
    )
    result = SCAN_REGISTRY[args.name](**{key: flags[SCAN_FLAGS.get(key, key)] for key in params})

    outdir = _outdir(args)
    stem = f"scan_{args.name}_m{_file_tag(m)}_N{resolution}"
    (outdir / f"{stem}.json").write_text(result.to_json() + "\n")
    with (outdir / f"{stem}.csv").open("w") as fh:
        fh.write(_config_line(args, m) + result.to_csv())
    if args.svg:
        (outdir / f"{stem}.svg").write_text(result.to_svg())
    print(f"scan {args.name}: verdict {result.verdict}; constants {result.constants}")
    print(f"results under {outdir}/{stem}.*")
    return 1 if result.verdict == "violated" else 0


# ---------------------------------------------------------------------------
# selftest: one named identity per row, also collected by the test suite
# ---------------------------------------------------------------------------

_TRIADIC = GeneratorSequence.parse("3^")
_MIXED = GeneratorSequence.parse("2,3,4")
_X = GroupPoint((1, 0, 1, 1), WALSH)
_Y = GroupPoint((2, 1), GeneratorSequence((3, 2)))
_SPREAD_CASES = ((WALSH, 5), (_TRIADIC, 4), (_MIXED, 3))


def _close(a, b, tol: float = 1e-12) -> bool:
    return bool(np.abs(np.asarray(a) - b).max(initial=0.0) < tol)


def _noise(resolution: int, seed: int) -> GridFunction:
    """A fixed complex random function on the Walsh grid."""
    rng = np.random.default_rng(seed)
    size = 2**resolution
    return grid_function(WALSH, resolution, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _psi(n: int, resolution: int) -> GridFunction:
    return grid_function(WALSH, resolution, character_values(WALSH, n, resolution))


def _coset(resolution: int, k: int) -> np.ndarray:
    """The Walsh coset I_k as a 0/1 array."""
    return coset_mask(WALSH, resolution, k).astype(float)


def _statistics(n: int, m: GeneratorSequence) -> tuple[int, int, int]:
    idx = decompose(n, m)
    return idx.top, idx.bottom, idx.rho


def _refused_for(reason: str, call, *args) -> bool:
    try:
        call(*args)
    except ValueError as exc:
        return reason in str(exc)
    return False


def _two_atoms() -> MartingaleSpec:
    return build_counterexample(WALSH, 0.5, [3, 5], rule="explicit", lambdas=[1.0, 1.0], resolution=6)


# (name, check): each check computes one identity and returns whether it holds.
IDENTITIES = [
    ("scaled bases of (2, 2, 2)", lambda: GeneratorSequence((2, 2, 2)).scaled_bases(3) == [1, 2, 4, 8]),
    ("scaled bases of 2,3,4", lambda: _MIXED.scaled_bases(3) == [1, 2, 6, 24]),
    ("Walsh scaled bases are the powers of 2", lambda: WALSH.scaled_bases(12) == [2**k for k in range(13)]),
    ("n = M_k + 1 has |n| = k, <n> = 0, rho = k", lambda: all(
        _statistics(m.base(k) + 1, m) == (k, 0, k) for m, k in _SPREAD_CASES)),
    ("n = M_k + M_(k-1) has |n| = k, <n> = k - 1, rho = 1", lambda: all(
        _statistics(m.base(k) + m.base(k - 1), m) == (k, k - 1, 1) for m, k in _SPREAD_CASES)),
    ("n = M_k has |n| = <n> = k, rho = 0", lambda: all(
        _statistics(m.base(k), m) == (k, k, 0) for m, k in _SPREAD_CASES)),
    ("Walsh (v, v*) of n = 1 is (1, 0)", lambda: variation(decompose(1, WALSH), WALSH, "from1") == (1, 0)),
    ("Walsh (v, v*) of n = 5 is (3, 0)", lambda: variation(decompose(5, WALSH), WALSH, "from1") == (3, 0)),
    ("triadic v*(1) is 1 from digit 0 and 0 from digit 1", lambda: [
        variation(decompose(1, _TRIADIC), _TRIADIC, conv)[1] for conv in ("from0", "from1")] == [1, 0]),
    ("a Walsh point is its own inverse", lambda: group_add(_X, _X).coords == (0, 0, 0, 0)),
    ("the group law adds digit k mod m_k", lambda: group_add(_Y, _Y).coords == (1, 0)),
    ("x - x = 0", lambda: group_sub(_Y, _Y).coords == (0, 0)),
    ("psi_0 = 1", lambda: _close(character_values(WALSH, 0, 4), 1.0)),
    ("Walsh psi_1 is the sign of the first digit", lambda: _close(
        character_values(WALSH, 1, 3), [(-1) ** (i % 2) for i in range(8)])),
    ("triadic psi_1 is exp(2 pi i / 3) at x = (1, 0)", lambda: _close(
        character_values(_TRIADIC, 1, 2)[1], np.exp(2j * np.pi / 3))),
    ("the transform of 1 is e_0", lambda: _close(forward(constant(WALSH, 4)).coeffs, np.eye(16)[0])),
    ("the transform of psi_5 is e_5", lambda: _close(forward(_psi(5, 3)).coeffs, np.eye(8)[5])),
    ("D_1 = 1", lambda: all(_close(dirichlet_closed(m, 1, 3).values, 1.0) for m in (WALSH, _TRIADIC))),
    ("D_(M_k) = M_k on I_k and 0 off it", lambda: all(
        _close(dirichlet_closed(WALSH, 2**k, 4).values, 2**k * _coset(4, k), 1e-9) for k in range(4))),
    ("S_(M_N) f = f", lambda: _close(partial_sum(_noise(6, 1), 64).values, _noise(6, 1).values, 1e-10)),
    ("S_7 psi_6 = psi_6", lambda: _close(partial_sum(_psi(6, 4), 7).values, _psi(6, 4).values, 1e-10)),
    ("S_6 psi_6 = 0", lambda: _close(partial_sum(_psi(6, 4), 6).values, 0.0, 1e-10)),
    ("||D_(M_k)||_1 = 1", lambda: all(
        _close(lp_norm(dirichlet_closed(WALSH, 2**k, 5), 1.0), 1.0) for k in range(5))),
    ("||D_(M_k)||_p = M_k^(1 - 1/p)", lambda: all(
        _close(lp_norm(dirichlet_closed(m, m.base(k), 4), p), m.base(k) ** (1 - 1 / p), 1e-9)
        for m in (WALSH, _TRIADIC) for p in (0.5, 2.0) for k in range(4))),
    ("||c||_p = |c|", lambda: all(
        _close(lp_norm(constant(WALSH, 4, c), p), abs(c))
        for c in (2.5, -1.5) for p in (0.3, 0.5, 0.7, 1.0, 2.0))),
    ("weak ||c||_p = |c|", lambda: all(_close(weak_lp(constant(WALSH, 3, c), 0.5), c, 1e-9) for c in (2.0, 2.5))),
    ("weak ||1_(I_1)||_p = 2^(-1/p)", lambda: all(
        _close(weak_lp(grid_function(WALSH, 3, _coset(3, 1)), p), 0.5 ** (1 / p), 1e-9)
        for p in (0.5, 1.0, 2.0, 3.0))),
    ("L_1 = 1", lambda: _close(lebesgue_constant(WALSH, 1, 4).value, 1.0)),
    ("L_(M_k) = 1", lambda: all(_close(lebesgue_constant(WALSH, 2**k, 5).value, 1.0) for k in range(1, 5))),
    ("Walsh L_3 = 3/2", lambda: _close(lebesgue_constant(WALSH, 3, 4).value, 1.5)),
    ("||1||_(H_p) = 1", lambda: _close(hardy_norm(constant(WALSH, 4), 0.5), 1.0)),
    ("||f||_(H_p) >= ||f||_p", lambda: all(
        hardy_norm(_noise(5, seed), p) >= lp_norm(_noise(5, seed), p) - 1e-12
        for seed in range(5) for p in (0.5, 1.0))),
    ("the maximal operator over {M_N} is |f|", lambda: _close(
        restricted_maximal(_noise(4, 1), [16]).values, np.abs(_noise(4, 1).values), 1e-10)),
    ("the maximal operator over every M_k is f*", lambda: _close(
        restricted_maximal(_noise(4, 2), [1, 2, 4, 8, 16]).values, maximal_function(_noise(4, 2)).values, 1e-10)),
    ("omega(1/M_N, f) = 0", lambda: modulus_hp(_noise(5, 3), 5, 0.5) < 1e-12),
    ("omega(1/M_n, psi_(M_k)) = ||psi_(M_k)||_(H_p) for n <= k", lambda: all(
        _close(modulus_hp(_psi(8, 5), n, 0.5), hardy_norm(_psi(8, 5), 0.5)) for n in range(4))),
    ("a constant is no atom: its mean is not 0", lambda: _refused_for(
        "mean", validate_atom, constant(WALSH, 3), 0.5, 0)),
    ("the Walsh atom at alpha = 3, p = 1/2 is 2 on I_2, -2 on the rest of I_1, 0 off I_1", lambda: _close(
        counterexample_atom(WALSH, 3, 0.5, 4).values.values, 4 * _coset(4, 2) - 2 * _coset(4, 1), 1e-9)),
    ("the closed S_j f drops the kernel term at j = M_|alpha_1|", lambda: _close(
        closed_partial_sum(_two_atoms(), 4).values, partial_sum(_two_atoms().realized, 4).values, 1e-9)),
]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in IDENTITIES:
        try:
            ok = check()
        except Exception as exc:  # keep going; report all failures
            ok, name = False, f"{name}: {exc}"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")
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
    sub.add_argument("--out", default=None, help="output directory (default .)")
    sub.add_argument("--config", default=None, help="key=value config file with flag defaults")
    if need_p:
        sub.add_argument("--p", type=float, default=0.5)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Vilenkin-Fourier analysis: transforms, kernels, Hardy norms, divergence scans",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"vilenkin {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    s = commands["transform"] = subs.add_parser(
        "transform", allow_abbrev=False, help="forward/inverse transform a function file"
    )
    s.add_argument("--config", default=None, help="key=value config file with flag defaults")
    s.add_argument("--op", choices=["forward", "inverse"], required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    s.set_defaults(func=_cmd_transform)

    s = commands["dirichlet"] = subs.add_parser(
        "dirichlet", allow_abbrev=False, help="emit a Dirichlet kernel and verify its identities"
    )
    _add_common(s)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_dirichlet)

    s = commands["lebesgue"] = subs.add_parser(
        "lebesgue", allow_abbrev=False, help="exact Lebesgue constants with variation bounds"
    )
    _add_common(s)
    s.add_argument("--limit", type=int, default=None, help="table covers 1 <= n < limit")
    s.add_argument("--convention", choices=["auto", "from0", "from1"], default="auto")
    s.set_defaults(func=_cmd_lebesgue)

    s = commands["atom"] = subs.add_parser("atom", allow_abbrev=False, help="generate or validate a p-atom")
    _add_common(s, need_p=True)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)  # only atom and scan draw random numbers
    s.add_argument("--rank", type=int, default=None, help="support coset rank (default 2)")
    s.add_argument("--base", type=int, default=0, help="support coset base index")
    s.add_argument("--validate", default=None, help="grid file to validate instead of generating; the grid is read from the file, so --m and --N are ignored")
    s.set_defaults(func=_cmd_atom)

    s = commands["counterexample"] = subs.add_parser(
        "counterexample", allow_abbrev=False, help="build the divergence martingale"
    )
    _add_common(s, need_p=True)
    s.add_argument("--rule", choices=["balanced", "unit_kernel", "explicit"], default="balanced")
    s.add_argument("--alphas", default=None, help="comma list; default M_(2^k)+1")
    s.add_argument("--lambdas", default=None, help="comma list (rule=explicit)")
    s.add_argument("--phi", default=None, help="constant:<c> | log | power:<t>")
    s.set_defaults(func=_cmd_counterexample)

    s = commands["scan"] = subs.add_parser("scan", allow_abbrev=False, help="run a scenario scan by name")
    _add_common(s, need_p=True)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--name", required=True, help=", ".join(sorted(SCAN_REGISTRY)))
    s.add_argument("--variant", default=None)
    s.add_argument("--f-rule", dest="f_rule", default="unit_kernel")
    s.add_argument("--rule", default="balanced")
    s.add_argument("--alphas", default=None)
    s.add_argument("--lambdas", default=None)
    s.add_argument("--phi", default=None)
    s.add_argument("--trials", type=int, default=50)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--rank", type=int, default=None, help="kernel_average support rank (default 3)")
    s.add_argument("--svg", action="store_true", help="also write an SVG of the trace")
    s.set_defaults(func=_cmd_scan)

    s = commands["selftest"] = subs.add_parser(
        "selftest", allow_abbrev=False, help="run the built-in identity checks"
    )
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every call without ``--config`` reads; parsing leaves it as built."""
    return build_parser()[0]


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # Config values become defaults of a parser built for this call
            # only, so the shared parser never sees them.
            parser, commands = build_parser()
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
