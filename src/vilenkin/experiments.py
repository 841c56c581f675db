"""Scenario runners confronting the boundedness/divergence theory with
exact finite-resolution computation.

Every scan is deterministic: given the same seed and parameter grid it
produces byte-identical results.  Verdicts use the desk-scale cut-offs
below; a "growing" verdict always ships its full trace and a "bounded"
verdict ships the ratios it compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .group import (
    QUADRATIC_SIZE_CAP, SCAN_SIZE_CAP, GeneratorSequence, VIndex, _checked_size, _integers, decompose, index_stats
)
from .martingale import (
    MartingaleSpec,
    build_counterexample,
    closed_partial_sum,
    default_alphas,
    phi_value,
    random_atom,
    spread_rate,
)
from .norms import SUPPORT_THRESHOLD, hardy_norm, running_maxima, weak_lp
from .transform import (
    _BATCH_POINTS,
    GridFunction,
    _truncated_inverse,
    coarse_sums,
    cumulative_rows,
    dirichlet_average,
    dirichlet_closed,
    dirichlet_shells,
    forward,
    grid_function,
    partial_sum,
)

DEFAULT_SEED = 1729

# Desk-scale verdict cut-offs; these are policy, not math.
MIN_RUN = 4  # consecutive increasing trace points for "growing"
MIN_GROWTH = 4.0  # total growth over that run
BOUNDED_CAP = 4.0  # max admissible ratio for "bounded"
DECAY_FACTOR = 4.0  # required total decay for a vanishing error trace
ERROR_FLOOR = 0.05  # weak-error floor certifying non-convergence
RATE_BAND = 16.0  # max/min band for modulus-rate ratios
SUPPORT_RANKS = (1, 2, 3)  # the coset ranks atom_ratio_scan draws its atoms on


@dataclass
class ScenarioResult:
    """Measurements, empirical constants and the verdict for one scenario."""

    scenario: str
    params: dict
    points: list[dict]
    constants: dict
    trace: list[float]
    verdict: str  # bounded | growing | violated

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, default=_json_default)

    def to_csv(self) -> str:
        lines = [f"# vilenkin scenario={self.scenario}"]
        for key in sorted(self.params):
            lines.append(f"# {key}={self.params[key]}")
        lines.append(f"# verdict={self.verdict}")
        if self.points:
            cols = list(self.points[0].keys())
            lines.append(",".join(cols))
            for row in self.points:
                lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        return _trace_svg(self.scenario, self.trace)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _records(**columns) -> list[dict]:
    """One point dict per row of equal-length columns, keys in column order."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _trace_svg(title: str, trace: list[float]) -> str:
    """Minimal log-y polyline chart; enough to eyeball growth or decay."""
    width, height, pad = 640, 400, 48
    positives = [t for t in trace if t > 0]
    if len(trace) < 2 or not positives:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            f"<text x='{pad}' y='{pad}'>{title}: no positive trace</text></svg>"
        )
    lo = math.log10(min(positives))
    hi = math.log10(max(positives))
    span = hi - lo if hi > lo else 1.0
    xs = np.linspace(pad, width - pad, num=len(trace))
    pts = []
    for x, t in zip(xs, trace):
        y_rel = (math.log10(t) - lo) / span if t > 0 else 0.0
        pts.append(f"{x:.1f},{height - pad - y_rel * (height - 2 * pad):.1f}")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<text x="{pad}" y="{pad / 2 + 6}" font-size="14">{title} (log y)</text>'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>'
        f'<text x="4" y="{height - pad}" font-size="11">{10 ** lo:.3g}</text>'
        f'<text x="4" y="{pad + 4}" font-size="11">{10 ** hi:.3g}</text>'
        f'<polyline fill="none" stroke="steelblue" stroke-width="2" points="{" ".join(pts)}"/>'
        "</svg>"
    )


def _scan_limit(n_limit: int | None, default: int, size: int, what: str) -> int:
    """The last n of an exhaustive kernel scan: ``n_limit``, else ``default``."""
    return default if n_limit is None else int(_integers(n_limit, f"{what} limit", 1, size))


def _row_runs(count: int, size: int) -> list[slice]:
    """Slices cutting ``count`` rows of M_N = ``size`` points into runs of at
    most max(1, _BATCH_POINTS // size) rows."""
    step = max(1, _BATCH_POINTS // size)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _increasing_suffix(trace: list[float]) -> tuple[int, float]:
    """Length of the strictly increasing suffix and its total growth."""
    if not trace:
        return 0, 0.0
    run = 1
    while run < len(trace) and trace[-run] > trace[-run - 1]:
        run += 1
    start = trace[len(trace) - run]
    growth = trace[-1] / start if start > 0 else math.inf
    return run, growth


def partial_sum_rows(f: GridFunction):
    """Yield (n0, PS) with PS[i] = S_{n0+i+1} f (see transform.cumulative_rows)."""
    yield from cumulative_rows(f.generators, f.resolution, f.size, forward(f).coeffs)


# ---------------------------------------------------------------------------
# boundedness of S_n on atoms (the positive half of the norm estimate)
# ---------------------------------------------------------------------------


def atom_ratio_scan(
    p: float,
    m: GeneratorSequence,
    resolution: int,
    trials: int = 200,
    seed: int = DEFAULT_SEED,
) -> ScenarioResult:
    """Normalized partial-sum ratios over random p-atoms.

    For each atom a with support I_rank and every n > M_rank, records

        r(n, a) = ||S_n a||_{H_p} * (M_<n> / M_|n|)^(1/p-1);

    stability of max r across resolutions is the empirical boundedness
    evidence (S_n a = 0 for n <= M_rank, so those n are skipped).
    """
    if not 0 < p < 1:
        raise ValueError("atom scan needs 0 < p < 1")
    if trials < 1:
        raise ValueError(f"atom scan needs at least one trial, not {trials}")
    if resolution <= max(SUPPORT_RANKS):
        raise ValueError(f"atom scan needs N > {max(SUPPORT_RANKS)}, the largest support rank it draws")
    size = _checked_size(m, resolution, SCAN_SIZE_CAP)
    rng = np.random.default_rng(seed)
    bases = m.scaled_bases(resolution)
    # |n| and the discount (M_<n>/M_|n|)^(1/p-1) of every n >= 1, at entry n - 1.
    stats = index_stats(np.arange(1, size + 1), m, resolution)
    discount = (stats.m_bottom / stats.m_top) ** (1.0 / p - 1.0)

    points = []
    global_max = 0.0
    for trial in range(trials):
        rank = SUPPORT_RANKS[int(rng.integers(0, len(SUPPORT_RANKS)))]
        atom = random_atom(m, p, rank, resolution, rng)
        f = atom.values
        running = np.stack([np.tile(level, size // level.size) for level in running_maxima(f)])
        start = bases[rank]
        best_r, best_n = 0.0, 0
        for lo, ps in partial_sum_rows(f):
            # The kept n > M_rank are a suffix of the block, and |n| is
            # nondecreasing in n: one running maximum per run of equal |n|.
            first = max(start + 1, lo + 1)
            ns = np.arange(first, lo + 1 + ps.shape[0])
            stars = np.abs(ps[first - lo - 1 :])
            del ps  # hold no block while the generator builds the next
            if not ns.size:
                continue
            tops = stats.top[ns - 1]
            cuts = [0, *(np.flatnonzero(np.diff(tops)) + 1).tolist(), ns.size]
            for i, j in zip(cuts, cuts[1:]):
                np.maximum(stars[i:j], running[tops[i]], out=stars[i:j])
            stars **= p
            rs = np.mean(stars, axis=1) ** (1.0 / p) * discount[ns - 1]
            i = int(np.argmax(rs))
            if rs[i] > best_r:
                best_r, best_n = float(rs[i]), int(ns[i])
            del stars
        global_max = max(global_max, best_r)
        points.append({"trial": trial, "support_rank": rank, "max_r": best_r, "argmax_n": best_n})

    return ScenarioResult(
        scenario="atom_ratio",
        params={
            "p": p,
            "m": m.format(),
            "N": resolution,
            "trials": trials,
            "seed": seed,
            "support_ranks": list(SUPPORT_RANKS),
        },
        points=points,
        constants={"max_ratio": global_max},
        trace=[pt["max_r"] for pt in points],
        verdict="bounded",
    )


# ---------------------------------------------------------------------------
# divergence along a subsequence (the sharpness half)
# ---------------------------------------------------------------------------


def _mk_plus_1(m: GeneratorSequence, resolution: int) -> list[int]:
    """The alphas M_k + 1, 1 <= k < N: digit spread rho = k grows with k."""
    return [m.base(k) + 1 for k in range(1, resolution)]


def _divergence_alphas(variant: str, m: GeneratorSequence, resolution: int, alphas) -> list[int]:
    if variant == "Mn_plus_1":
        return _mk_plus_1(m, resolution)
    if variant == "general":
        return list(alphas) if alphas is not None else default_alphas(m, resolution)
    raise ValueError(f"unknown divergence variant {variant!r}")


def divergence_scan(
    p: float,
    variant: str,
    m: GeneratorSequence,
    resolution: int,
    phi: tuple | None = None,
    alphas=None,
    rule: str = "balanced",
    lambdas=None,
) -> ScenarioResult:
    """Weak-quasi-norm trace of S_{a_k} f / Phi_{a_k} along the subsequence.

    Refuses sequences whose digit spread stays bounded (the boundedness
    regime) and Phi choices that defeat the growth hypothesis on the
    truncated range.  The closed-form partial sum is cross-checked against
    the spectral path before any norm is taken.
    """
    if not 0 < p < 1:
        raise ValueError("divergence scan needs 0 < p < 1")
    _checked_size(m, resolution, SCAN_SIZE_CAP)
    stats = [decompose(a, m) for a in _divergence_alphas(variant, m, resolution, alphas)]
    stats = [idx for idx in stats if idx.top < resolution]
    if len(stats) < 2:
        raise ValueError("fewer than two resolvable alpha indices")

    rhos = [idx.rho for idx in stats]
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError(
            f"digit spread rho is not strictly increasing (rho trace {rhos}); "
            "this sequence sits in the bounded regime"
        )
    growth_ratios = [spread_rate(idx, p) / phi_value(phi, idx) for idx in stats]
    if any(b <= a for a, b in zip(growth_ratios, growth_ratios[1:])):
        raise ValueError(
            "growth hypothesis fails on the truncated sequence: "
            f"rate/Phi trace {growth_ratios} is not strictly increasing"
        )

    spec = build_counterexample(m, p, stats, rule=rule, phi=phi, lambdas=lambdas, resolution=resolution)
    points = []
    trace = []
    cross_err = 0.0
    spectrum = forward(spec.realized)
    # per run of rows: the spectral and the closed partial sums, their gaps
    # and the weak norms of the spectral ones
    errs, weak = [], []
    for run in _row_runs(len(spec.alphas), spectrum.size):
        s_fast = partial_sum(spectrum, spec.alphas[run])
        errs += np.abs(s_fast.values - closed_partial_sum(spec, spec.alphas[run]).values).max(axis=1).tolist()
        weak += [weak_lp(GridFunction(m, resolution, row), p) for row in s_fast.values]
    for k, (idx, err, weak_k) in enumerate(zip(spec.indices, errs, weak)):
        cross_err = max(cross_err, err)
        phi_k = phi_value(phi, idx)
        value = weak_k / phi_k
        trace.append(value)
        points.append(
            {
                "k": k,
                "alpha": idx.value,
                "rho": idx.rho,
                "lambda_k": spec.lambdas[k],
                "phi": phi_k,
                "weak_norm": value,
                "closed_form_err": err,
            }
        )
    run, growth = _increasing_suffix(trace)
    verdict = "growing" if run >= MIN_RUN and growth >= MIN_GROWTH else "bounded"
    return ScenarioResult(
        scenario="divergence",
        params={
            "p": p,
            "m": m.format(),
            "N": resolution,
            "variant": variant,
            "rule": rule,
            "phi": list(phi) if phi else None,
            "alphas": list(spec.alphas),
            "min_run": MIN_RUN,
            "min_growth": MIN_GROWTH,
        },
        points=points,
        constants={
            "coefficient_budget": spec.coefficient_budget,
            "closed_form_max_err": cross_err,
            "increasing_run": run,
            "run_growth": growth,
        },
        trace=trace,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# bounded subsequences (rho bounded)
# ---------------------------------------------------------------------------


def _bounded_indices(variant: str, m: GeneratorSequence, resolution: int) -> list[int]:
    bases = m.scaled_bases(resolution)
    if variant == "Mn":
        return [bases[k] for k in range(resolution + 1)]
    if variant == "Mn_plus_Mn-1":
        return [bases[k] + bases[k - 1] for k in range(1, resolution)]
    if variant == "rho_bounded":
        return [bases[k] + bases[k - 2] for k in range(2, resolution)]
    raise ValueError(f"unknown boundedness variant {variant!r}")


def _function_pool(
    p: float, m: GeneratorSequence, resolution: int, trials: int, seed: int
) -> list[tuple[str, GridFunction]]:
    """``trials`` seeded random complex functions, then the balanced
    counterexample martingale: the pool every many-function scan ranges over."""
    if trials < 0:
        raise ValueError(f"trial count {trials} is negative")
    if resolution < 2:
        raise ValueError(
            f"the function pool needs N >= 2 for the counterexample martingale's first atom, not N = {resolution}"
        )
    size = m.size(resolution)
    rng = np.random.default_rng(seed)
    pool = []
    for t in range(trials):
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        pool.append((f"random{t}", grid_function(m, resolution, values)))
    spec = build_counterexample(
        m, p, default_alphas(m, resolution), rule="balanced", resolution=resolution
    )
    pool.append(("martingale", spec.realized))
    return pool


def boundedness_scan(
    p: float,
    variant: str,
    m: GeneratorSequence,
    resolution: int,
    trials: int = 50,
    seed: int = DEFAULT_SEED,
) -> ScenarioResult:
    """Hardy-norm ratios ||S_{n_k} f||_{H_p} / ||f||_{H_p} along a
    bounded-spread index family, over random functions and the
    counterexample martingale."""
    if not 0 < p < 1:
        raise ValueError("boundedness scan needs 0 < p < 1")
    _checked_size(m, resolution, SCAN_SIZE_CAP)
    indices = _bounded_indices(variant, m, resolution)
    # The pool is one (F, M_N) batch, taken in runs of rows (see _row_runs):
    # one H_p norm per row and one forward pass per run, done in place, then
    # for each n one inverse pass and one norm call per run.  A function of
    # norm 0 gives no ratio; the martingale is the pool's last row.
    spectra = np.stack([f.values for _, f in _function_pool(p, m, resolution, trials, seed)])
    size = spectra.shape[-1]
    denoms = [hardy_norm(GridFunction(m, resolution, spectra[run]), p) for run in _row_runs(len(spectra), size)]
    denoms = np.concatenate(denoms)
    live = denoms != 0
    if not live.all():
        spectra, denoms = spectra[live], denoms[live]
    runs = _row_runs(len(spectra), size)
    for run in runs:
        spectra[run] = forward(GridFunction(m, resolution, spectra[run])).coeffs
    # Largest n first: truncating the stacked spectra in place keeps every
    # coefficient a smaller n still needs, so no second buffer is held, and
    # only the columns from n up to the last n need zeroing; the synthesis
    # then reads each spectrum only up to the least M_r >= n.
    ratios = {}
    top = size
    for n in sorted(indices, reverse=True):
        spectra[:, n:top] = 0.0
        top = n
        norms = [hardy_norm(_truncated_inverse(spectra[run], m, resolution, n), p) for run in runs]
        ratios[n] = np.concatenate(norms) / denoms

    max_ratio = 0.0
    per_index = []
    for n in indices:
        worst = float(ratios[n].max(initial=0.0))
        martingale_ratio = float(ratios[n][-1]) if live[-1] else None
        max_ratio = max(max_ratio, worst)
        per_index.append(
            {"n": n, "rho": decompose(n, m).rho, "max_ratio": worst, "martingale_ratio": martingale_ratio}
        )
    verdict = "bounded" if max_ratio <= BOUNDED_CAP else "violated"
    return ScenarioResult(
        scenario="boundedness",
        params={
            "p": p,
            "m": m.format(),
            "N": resolution,
            "variant": variant,
            "trials": trials,
            "seed": seed,
        },
        points=per_index,
        constants={"max_ratio": max_ratio},
        trace=[pt["max_ratio"] for pt in per_index],
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# the weighted norm series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesReport:
    """Partial weighted series sum_k ||S_k f||_p^p / k^(2-p) and its ratio
    against ||f||_{H_p}^p."""

    p: float
    total: float
    hardy_power: float

    @property
    def ratio(self) -> float:
        return self.total / self.hardy_power if self.hardy_power > 0 else math.inf


def weighted_series(f: GridFunction, p: float) -> SeriesReport:
    if not 0 < p < 1:
        raise ValueError("the weighted series needs 0 < p < 1")
    total = 0.0
    for lo, ps in partial_sum_rows(f):
        ns = np.arange(lo + 1, lo + 1 + ps.shape[0])
        powers = np.mean(np.abs(ps) ** p, axis=1)  # ||S_n f||_p^p
        total += float((powers / ns.astype(float) ** (2.0 - p)).sum())
    return SeriesReport(p=p, total=total, hardy_power=hardy_norm(f, p) ** p)


def weighted_series_scan(
    p: float,
    m: GeneratorSequence,
    resolution: int,
    trials: int = 50,
    seed: int = DEFAULT_SEED,
) -> ScenarioResult:
    """Weighted-series ratios over random functions plus the counterexample
    martingale; bounded iff no ratio escapes BOUNDED_CAP times the
    pool median (the series constant is never pinned, only its stability)."""
    if not 0 < p < 1:
        raise ValueError("the weighted series needs 0 < p < 1")
    _checked_size(m, resolution, QUADRATIC_SIZE_CAP)
    points = []
    for label, f in _function_pool(p, m, resolution, trials, seed):
        report = weighted_series(f, p)
        points.append({"label": label, "total": report.total, "ratio": report.ratio})
    ratios = [pt["ratio"] for pt in points]
    median = float(np.median(ratios))
    verdict = "bounded" if max(ratios) <= BOUNDED_CAP * median else "violated"
    return ScenarioResult(
        scenario="weighted_series",
        params={"p": p, "m": m.format(), "N": resolution, "trials": trials, "seed": seed},
        points=points,
        constants={"ratio_max": max(ratios), "ratio_min": min(ratios), "ratio_median": median},
        trace=ratios,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# modulus of continuity versus convergence
# ---------------------------------------------------------------------------


def _modulus_spec(
    f_rule: str, m: GeneratorSequence, p: float, indices: list[VIndex], resolution: int
) -> MartingaleSpec:
    if f_rule == "unit_kernel":
        return build_counterexample(m, p, indices, rule="unit_kernel", resolution=resolution)
    if f_rule == "fast_decay":
        lambdas = [
            (idx.m_bottom / idx.m_top) ** (1.0 / p - 1.0) * 4.0**-k for k, idx in enumerate(indices)
        ]
        return build_counterexample(
            m, p, indices, rule="explicit", lambdas=lambdas, resolution=resolution
        )
    raise ValueError(f"unknown f_rule {f_rule!r}")


def modulus_convergence_scan(
    p: float,
    f_rule: str,
    n_rule: str,
    m: GeneratorSequence,
    resolution: int,
) -> ScenarioResult:
    """Modulus decay versus partial-sum error along the alpha subsequence.

    Records (k, omega(1/M_{|n_k|}), ||S_{n_k}f - f||_{H_p}) triples, the
    empirical constant in the error-versus-modulus inequality, the
    modulus-to-target-rate ratios and the weak-error trace.  The growth
    hypothesis here is the little-o modulus condition; the displayed
    inequality is treated as the conclusion being measured.
    """
    if not 0 < p < 1:
        raise ValueError("modulus scan needs 0 < p < 1")
    _checked_size(m, resolution, SCAN_SIZE_CAP)
    if resolution < 2:
        raise ValueError(f"the modulus scan needs N >= 2 for its first alpha, M_1 + 1, not N = {resolution}")
    if n_rule == "default":
        alphas = default_alphas(m, resolution)
    elif n_rule == "Mn_plus_1":
        alphas = _mk_plus_1(m, resolution)
    else:
        raise ValueError(f"unknown n_rule {n_rule!r}")
    spec = _modulus_spec(f_rule, m, p, [decompose(a, m) for a in alphas], resolution)
    f = spec.realized
    # omega(1/M_t, f) = ||f - S_{M_t} f||_{H_p} for every t, and the errors
    # S_{n_k} f - f, as row batches with one H_p norm per run of rows; each
    # norm is bitwise that of the lone function (``modulus_hp`` for omega).
    # S_{M_t} f is level t of coarse_sums tiled to M_N.
    levels = coarse_sums(f)
    omegas = []
    for run in _row_runs(resolution + 1, f.size):
        gaps = [f.values - np.tile(level, f.size // level.size) for level in levels[run]]
        omegas += hardy_norm(GridFunction(m, resolution, np.stack(gaps)), p).tolist()
    spectrum = forward(f)
    errors = []
    for run in _row_runs(len(spec.alphas), f.size):
        diffs = partial_sum(spectrum, spec.alphas[run])
        diffs.values -= f.values
        norms = hardy_norm(diffs, p).tolist()
        errors += [(err, weak_lp(GridFunction(m, resolution, row), p)) for err, row in zip(norms, diffs.values)]

    points = []
    err_hp_trace = []
    err_weak_trace = []
    rate_ratios = []
    c_max = 0.0
    for k, (idx, (err_hp, err_weak)) in enumerate(zip(spec.indices, errors)):
        rate = spread_rate(idx, p)
        omega = omegas[idx.top]
        target = 1.0 / rate  # (M_<n>/M_|n|)^(1/p-1)
        ratio = omega / target if target > 0 else math.inf
        c_k = err_hp / (rate * omega) if rate * omega > 0 else 0.0
        c_max = max(c_max, c_k)
        err_hp_trace.append(err_hp)
        err_weak_trace.append(err_weak)
        rate_ratios.append(ratio)
        points.append(
            {
                "k": k,
                "n": idx.value,
                "omega": omega,
                "err_hardy": err_hp,
                "err_weak": err_weak,
                "rate": rate,
                "modulus_rate_ratio": ratio,
                "empirical_c": c_k,
            }
        )

    # modulus tails against the coefficient tails, per truncation
    tail_constants = []
    for t in range(resolution + 1):
        tail = sum(abs(l) ** p for l, idx in zip(spec.lambdas, spec.indices) if idx.top >= t)
        omega_t = omegas[t]
        if tail > 0:
            tail_constants.append(omega_t**p / tail)

    if f_rule == "fast_decay":
        decaying = all(b < a for a, b in zip(err_hp_trace, err_hp_trace[1:]))
        enough = err_hp_trace[-1] <= err_hp_trace[0] / DECAY_FACTOR
        verdict = "bounded" if decaying and enough else "violated"
    else:
        band_ok = max(rate_ratios) <= RATE_BAND * min(rate_ratios)
        floor_ok = min(err_weak_trace) >= ERROR_FLOOR
        verdict = "growing" if band_ok and floor_ok else "violated"

    return ScenarioResult(
        scenario="modulus_convergence",
        params={
            "p": p,
            "m": m.format(),
            "N": resolution,
            "f_rule": f_rule,
            "n_rule": n_rule,
            "alphas": list(spec.alphas),
        },
        points=points,
        constants={
            "empirical_c": c_max,
            "tail_constant_max": max(tail_constants) if tail_constants else 0.0,
            "modulus_rate_ratio_min": min(rate_ratios),
            "modulus_rate_ratio_max": max(rate_ratios),
            "weak_error_floor": min(err_weak_trace),
        },
        trace=err_hp_trace,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# kernel support measure
# ---------------------------------------------------------------------------


def _closed_form_residual(m: GeneratorSequence, resolution: int, limit: int, rank: int | None = None) -> float:
    """Largest gap between the shell table and an independent kernel path.

    Against ``dirichlet_closed`` it is | |D_n| - shell table | over the grid;
    with a ``rank`` R it is | shell table / M_R - ``dirichlet_average`` | off
    I_R, where t in I_R leaves the shell of x - t unchanged.  The sample
    {1, M_N - 1} and M_k +- 1 (1 <= k < N), cut at ``limit``, is fixed, so
    the residual is a deterministic health number of the scan.  The kernel
    path takes the sample in runs of rows (see _row_runs), one call per run.
    """
    if rank == 0:
        return 0.0  # every grid point lies in I_0, so nothing is compared
    bases = m.scaled_bases(resolution)
    sample = {1, bases[-1] - 1} | {bases[k] + e for k in range(1, resolution) for e in (-1, 1)}
    ns = np.asarray(sorted(n for n in sample if 1 <= n <= limit), dtype=np.int64)
    grid = dirichlet_shells(m, resolution, ns).expand()
    runs = _row_runs(ns.size, bases[-1])
    if rank is None:
        refs = (np.abs(dirichlet_closed(m, ns[run], resolution).values) for run in runs)
    else:
        off = np.arange(bases[-1]) % bases[rank] != 0
        grid = grid[:, off] / bases[rank]
        refs = (dirichlet_average(m, ns[run], rank, resolution).values[:, off] for run in runs)
    return max(float(np.abs(grid[run] - ref).max(initial=0.0)) for run, ref in zip(runs, refs))


def supp_measure_scan(
    m: GeneratorSequence, resolution: int, n_limit: int | None = None
) -> ScenarioResult:
    """n * mu(supp D_n) against its two-sided bracket, exhaustively.

    The bracket [M_|n| / (2 M_<n>), lambda M_|n| / M_<n>] characterizes
    which partial-sum subsequences stay bounded, so a single escape flips
    the verdict to "violated".  The support is counted on the shell table:
    each cell above the threshold weighs its grid points, plus the origin."""
    size = _checked_size(m, resolution, SCAN_SIZE_CAP)
    limit = _scan_limit(n_limit, size, size, "support scan")
    ns = np.arange(1, limit + 1, dtype=np.int64)
    stats = index_stats(ns, m, resolution)
    table = dirichlet_shells(m, resolution, ns)
    n_mu = ns * ((table.values > SUPPORT_THRESHOLD) @ table.points + 1).astype(float) / size
    lower = stats.m_top / (2.0 * stats.m_bottom)
    upper = m.max_radix * stats.m_top / stats.m_bottom
    ok = (lower - 1e-9 <= n_mu) & (n_mu <= upper + 1e-9)
    return ScenarioResult(
        scenario="supp_measure",
        params={"m": m.format(), "N": resolution, "limit": limit},
        points=_records(
            n=ns.tolist(),
            top=stats.top.tolist(),
            bottom=stats.bottom.tolist(),
            n_mu_supp=n_mu.tolist(),
            lower=lower.tolist(),
            upper=upper.tolist(),
            in_bracket=ok.tolist(),
        ),
        constants={
            "min_slack": float((n_mu / lower).min()),
            "max_slack": float((n_mu / upper).max()),
            "closed_form_max_err": _closed_form_residual(m, resolution, limit),
        },
        trace=n_mu.tolist(),
        verdict="bounded" if ok.all() else "violated",
    )


# ---------------------------------------------------------------------------
# kernel lower estimate on the bottom coset
# ---------------------------------------------------------------------------


def dirichlet_floor_scan(
    m: GeneratorSequence, resolution: int, n_limit: int | None = None
) -> ScenarioResult:
    """min |D_n| on I_<n> \\ I_<n>+1 against the floor M_<n>, read from the
    per-shell minima of the shell table.

    The floor is only claimed on the bottom coset; the per-n report also
    lists every rank s where it happens to hold, since the blanket-range
    phrasing is not empirically true (and fails outright once a radix
    reaches 4: a middle digit can zero the geometric factor)."""
    size = _checked_size(m, resolution, SCAN_SIZE_CAP)
    # Its first order with |n| > <n> is M_1 + 1: no smaller N or limit has one to check.
    if resolution < 2:
        raise ValueError(f"the floor scan needs N >= 2 for its first order, M_1 + 1, not N = {resolution}")
    limit = size if n_limit is None else int(_integers(n_limit, "floor scan limit", m.radix(0) + 1, size))
    ns = np.arange(1, limit + 1, dtype=np.int64)
    stats = index_stats(ns, m, resolution)
    keep = stats.top != stats.bottom
    ns, bottom = ns[keep], stats.bottom[keep]
    targets = stats.m_bottom[keep].astype(float)
    mins = dirichlet_shells(m, resolution, ns).per_shell(np.minimum)
    floors = mins[np.arange(ns.size), bottom]
    ok = floors >= targets - 1e-6
    holds = (mins >= targets[:, None] - 1e-6).tolist()
    trace = (floors / targets).tolist()
    violations = ns[~ok].tolist()
    return ScenarioResult(
        scenario="dirichlet_floor",
        params={"m": m.format(), "N": resolution, "limit": limit},
        points=_records(
            n=ns.tolist(),
            bottom=bottom.tolist(),
            floor=floors.tolist(),
            target=targets.tolist(),
            holds_at_s=[[s for s, held in enumerate(row) if held] for row in holds],
            ok=ok.tolist(),
        ),
        constants={
            "violations": violations,
            "min_floor_ratio": min(trace),
            "closed_form_max_err": _closed_form_residual(m, resolution, limit),
        },
        trace=trace,
        verdict="violated" if violations else "bounded",
    )


# ---------------------------------------------------------------------------
# averaged kernel upper estimate
# ---------------------------------------------------------------------------


def kernel_average_scan(
    m: GeneratorSequence,
    resolution: int,
    support_rank: int,
    n_limit: int | None = None,
) -> ScenarioResult:
    """Empirical constant in the averaged-kernel bound

        int_{I_R} |D_n(x - t)| dmu(t) <= c * M_s / M_R  on I_s \\ I_{s+1},

    recorded as the max over n and s < R of the normalized shell maximum.
    For t in I_R, x - t keeps the digits of x below R, so on the shells
    s < R the average is |D_n(x)| / M_R and c(n) is the largest per-shell
    maximum of the shell table over M_s."""
    size = _checked_size(m, resolution, QUADRATIC_SIZE_CAP)
    support_rank = int(_integers(support_rank, "support rank", 0, resolution))
    limit = _scan_limit(n_limit, min(size, 4 * m.base(support_rank)), size, "kernel average")
    ns = np.arange(1, limit + 1, dtype=np.int64)
    maxima = dirichlet_shells(m, resolution, ns).per_shell(np.maximum)[:, :support_rank]
    cs = (maxima / m.scaled_bases(resolution)[:support_rank]).max(axis=1, initial=0.0).tolist()
    return ScenarioResult(
        scenario="kernel_average",
        params={"m": m.format(), "N": resolution, "support_rank": support_rank, "limit": limit},
        points=_records(n=ns.tolist(), c=cs),
        constants={
            "c_max": max(cs),
            "closed_form_max_err": _closed_form_residual(m, resolution, limit, support_rank),
        },
        trace=cs,
        verdict="bounded",
    )


#: Scans invocable by name from the CLI.
SCAN_REGISTRY = {
    "atom_ratio": atom_ratio_scan,
    "divergence": divergence_scan,
    "boundedness": boundedness_scan,
    "weighted_series": weighted_series_scan,
    "modulus_convergence": modulus_convergence_scan,
    "supp_measure": supp_measure_scan,
    "dirichlet_floor": dirichlet_floor_scan,
    "kernel_average": kernel_average_scan,
}
