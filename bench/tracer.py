"""Outside-in tracer for the benchmark: spans around vilenkin's public functions.

The library has no instrumentation of its own, so this module wraps its
public functions from the outside.  A function imported with
``from .transform import forward`` is a separate binding in each importing
module (and in ``SCAN_REGISTRY``), so patching only ``vilenkin.transform``
would miss every call made through those copies.  ``install`` therefore
replaces every module attribute and module-level dict value that *is* the
original function object, and ``uninstall`` puts the originals back.

Each call of a wrapped function is one span (name, start, end, parent,
op id).  Generators (``dirichlet_kernel_blocks``, ``partial_sum_rows``)
get one span per ``next()``, because their work happens while they are
being iterated, not when they are called.  Spans stay in flat arrays in
memory until the run ends; self time is derived afterwards as a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
import zlib
from array import array
from collections import defaultdict

import numpy as np

OP_SPAN = "bench.op"
HASH_SPAN = "trace.hash"

_MODULES = ("group", "transform", "norms", "martingale", "experiments", "cli")


class Tracer:
    """Span store plus the patch set that feeds it."""

    def __init__(self, vilenkin):
        self.vilenkin = vilenkin
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)
        self.active = False
        self.op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- span store ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())  # last, so bookkeeping stays outside
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()  # first, for the same reason
        self.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def distinct(self, key: str, item) -> None:
        """Count ``item`` as seen for ``key``; distinct items are counted per pass."""
        seen = self._seen[key]
        if item not in seen:
            seen.add(item)
            self.counts[key + ".distinct"] += 1

    def new_pass(self) -> None:
        self._seen.clear()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.active = True
        return self.open(self.intern(OP_SPAN))

    def end_op(self, i: int) -> None:
        self.close(i)
        self.active = False
        del self.stack[:]  # an op that raised may leave nothing else open

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (spans, summed self seconds) over everything recorded."""
        n = len(self.name)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        names = np.frombuffer(self.name, dtype=np.intc)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_s = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    # -- patching -----------------------------------------------------------

    def _wrap_call(self, fn, name: str, hook=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_gen(self, fn, name: str, hook):
        nid = self.intern(name)

        def iterate(gen):
            while True:
                i = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                hook(self, item)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return iterate(gen) if self.active else gen

        return wrapper

    def _build_patches(self) -> None:
        v = self.vilenkin
        mods = [getattr(v, name) for name in _MODULES]
        targets = []  # (original, wrapper)
        for mod_name, attr, kind, hook in _TARGETS:
            original = getattr(getattr(v, mod_name), attr)
            span = _SPAN_NAMES.get((mod_name, attr), f"{mod_name}.{attr}")
            if kind == "gen":
                wrapper = self._wrap_gen(original, span, hook)
            else:
                wrapper = self._wrap_call(original, span, hook)
            targets.append((original, wrapper))

        seen = set()
        for original, wrapper in targets:
            for module in [v, *mods]:
                for key, value in vars(module).items():
                    owners = [(module, key)] if value is original else []
                    if isinstance(value, dict):  # e.g. experiments.SCAN_REGISTRY
                        owners = [(value, k) for k, item in value.items() if item is original]
                    for owner, name in owners:
                        if (id(owner), name) not in seen:
                            seen.add((id(owner), name))
                            self._patches.append((owner, name, original, wrapper))

        # GeneratorSequence methods live on the class, not in any module.
        cls = v.group.GeneratorSequence
        scaled = cls.scaled_bases
        wrapped = self._wrap_call(scaled, "group.scaled_bases", _scaled_bases_hook)
        self._patches.append((cls, "scaled_bases", scaled, wrapped))
        radix = cls.radix

        def counted_radix(seq, k):
            if self.active:
                self.counts["group.radix.calls"] += 1
            return radix(seq, k)

        self._patches.append((cls, "radix", radix, counted_radix))

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            _assign(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            _assign(owner, key, original)


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# -- hooks: counts measured where the work happens ----------------------------
# Byte counts are computed from array shapes, not measured from the allocator.


def _scaled_bases_hook(tr, args, kwargs, result):
    seq = args[0]
    resolution = args[1] if len(args) > 1 else kwargs["resolution"]
    tr.distinct("group.scaled_bases", (seq.pattern, seq.cyclic, resolution))


def _index_sub_hook(tr, args, kwargs, result):
    # (di - dj) and its remainder are int64 arrays of shape out.shape + (N,).
    resolution = args[3] if len(args) > 3 else kwargs["resolution"]
    tr.count("group.index_sub.bytes", result.size * 8 * (2 * resolution + 1))


def _character_block_hook(tr, args, kwargs, result):
    tr.count("transform.character_block.rows", result.shape[0])
    tr.count("transform.character_block.bytes", result.nbytes)


def _kernel_blocks_hook(tr, item):
    tr.count("transform.dirichlet_kernel_blocks.kernels", item[1].shape[0])


def _partial_sum_rows_hook(tr, item):
    tr.count("experiments.partial_sum_rows.rows", item[1].shape[0])


def _forward_hook(tr, args, kwargs, result):
    tr.count("transform.fft.points", result.size)
    f = args[0] if args else kwargs["f"]
    # Hashing the input is tracer work: give it its own span so that it is
    # not charged to the caller's self time.
    i = tr.open(tr.intern(HASH_SPAN))
    key = (f.generators.pattern, f.generators.cyclic, f.resolution, zlib.crc32(f.values))
    tr.close(i)
    tr.distinct("transform.forward", key)


def _inverse_hook(tr, args, kwargs, result):
    tr.count("transform.fft.points", result.size)


def _stream_size(fh) -> int:
    if hasattr(fh, "getbuffer"):
        return len(fh.getbuffer())
    if hasattr(fh, "getvalue"):
        return len(fh.getvalue())
    fh.flush()
    return os.fstat(fh.fileno()).st_size


def _read_hook(tr, args, kwargs, result):
    tr.count("transform.io.bytes_read", _stream_size(args[0]))


def _write_hook(tr, args, kwargs, result):
    # Every writer call targets a fresh file or buffer, so its size after the
    # call is what the call wrote.
    tr.count("transform.io.bytes_written", _stream_size(args[0]))


_IO_READERS = ("read_grid_csv", "read_spectral_csv", "read_grid_binary", "read_spectral_binary")
_IO_WRITERS = ("write_grid_csv", "write_spectral_csv", "write_grid_binary", "write_spectral_binary")

_MARTINGALE = (
    "build_counterexample",
    "counterexample_atom",
    "closed_partial_sum",
    "random_atom",
    "validate_atom",
)

_SCANS = (
    "atom_ratio_scan",
    "divergence_scan",
    "boundedness_scan",
    "weighted_series_scan",
    "modulus_convergence_scan",
    "supp_measure_scan",
    "dirichlet_floor_scan",
    "kernel_average_scan",
)

#: (module, public function, "call" | "gen", hook)
_TARGETS = [
    ("group", "decompose", "call", None),
    ("group", "digit_table", "call", None),
    ("group", "index_sub", "call", _index_sub_hook),
    ("transform", "character_block", "call", _character_block_hook),
    ("transform", "dirichlet_kernel_blocks", "gen", _kernel_blocks_hook),
    ("transform", "forward", "call", _forward_hook),
    ("transform", "inverse", "call", _inverse_hook),
    ("transform", "partial_sum", "call", None),
    ("transform", "coarse_sums", "call", None),
    ("transform", "dirichlet_closed", "call", None),
    ("transform", "dirichlet_average", "call", None),
    *[("transform", name, "call", _read_hook) for name in _IO_READERS],
    *[("transform", name, "call", _write_hook) for name in _IO_WRITERS],
    ("norms", "hardy_norm", "call", None),
    ("norms", "weak_lp", "call", None),
    ("norms", "lp_norm", "call", None),
    ("norms", "lebesgue_table", "call", None),
    *[("martingale", name, "call", None) for name in _MARTINGALE],
    *[("experiments", name, "call", None) for name in _SCANS],
    ("experiments", "partial_sum_rows", "gen", _partial_sum_rows_hook),
    ("cli", "main", "call", None),
]

_SPAN_NAMES = {
    **{("transform", name): "transform.io.read" for name in _IO_READERS},
    **{("transform", name): "transform.io.write" for name in _IO_WRITERS},
}

#: Every traced public function, by span name, for coverage checks.
SPANS = sorted(
    {_SPAN_NAMES.get((mod, attr), f"{mod}.{attr}") for mod, attr, _, _ in _TARGETS}
    | {"group.scaled_bases"}
)


# -- per-layer metrics ---------------------------------------------------------


def _calls_self(*layers: str) -> dict[str, str]:
    pairs = (("calls", "count"), ("self_s", "s"))
    return {f"{layer}.{field}": unit for layer in layers for field, unit in pairs}


#: name -> unit, in the order they are reported.  Values are per traced pass
#: of the workload's op list, except the ratios.
PER_LAYER_UNITS: dict[str, str] = {
    **_calls_self("group.scaled_bases"),
    "group.scaled_bases.distinct_ratio": "ratio",
    "group.radix.calls": "count",
    **_calls_self("group.decompose", "group.digit_table", "group.index_sub"),
    "group.index_sub.bytes": "B",
    **_calls_self("transform.character_block"),
    "transform.character_block.rows": "count",
    "transform.character_block.bytes": "B",
    "transform.dirichlet_kernel_blocks.kernels": "count",
    "transform.dirichlet_kernel_blocks.self_s": "s",
    **_calls_self("transform.fft"),
    "transform.fft.points": "count",
    "transform.forward.distinct_ratio": "ratio",
    **_calls_self(
        "transform.partial_sum",
        "transform.coarse_sums",
        "transform.dirichlet_closed",
        "transform.dirichlet_average",
    ),
    "transform.io.read_s": "s",
    "transform.io.write_s": "s",
    "transform.io.bytes_read": "B",
    "transform.io.bytes_written": "B",
    **_calls_self("norms.hardy_norm", "norms.weak_lp", "norms.lp_norm"),
    "norms.lebesgue_table.self_s": "s",
    **_calls_self(*[f"martingale.{name}" for name in _MARTINGALE]),
    **{f"experiments.{name}.self_s": "s" for name in _SCANS},
    "experiments.partial_sum_rows.rows": "count",
    "experiments.partial_sum_rows.self_s": "s",
    **_calls_self("cli.main"),
    "cli.bytes_written": "B",
    "trace.op_s": "s",
    "trace.ops_per_s_ratio": "ratio",
}


def per_layer(tr: Tracer, passes: int, ops_per_s_ratio: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the spans and counters."""
    tot = tr.totals()
    counts = tr.counts

    def calls(span):
        return tot.get(span, (0, 0.0))[0]

    def self_s(span):
        return tot.get(span, (0, 0.0))[1]

    def ratio(key, span_calls):
        return counts[key + ".distinct"] / span_calls if span_calls else 1.0

    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            value = calls(layer)
        elif field == "self_s":
            value = self_s(layer)
        else:
            value = counts.get(name, 0.0)
        out[name] = value

    out["group.radix.calls"] = counts["group.radix.calls"]
    out["transform.fft.calls"] = calls("transform.forward") + calls("transform.inverse")
    out["transform.fft.self_s"] = self_s("transform.forward") + self_s("transform.inverse")
    out["transform.io.read_s"] = self_s("transform.io.read")
    out["transform.io.write_s"] = self_s("transform.io.write")
    out["trace.op_s"] = sum(self_s(name) for name in tot if name != HASH_SPAN)

    per_pass = {name: value / passes for name, value in out.items()}
    per_pass["group.scaled_bases.distinct_ratio"] = ratio(
        "group.scaled_bases", calls("group.scaled_bases")
    )
    per_pass["transform.forward.distinct_ratio"] = ratio("transform.forward", calls("transform.forward"))
    per_pass["trace.ops_per_s_ratio"] = ops_per_s_ratio
    return per_pass
