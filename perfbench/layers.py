"""Per-layer time and call counts for a traced pass, read from ``cProfile``.

The library is not modified: each op runs under a profiler that is enabled
only for the op's own call, and the raw entries are folded into layers after
every op so that each op's times can be speed-corrected with its own factor.

A layer is a module of ``multconv``; stdlib ``fractions`` is its own bucket.
``<layer>.self_ms`` is time spent in the layer's functions excluding callees
in other layers.  Builtins and other non-library code (``json``, ``argparse``,
generated dataclass methods) are charged to the layer that called them; when
such code is itself called from non-library code, its time follows the
callers' shares up to the nearest library function.
"""

from __future__ import annotations

import cProfile
import fractions
import os
from collections import Counter, defaultdict

LAYERS = ("scalars", "subsets", "points", "measures", "sphere", "lifting",
          "universality", "zonoids", "harness", "cli")

# calls of (layer, qualified name) reported as counts
CALL_COUNTS = {
    "measures.mconv.calls": ("measures", "mconv"),
    "measures.measure_new.calls": ("measures", "Measure.__init__"),
    "sphere.sconv.calls": ("sphere", "sconv"),
    "points.primitive_ray.calls": ("points", "primitive_ray"),
    "scalars.surd_mul.calls": ("scalars", "Surd.__mul__"),
    "scalars.surd_add.calls": ("scalars", "Surd.__add__"),
    "scalars.surd_sqrt.calls": ("scalars", "Surd.sqrt"),
    "scalars.square_free_decompose.calls": ("scalars", "square_free_decompose"),
    "scalars.fraction_new.calls": ("fractions", "Fraction.__new__"),
    "subsets.index_set.calls": ("subsets", "index_set"),
}
# atom pairs visited: calls from the product loop to its per-pair helper
EDGE_COUNTS = {
    "measures.mconv.pairs": (("measures", "mconv"), ("points", "hadamard")),
    "sphere.sconv.pairs": (("sphere", "sconv"), ("points", "hadamard_ray")),
}
WITNESS = {("universality", "_rn_witness"), ("universality", "_sphere_witness")}
# direct callees of the cli command handlers that parse input or emit output
CLI_PARSE = {"build_parser", "parse_args", "_load_json", "_parse_measure", "_parse_subset",
             "_parse_family", "_parse_support", "from_json"}
CLI_EMIT = {"_emit", "to_json"}


class LayerProfile:
    """Accumulates corrected per-layer self times and exact call counts."""

    def __init__(self, package_dir: str):
        self._package_dir = os.path.realpath(package_dir) + os.sep
        self._fractions_file = os.path.realpath(fractions.__file__)
        self._owner_cache: dict[str, str | None] = {}
        self._profiler = cProfile.Profile()
        self.self_s: dict[str, float] = defaultdict(float)
        self.witness_s = 0.0
        self.parse_s = 0.0
        self.emit_s = 0.0
        self.counts: Counter = Counter()

    def run(self, fn):
        self._profiler.enable()
        try:
            return fn()
        finally:
            self._profiler.disable()

    def _owner(self, code) -> str | None:
        if isinstance(code, str):
            return None
        path = code.co_filename
        owner = self._owner_cache.get(path, "")
        if owner == "":
            real = os.path.realpath(path) if os.path.isabs(path) else path
            if real.startswith(self._package_dir):
                owner = os.path.splitext(real[len(self._package_dir):])[0]
            elif real == self._fractions_file:
                owner = "fractions"
            else:
                owner = None
            self._owner_cache[path] = owner
        return owner

    def collect(self, factor: float) -> None:
        """Fold the entries of the op just run, scaling times by ``factor``."""
        entries = self._profiler.getstats()
        self._profiler.clear()
        key = lambda code: code if isinstance(code, str) else id(code)  # noqa: E731
        owner = {}
        name = {}
        incoming: dict = defaultdict(list)
        for e in entries:
            k = key(e.code)
            owner[k] = self._owner(e.code)
            name[k] = e.code if isinstance(e.code, str) else e.code.co_qualname
            for sub in e.calls or ():
                incoming[key(sub.code)].append((k, sub.inlinetime))
        # shares of each function's inline time per layer
        shares = {k: {o: 1.0} for k, o in owner.items() if o is not None}
        for _ in range(8):
            changed = False
            for k, o in owner.items():
                if o is not None:
                    continue
                edges = incoming.get(k, ())
                total = sum(t for _, t in edges)
                if not total:
                    continue
                # time reached from callers that have no share (the benchmark's
                # own code) stays unattributed
                mix: dict = defaultdict(float)
                for c, t in edges:
                    for layer, s in shares.get(c, {}).items():
                        mix[layer] += s * t / total
                if shares.get(k) != mix:
                    shares[k] = dict(mix)
                    changed = True
            if not changed:
                break
        for e in entries:
            k = key(e.code)
            for layer, s in shares.get(k, {}).items():
                self.self_s[layer] += e.inlinetime * s * factor
            o, qual = owner[k], name[k]
            if (o, qual) in WITNESS:
                self.witness_s += e.totaltime * factor
            self.counts[(o, qual)] += e.callcount
            for sub in e.calls or ():
                sk = key(sub.code)
                callee = owner.get(sk), name.get(sk, sub.code if isinstance(sub.code, str) else sub.code.co_qualname)
                self.counts[((o, qual), callee)] += sub.callcount
                if o == "cli" and (qual == "main" or qual.startswith("_cmd_")):
                    short = callee[1].rsplit(".", 1)[-1]
                    if short in CLI_PARSE:
                        self.parse_s += sub.totaltime * factor
                    elif short in CLI_EMIT:
                        self.emit_s += sub.totaltime * factor

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.self_s.get(layer, 0.0) * 1e3
        out["scalars.fraction_ms"] = self.self_s.get("fractions", 0.0) * 1e3
        out["universality.witness_ms"] = self.witness_s * 1e3
        out["cli.parse_ms"] = self.parse_s * 1e3
        out["cli.emit_ms"] = self.emit_s * 1e3
        for metric, fn in CALL_COUNTS.items():
            out[metric] = self.counts[fn]
        for metric, edge in EDGE_COUNTS.items():
            out[metric] = self.counts[edge]
        return out
