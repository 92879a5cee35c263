"""Outside-in tracing of one ``mahlercf`` CLI call, and the per-layer metrics.

    python3 perfbench/tracing.py SPANS.json <mahlercf argv...>

runs ``mahlercf.cli.main(argv)`` after wrapping the public functions of every
layer (``SPANNED``) and writes the spans to SPANS.json at exit, also when the
call raises.  The library itself is not changed.  Each span records its name,
start, end (``time.perf_counter``) and parent.  A wrapped name is rebound in
every ``mahlercf`` module that holds it, so ``from .polys import poly_divmod``
callers are traced too, and each class attribute bound to a wrapped method is
replaced, which covers the ``__rmul__``/``__radd__`` aliases.

``layer_metrics`` turns span files into the per-layer metrics.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" names a method.
SPANNED = {
    "cli.main": ("mahlercf.cli", "main"),
    "polys.mul": ("mahlercf.polys", "RatPoly.__mul__"),
    "polys.add": ("mahlercf.polys", "RatPoly.__add__"),
    "polys.divmod": ("mahlercf.polys", "poly_divmod"),
    "polys.normalize_integer": ("mahlercf.polys", "poly_normalize_integer"),
    "polys.eval_mod": ("mahlercf.polys", "poly_eval_mod"),
    "laurent.generate": ("mahlercf.laurent", "generate"),
    "laurent.from_fraction": ("mahlercf.laurent", "TruncatedLaurentSeries.from_fraction"),
    "laurent.rate": ("mahlercf.laurent", "rate_of_approximation"),
    "laurent.funceq": ("mahlercf.laurent", "verify_functional_equations"),
    "contfrac.expand_family": ("mahlercf.contfrac", "expand_family"),
    "contfrac.family_series": ("mahlercf.contfrac", "family_series"),
    "contfrac.cf_expand": ("mahlercf.contfrac", "cf_expand"),
    "contfrac.monic": ("mahlercf.contfrac", "monic_normalize"),
    "contfrac.soundness": ("mahlercf.contfrac", "convergent_soundness"),
    "structure.beta_sequence": ("mahlercf.structure", "beta_sequence"),
    "structure.verify_identity": ("mahlercf.structure", "verify_identity"),
    "structure.classify": ("mahlercf.structure", "classify_all"),
    "padic.denominators": ("mahlercf.padic", "convergent_denominators"),
    "padic.witness_search": ("mahlercf.padic", "witness_search"),
    "padic.orbit_table": ("mahlercf.padic", "orbit_table"),
    "padic.check_conditions": ("mahlercf.padic", "check_conditions"),
    "padic.hensel": ("mahlercf.padic", "hensel_divisibility_demo"),
    "padic.revalidate": ("mahlercf.padic", "revalidate_witness"),
    "approx.eval_mahler": ("mahlercf.approx", "eval_mahler"),
    "approx.real_cf_prefix": ("mahlercf.approx", "real_cf_prefix"),
}

LAYERS = ("polys", "laurent", "contfrac", "structure", "padic", "approx", "cli")

# Facts read off return values, for the ratio metrics.
ATTRIBUTES = {
    "laurent.generate": lambda series: {"depth": -series.floor},
    "contfrac.cf_expand": lambda cf: {"quotients": len(cf.partial_quotients)},
    "contfrac.expand_family": lambda result: {
        "depth": -result[1].floor,
        "deg_q": int(result[0].convergents[-1].q.degree()),
    },
}

# Every per-layer metric with its unit, in report order; run.py adds
# cli.stdout_bytes and trace.overhead_ratio, which come from the parent.
UNITS = {
    **{key: unit for name in SPANNED
       for key, unit in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))
       if key != "cli.main.self_s"},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "laurent.generate.depth": "count",
    "contfrac.quotients": "count",
    "contfrac.precision_doublings": "ratio",
    "contfrac.series_cache.hit_ratio": "ratio",
    "contfrac.floor_overshoot": "ratio",
    "padic.denominators.hit_ratio": "ratio",
    "cli.stdout_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans of one process.  Each thread keeps its own stack of open spans;
    a span opened by a worker thread with nothing open gets the main
    thread's innermost open span as parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [name, perf_counter(), None, parent, None]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attributes is not None:
                span[4] = attributes(result)
            return result

        return traced

    def install(self) -> None:
        for name, (module_name, attribute) in SPANNED.items():
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                _wrap_method(cls, method, self.wrap(name, _unwrap(cls.__dict__[method])))
            else:
                _rebind(getattr(module, attribute), self.wrap(name, getattr(module, attribute)))

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[name, start, end, None if parent is None else index[id(parent)], attrs]
                for name, start, end, parent, attrs in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def _unwrap(member):
    return member.__func__ if isinstance(member, classmethod) else member


def _wrap_method(cls, method: str, wrapper) -> None:
    """Replace every attribute of cls bound to the method (aliases included)."""
    member = cls.__dict__[method]
    replacement = classmethod(wrapper) if isinstance(member, classmethod) else wrapper
    for attr, value in list(vars(cls).items()):
        if value is member:
            setattr(cls, attr, replacement)


def _rebind(original, wrapper) -> None:
    """Rebind the name in every loaded mahlercf module that imported it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "mahlercf" or module_name.startswith("mahlercf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] covered by the child intervals."""
    total, reach = 0.0, start
    for child_start, child_end in sorted(children):
        lo, hi = max(child_start, reach), min(child_end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(paths) -> dict[str, float]:
    """Aggregate span files (one per traced request) into per-layer metrics."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, int] = defaultdict(int)
    hits = {"contfrac.family_series": 0, "padic.denominators": 0}
    # The child span whose absence below a call means the cache served it.
    miss_marker = {"contfrac.family_series": "laurent.generate",
                   "padic.denominators": "contfrac.expand_family"}
    spans_total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        spans_total += len(spans)
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent is not None:
                children[parent].append(i)

        def reaches(i: int, target: str) -> bool:
            return any(spans[c][0] == target or reaches(c, target) for c in children[i])

        for i, (name, start, end, _, attrs) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - _covered(
                start, end, [(spans[c][1], spans[c][2]) for c in children[i]])
            for key, value in (attrs or {}).items():
                sums[f"{name}.{key}"] += value
            if name in hits and not reaches(i, miss_marker[name]):
                hits[name] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in SPANNED:
        out[f"{name}.calls"] = calls[name]
        if name != "cli.main":
            out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    out["laurent.generate.depth"] = sums["laurent.generate.depth"]
    out["contfrac.quotients"] = sums["contfrac.cf_expand.quotients"]
    expansions = calls["contfrac.expand_family"]
    out["contfrac.precision_doublings"] = ratio(
        calls["contfrac.family_series"] - expansions, expansions)
    out["contfrac.series_cache.hit_ratio"] = ratio(
        hits["contfrac.family_series"], calls["contfrac.family_series"])
    out["contfrac.floor_overshoot"] = ratio(
        sums["contfrac.expand_family.depth"], 2 * sums["contfrac.expand_family.deg_q"])
    out["padic.denominators.hit_ratio"] = ratio(
        hits["padic.denominators"], calls["padic.denominators"])
    out["trace.spans"] = spans_total
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    import mahlercf.cli

    tracer.install()
    try:
        return mahlercf.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
