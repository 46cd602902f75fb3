"""Spans around the calls between parastab's layers, recorded from outside.

The tracer rebinds names where the caller looks them up: ``from x import f``
copies the binding into the caller's module, so ``parastab.autgroup``'s
``chamber_invariant`` is patched in ``parastab.autgroup`` itself.  Each span
is ``[name, start, end, parent, busy, count, total, op]``; ``busy`` is the
time spent inside the call (for a generator, the sum of its resumptions),
``count`` a size taken from the result, ``total`` the size the call could
have reached, and ``op`` the index of the root span of the CLI call.
``restore`` puts back every attribute it replaced.
"""
from __future__ import annotations

import functools
import inspect
import json
import types
from math import comb
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "autgroup", "chamber", "transform_group", "weights_core", "local_matrix")

# Calls made inside their own module that still mark a unit of work.
INTERNAL = {
    "cli": ("main", "build_parser"),
    "autgroup": ("candidate_transforms",),
    "chamber": ("admissible_types", "chamber_invariant"),
    "weights_core": ("wall_values",),
    "local_matrix": ("inverse_exact", "inverse_series", "is_pure_tensor", "rank1_factor"),
}
METHODS = (("local_matrix", "LaurentMatrix", ("det", "adjugate")),)
# owt is called once per pattern from max_subdegree; a span per call would
# cost more than the call and hold millions of spans, so its time stays in
# chamber's self time.
SKIP = {("chamber", "owt")}

NAME, START, END, PARENT, BUSY, COUNT, TOTAL, OP = range(8)

COUNTS = {
    "chamber.chamber_invariant": lambda res: len(res.values),
    "chamber.walls_crossed": len,
    "autgroup.candidate_transforms": len,
    "autgroup.automorphism_group": lambda res: len(res.classes),
    "autgroup.iso_transforms": len,
}


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def targets(modules: dict) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every traced call site."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        for attr, value in sorted(vars(mod).items()):
            if not isinstance(value, types.FunctionType) or (layer, attr) in SKIP:
                continue
            origin = value.__module__
            crosses = origin.startswith("parastab.") and origin != mod.__name__
            if crosses or attr in INTERNAL.get(layer, ()):
                out.append((mod, attr, value, f"{_layer(value)}.{value.__qualname__}"))
    for layer, cls_name, attrs in METHODS:
        cls = getattr(modules[layer], cls_name)
        for attr in attrs:
            value = cls.__dict__[attr]
            out.append((cls, attr, value, f"{layer}.{value.__qualname__}"))
    return out


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for owner, attr, original, name in targets(self.modules):
            setattr(owner, attr, self._wrap(original, name))
            self.patched.append((owner, attr, original))

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _open(self, name: str, now: float) -> list:
        parent = self.stack[-1] if self.stack else -1
        op = self.spans[parent][OP] if parent >= 0 else len(self.spans)
        span = [name, now, now, parent, 0.0, 0, 0, op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        size = COUNTS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[BUSY] = span[END] - span[START]
                stack.pop()
            if size is not None:
                span[COUNT] = size(result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(w, *args, **kwargs):
            span = self._open(name, perf_counter())
            stack.pop()
            index = len(self.spans) - 1
            span[TOTAL] = sum(comb(w.rank, rp) ** w.npoints for rp in range(1, w.rank))
            inner = fn(w, *args, **kwargs)

            def resume():
                try:
                    while True:
                        stack.append(index)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span[END] = perf_counter()
                            span[BUSY] += span[END] - t0
                            stack.pop()
                        span[COUNT] += 1
                        yield item
                finally:
                    inner.close()

            return resume()

        return wrapper

    # -- results --------------------------------------------------------
    def layer_self_seconds(self) -> dict[str, float]:
        spans = self.spans
        child_busy = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_busy[s[PARENT]] += s[BUSY]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, inner in zip(spans, child_busy):
            out[s[NAME].split(".", 1)[0]] += s[BUSY] - inner
        return out

    def metrics(self, ops: int, busy: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer figures, per CLI call unless the name says otherwise.

        ``busy`` is the raw end-to-end time of the traced calls; times are
        multiplied by ``scale`` to turn raw seconds into reported ones.
        """
        spans = self.spans
        by_name: dict[str, list[list]] = {}
        for s in spans:
            by_name.setdefault(s[NAME], []).append(s)

        def named(*names: str) -> list[list]:
            return [s for n in names for s in by_name.get(n, ())]

        def under(name: str, parents: tuple[str, ...]) -> list[list]:
            return [s for s in by_name.get(name, ())
                    if s[PARENT] >= 0 and spans[s[PARENT]][NAME] in parents]

        def total(rows: list[list], field: int = BUSY) -> float:
            return sum(s[field] for s in rows)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        layer_self = self.layer_self_seconds()
        searches = ("autgroup.automorphism_group", "autgroup.iso_transforms")
        tested = under("transform_group.apply_to_weights", searches)
        invariants = named("chamber.chamber_invariant")
        patterns = total(invariants, COUNT)
        walls = named("chamber.walls_crossed")
        scans = [s for n in ("weights_core.is_generic", "weights_core.is_degree_generic")
                 for s in under("weights_core.wall_values", (n,))]
        checks = ("local_matrix.hecke_conjugation_check",)
        series = len(under("local_matrix.inverse_series", checks))
        exact = len(under("local_matrix.inverse_exact", checks))
        applies = named("transform_group.apply_to_weights", "transform_group.apply_to_degree",
                        "transform_group.hecke_weights")
        word_ops = named("transform_group.make_transform", "transform_group.compose",
                         "transform_group.inverse", "transform_group.reduce_dual_rank2",
                         "transform_group.identity_transform")
        dets = named("local_matrix.LaurentMatrix.det")
        out = {
            "cli.self_ms": layer_self["cli"] / ops * 1e3,
            "cli.build_parser_ms": total(named("cli.build_parser")) / ops * 1e3,
            "autgroup.self_s": layer_self["autgroup"] / ops,
            "autgroup.candidate_transforms_s": total(named("autgroup.candidate_transforms")) / ops,
            "autgroup.candidates": len(tested) / ops,
            "autgroup.survivor_ratio": ratio(total(named(*searches), COUNT), len(tested)),
            "chamber.invariant_calls": len(invariants) / ops,
            "chamber.patterns_evaluated": patterns / ops,
            "chamber.invariant_s": total(invariants) / ops,
            "chamber.us_per_pattern": ratio(total(invariants), patterns) * 1e6,
            "chamber.admissible_types_s": total(named("chamber.admissible_types")) / ops,
            "chamber.walls_crossed_s": total(walls) / ops,
            "chamber.walls_reported": total(walls, COUNT) / ops,
            "weights_core.generic_s": total(
                named("weights_core.is_generic", "weights_core.is_degree_generic")) / ops,
            "weights_core.wall_values_yielded": total(named("weights_core.wall_values"), COUNT) / ops,
            "weights_core.early_exit_ratio": ratio(total(scans, COUNT), total(scans, TOTAL)),
            "transform_group.apply_calls": len(applies) / ops,
            "transform_group.apply_s": total(applies) / ops,
            "transform_group.word_ops_s": total(word_ops) / ops,
            "local_matrix.det_calls": len(dets) / ops,
            "local_matrix.det_s": total(dets) / ops,
            "local_matrix.adjugate_s": total(named("local_matrix.LaurentMatrix.adjugate")) / ops,
            "local_matrix.hecke_check_s": total(named(*checks)) / ops,
            "local_matrix.series_inverse_ratio": ratio(series, series + exact),
            "local_matrix.mp_s": total(named("local_matrix.mp_matrix")) / ops,
            "local_matrix.rank1_s": total(named("local_matrix.rank1_factor")) / ops,
        }
        for name in out:
            if name.endswith(("_ms", "_s", "us_per_pattern")):
                out[name] *= scale
        for layer in LAYERS:
            out[f"{layer}.share"] = ratio(layer_self[layer], busy)
        return out

    def write(self, path: Path) -> None:
        """Write every span as JSON, with start and end relative to the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[BUSY], s[COUNT],
                 s[TOTAL], s[OP]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "busy", "count", "total", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
