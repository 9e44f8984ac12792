"""Spans around calls into genocchi, recorded from outside the program.

install() replaces the public functions of genocchi's modules, wherever a
module holds them as attributes, with wrappers that time each call, and
wraps each family class's __post_init__ (the validation of every built
object).  A span is named after the defining module and function; maps
that dispatch on the family, enumerate_model and the validations carry
the family as a suffix.  Self time is a span's duration minus the time
covered by its child spans.

Counts and times are aggregated per span name and per (parent, child)
edge as the calls return, so a run of millions of calls keeps a small
memory footprint; the first SPAN_CAP spans are also kept whole
(name, start, end, parent) and written out with the aggregates.
"""

from __future__ import annotations

import json
from time import perf_counter

SPAN_CAP = 20000
FAMILY_OF_CLASS = {
    "DumontPermutation": "pd2n",
    "DellacConfiguration": "dellac",
    "FeiginChain": "chain",
    "SetTuple": "settuple",
    "HetyeiTuple": "hetyei",
}
# public functions whose span name carries the family of their argument
_BY_CLASS = {"involution_t", "involution_r", "reduce", "lift"}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, seconds]
        self.spans: list[tuple[str, float, float, str]] = []
        self._stack: list[list] = [["", 0.0]]  # frames: [name, child seconds]

    def wrap(self, fn, name: str, suffix=None):
        stack, stats, edges, spans = self._stack, self.stats, self.edges, self.spans

        def traced(*args, **kwargs):
            span = name if suffix is None else f"{name}.{suffix(args)}"
            frame = [span, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent[1] += took
                s = stats.get(span)
                if s is None:
                    s = stats[span] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += took
                s[2] += took - frame[1]
                e = edges.get((parent[0], span))
                if e is None:
                    e = edges[(parent[0], span)] = [0, 0.0]
                e[0] += 1
                e[1] += took
                if len(spans) < SPAN_CAP:
                    spans.append((span, start, end, parent[0]))

        return traced

    def install(self) -> None:
        """Wrap genocchi's public functions and the validations in place."""
        import genocchi
        from genocchi import cli, maps, models, triangles, verify

        modules = {"triangles": triangles, "models": models, "maps": maps,
                   "verify": verify, "cli": cli}
        wrapped = {}
        for label, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                name = f"{label}.{attr}"
                if attr == "enumerate_model":
                    suffix = _model_arg
                elif attr in _BY_CLASS:
                    suffix = _family_arg
                else:
                    suffix = None
                wrapped[id(fn)] = (fn, self.wrap(fn, name, suffix))
        for module in (genocchi, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for cls_name, family in FAMILY_OF_CLASS.items():
            cls = getattr(models, cls_name)
            cls.__post_init__ = self.wrap(cls.__post_init__, f"models.validate.{family}")

    def dump(self, path) -> None:
        payload = {
            "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": v[0], "s": v[1]}
                      for (p, c), v in sorted(self.edges.items())],
            "span_cap": SPAN_CAP,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    # -- aggregate views -------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total(self, prefix: str, field: int) -> float:
        return sum(v[field] for k, v in self.stats.items() if k.startswith(prefix))

    def edge_calls(self, parent_prefix: str, child_prefix: str) -> int:
        return sum(v[0] for (p, c), v in self.edges.items()
                   if p.startswith(parent_prefix) and c.startswith(child_prefix))


def _model_arg(args) -> str:
    return args[0] if args else "?"


def _family_arg(args) -> str:
    return FAMILY_OF_CLASS.get(type(args[0]).__name__, "?") if args else "?"
