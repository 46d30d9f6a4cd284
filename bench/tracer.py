"""Outside-in tracing of metricht's layers.

The tracer replaces the names that each caller module looks up at call
time (metricht.cli.parse_theory, metricht.equilibrium.is_model,
metricht.fom.qht_sat, ...) with timing wrappers, and restores them
afterwards.  A generator is wrapped so that each next() is one span.
Spans are aggregated per (layer, name, parent), because the search loops
make hundreds of thousands of calls; the aggregates stay in memory until
the run writes them out.

A span's self time is its duration minus the time its child spans cover.
Work the tracer does after a span closes (counting nodes, bytes) is
charged to the tracer, not to the enclosing span.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

LAYERS = ("parser", "syntax", "traces", "semantics", "equilibrium", "rewrite", "fom", "cli")


def tree_size(root, base: type) -> int:
    """Number of `base` nodes below and including root, shared subtrees counted per use."""
    memo: dict[int, int] = {}

    def size(node) -> int:
        key = id(node)
        if key not in memo:
            memo[key] = 1 + sum(size(getattr(node, f.name))
                                for f in dataclasses.fields(node)
                                if isinstance(getattr(node, f.name), base))
        return memo[key]

    return size(root)


class Tracer:
    def __init__(self) -> None:
        # (layer, name, parent name) -> [calls, seconds, seconds covered by children]
        self.spans: dict[tuple[str, str, str], list] = {}
        self.counts: dict[str, float] = {}
        self.stack: list[list] = []  # open frames: [layer, name, start, child seconds]
        self.bookkeeping_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def parent(self) -> str:
        return self.stack[-1][1] if self.stack else "-"

    def enter(self, layer: str, name: str) -> list:
        frame = [layer, name, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def leave(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[2]
        key = (frame[0], frame[1], self.parent())
        entry = self.spans.get(key)
        if entry is None:
            entry = self.spans[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += frame[3]
        if self.stack:
            self.stack[-1][3] += duration
        return end

    def charge(self, since: float) -> None:
        """Move tracer work done since `since` out of the enclosing span's self time."""
        spent = perf_counter() - since
        self.bookkeeping_s += spent
        if self.stack:
            self.stack[-1][3] += spent

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def call(self, layer: str, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.leave(frame)
            if after is not None:
                after(self, args, result)
                self.charge(end)
            return result
        return wrapper

    def generator(self, layer: str, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            state: dict = {}

            def items():
                while True:
                    frame = self.enter(layer, name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.leave(frame)
                        return
                    except BaseException:
                        self.leave(frame)
                        raise
                    end = self.leave(frame)
                    if after is not None:
                        after(self, state, item)
                        self.charge(end)
                    yield item
            return items()
        return wrapper

    def patch(self, owner, attr: str, wrapped) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary of metricht that the CLI reaches."""
        from metricht import cli, equilibrium, fom, syntax

        def nodes_out(metric, base=syntax.Formula):
            def after(tr, args, result):
                formulas = getattr(result, "formulas", (result,))
                tr.count(metric, sum(tree_size(phi, base) for phi in formulas))
            return after

        def chars(tr, args, result):
            tr.count("syntax.format_chars", len(result))

        def rewritten(tr, args, result):
            tr.count("rewrite.nodes_in", tree_size(args[0], syntax.Formula))
            tr.count("rewrite.nodes_out", tree_size(result, syntax.Formula))

        def verdict(metric):
            def after(tr, args, result):
                tr.count(metric, bool(result))
            return after

        def models_found(tr, args, result):
            tr.count("equilibrium.models", len(result))

        def total_trace(tr, state, item):
            tr.count("traces.total_traces")
            if state.get("times") != item.times:
                state["times"] = item.times
                tr.count("traces.time_maps")
            parent = tr.parent()
            if parent == "enumerate_equilibrium":
                tr.count("equilibrium.candidates")
            elif parent == "bounded_equiv":
                tr.count("equilibrium.equiv_traces_checked")

        def refinement(tr, state, item):
            tr.count("traces.refinements")
            parent = tr.parent()
            if parent == "enumerate_equilibrium":
                tr.count("equilibrium.refinements_checked")
            elif parent == "bounded_equiv":
                tr.count("equilibrium.equiv_traces_checked")

        def qht_call(tr, args, result):
            if tr.parent() == "first_smaller_model":
                tr.count("fom.smaller_checked")

        for owner in (cli, equilibrium):
            self.patch(owner, "is_model", self.call("semantics", "is_model", owner.is_model,
                                                    verdict("semantics.is_model_true")))
            self.patch(owner, "mht_sat", self.call("semantics", "mht_sat", owner.mht_sat))
            self.patch(owner, "enumerate_total_traces",
                       self.generator("traces", "enumerate_total_traces",
                                      owner.enumerate_total_traces, total_trace))
        self.patch(equilibrium, "refinements",
                   self.generator("traces", "refinements", equilibrium.refinements, refinement))
        for name in ("parse_formula", "parse_theory"):
            self.patch(cli, name, self.call("parser", name, getattr(cli, name),
                                            nodes_out("parser.nodes_out")))
        self.patch(cli, "format_formula",
                   self.call("syntax", "format_formula", cli.format_formula, chars))
        for name in ("trace_from_json", "trace_to_json"):
            self.patch(cli, name, self.call("traces", name, getattr(cli, name)))
        self.patch(cli, "enumerate_equilibrium",
                   self.call("equilibrium", "enumerate_equilibrium",
                             cli.enumerate_equilibrium, models_found))
        self.patch(cli, "bounded_equiv",
                   self.call("equilibrium", "bounded_equiv", cli.bounded_equiv))
        self.patch(cli, "PASSES", {name: self.call("rewrite", name, fn, rewritten)
                                   for name, fn in cli.PASSES.items()})
        self.patch(cli, "range_split",
                   self.call("rewrite", "range_split", cli.range_split, rewritten))
        self.patch(fom, "translate", self.call("fom", "translate", fom.translate,
                                               nodes_out("fom.nodes_raw", fom.FOMFormula)))
        self.patch(fom, "simplify_fom", self.call("fom", "simplify_fom", fom.simplify_fom,
                                                  nodes_out("fom.nodes_simplified",
                                                            fom.FOMFormula)))
        self.patch(fom, "qht_sat", self.call("fom", "qht_sat", fom.qht_sat, qht_call))
        for name in ("format_fom", "parse_fom", "first_smaller_model",
                     "interpretation_from_json"):
            self.patch(fom, name, self.call("fom", name, getattr(fom, name)))

    # -- reduction -----------------------------------------------------------

    def seconds(self, layer: str, *names: str) -> float:
        return sum(v[1] for (lay, name, _), v in self.spans.items()
                   if lay == layer and (not names or name in names))

    def calls(self, layer: str, *names: str) -> int:
        return sum(v[0] for (lay, name, _), v in self.spans.items()
                   if lay == layer and (not names or name in names))

    def self_seconds(self, layer: str) -> float:
        return sum(v[1] - v[2] for (lay, _, _), v in self.spans.items() if lay == layer)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything traced so far (see BENCHMARK.json)."""
        c = self.counts.get
        m = {f"{layer}.self_s": self.self_seconds(layer) for layer in LAYERS}
        m.update({
            "parser.s": self.seconds("parser"),
            "parser.calls": self.calls("parser"),
            "parser.nodes_out": c("parser.nodes_out", 0),
            "syntax.format_s": self.seconds("syntax", "format_formula"),
            "syntax.format_chars": c("syntax.format_chars", 0),
            "traces.total_traces": c("traces.total_traces", 0),
            "traces.refinements": c("traces.refinements", 0),
            "traces.time_maps": c("traces.time_maps", 0),
            "traces.enum_s": self.seconds("traces", "enumerate_total_traces", "refinements"),
            "traces.json_s": self.seconds("traces", "trace_from_json", "trace_to_json"),
            "semantics.is_model_calls": self.calls("semantics", "is_model"),
            "semantics.is_model_s": self.seconds("semantics", "is_model"),
            "semantics.is_model_true_ratio":
                c("semantics.is_model_true", 0) / max(self.calls("semantics", "is_model"), 1),
            "semantics.mht_sat_calls": self.calls("semantics", "mht_sat"),
            "semantics.mht_sat_s": self.seconds("semantics", "mht_sat"),
            "equilibrium.candidates": c("equilibrium.candidates", 0),
            "equilibrium.refinements_checked": c("equilibrium.refinements_checked", 0),
            "equilibrium.models": c("equilibrium.models", 0),
            "equilibrium.model_yield":
                c("equilibrium.models", 0) / max(c("equilibrium.candidates", 0), 1),
            "equilibrium.equiv_traces_checked": c("equilibrium.equiv_traces_checked", 0),
            "rewrite.s": self.seconds("rewrite"),
            "rewrite.nodes_in": c("rewrite.nodes_in", 0),
            "rewrite.nodes_out": c("rewrite.nodes_out", 0),
            "rewrite.growth": c("rewrite.nodes_out", 0) / max(c("rewrite.nodes_in", 0), 1),
            "fom.translate_s": self.seconds("fom", "translate"),
            "fom.simplify_s": self.seconds("fom", "simplify_fom"),
            "fom.nodes_raw": c("fom.nodes_raw", 0),
            "fom.nodes_simplified": c("fom.nodes_simplified", 0),
            "fom.parse_s": self.seconds("fom", "parse_fom"),
            "fom.qht_sat_calls": self.calls("fom", "qht_sat"),
            "fom.qht_sat_s": self.seconds("fom", "qht_sat"),
            "fom.smaller_checked": c("fom.smaller_checked", 0),
        })
        return m

    def dump(self) -> list[dict]:
        return [{"layer": lay, "name": name, "parent": parent, "calls": v[0],
                 "s": v[1], "self_s": v[1] - v[2]}
                for (lay, name, parent), v in sorted(self.spans.items())]
