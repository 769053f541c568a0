"""Spans around every public prx function, installed from outside the library.

prx modules bind each other's functions with ``from ... import``, so a
wrapper replaces the function on every ``prx.*`` module attribute that holds
it.  A span records name, start, end, parent span and job; spans stay in
memory and are aggregated (and written out) when the run ends.  A
function that a later version of prx deletes is reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("syntax", "automata", "valuations", "semantics", "fast_paths", "constructions")

SEMANTICS_FUNCTIONS = (
    "membership", "nonemptiness", "universality", "containment", "nonempty_int_reg",
    "construct_nfa", "construct_nfa_domains", "decide_domains",
)

# Functions grouped under one per-layer name.
GROUPS = {
    "automata.search": ("automata.is_empty", "automata.is_universal"),
    "valuations.domains": (
        "valuations.enumerate_finite_domain", "valuations.enumerate_word_valuations",
        "valuations.enumerate_finitary_valuations", "valuations.apply_finitary",
        "valuations.apply_to_regex",
    ),
}

# Membership routes the CLI can take, timed inclusively (outermost span only).
ROUTES = {
    "route.member_fast_box.total_s": "fast_paths.membership_box_fixed_word",
    "route.member_fast_diamond_fixed_word.total_s": "fast_paths.membership_diamond_fixed_word",
    "route.member_fast_diamond_simple_sh0.total_s": "fast_paths.membership_diamond_simple_sh0",
    "route.membership.total_s": "semantics.membership",
    "route.construct_nfa.total_s": "semantics.construct_nfa",
}

FAST_PATHS = {
    "fast_paths.box_fixed_word": "fast_paths.membership_box_fixed_word",
    "fast_paths.diamond_fixed_word": "fast_paths.membership_diamond_fixed_word",
    "fast_paths.diamond_simple_sh0": "fast_paths.membership_diamond_simple_sh0",
    "fast_paths.nonempty_box_sh0": "fast_paths.nonemptiness_box_sh0",
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_result_states(key: str):
    def hook(counts, args, kwargs, result):
        counts[key] += result.n_states

    return hook


def _determinize(counts, args, kwargs, result):
    counts["automata.determinize.states"] += result.n_states
    counts["automata.determinize.input_states"] += _arg(args, kwargs, 0, "a").n_states


def _product_all(counts, args, kwargs, result):
    counts["automata.product_all.components"] += len(_arg(args, kwargs, 0, "automata"))
    counts["automata.product_all.states"] += result.n_states


def _remove_epsilon(counts, args, kwargs, result):
    counts["automata.remove_epsilon.transitions"] += len(result.transitions)


def _enumerate(counts, args, kwargs, result):
    names = _arg(args, kwargs, 0, "var_names")
    alphabet = _arg(args, kwargs, 1, "alphabet")
    counts["valuations.enumerate.space"] += len(alphabet) ** len(names)


# Counters read from a call's arguments and result, where the work happens.
HOOKS = {
    "automata.regex_to_nfa": _count_result_states("automata.regex_to_nfa.states"),
    "automata.remove_epsilon": _remove_epsilon,
    "automata.determinize": _determinize,
    "automata.product_all": _product_all,
    "automata.union_all": _count_result_states("automata.union_all.states"),
    "automata.product": _count_result_states("automata.product.states"),
    "valuations.enumerate_valuations": _enumerate,
}

EXPECTED = sorted(
    {f"semantics.{f}" for f in SEMANTICS_FUNCTIONS}
    | set(HOOKS)
    | set(ROUTES.values())
    | set(FAST_PATHS.values())
    | {f for group in GROUPS.values() for f in group}
    | {"syntax.parse", "automata.accepts", "valuations.apply_to_nfa",
       "constructions.verify_fooling_set"}
)


class Tracer:
    """Installs spans on prx's public functions and aggregates them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, raised PrxError]
        self.stack: list[int] = []
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.hook_failures: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._patches: list[tuple] = []
        self._error = importlib.import_module("prx.errors").PrxError

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"prx.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
                self.wrapped.add(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "prx" and not modname.startswith("prx."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def absent(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.wrapped]

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def _hook(self, name: str, args, kwargs, result) -> None:
        hook = HOOKS.get(name)
        if hook is None:
            return
        try:
            hook(self.counts, args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            self.hook_failures[name] += 1

    def _wrap(self, name: str, fn):
        error = self._error

        if inspect.isgeneratorfunction(fn):
            drawn = "valuations.enumerate.drawn" if name == "valuations.enumerate_valuations" else None

            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                self._hook(name, args, kwargs, None)
                it = fn(*args, **kwargs)
                while True:
                    rec = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except error:
                        rec[5] = True
                        raise
                    finally:
                        self.close(rec)
                    if drawn:
                        self.counts[drawn] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            self.calls[name] += 1
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except error:
                rec[5] = True
                raise
            finally:
                self.close(rec)
            self._hook(name, args, kwargs, result)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        errors: dict[str, int] = defaultdict(int)
        routes: dict[str, float] = defaultdict(float)
        route_fns = set(ROUTES.values())
        for i, rec in enumerate(spans):
            name = rec[0]
            own = rec[2] - rec[1] - child[i]
            self_s[name] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            parent = spans[rec[3]] if rec[3] >= 0 else None
            if rec[5] and (parent is None or parent[0].split(".", 1)[0] != layer):
                errors[layer] += 1
            if name in route_fns:
                p = rec[3]
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    routes[name] += rec[2] - rec[1]

        out: dict[str, tuple[float, str]] = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        put("syntax.parse.self_s", self_s["syntax.parse"], "s")
        put("syntax.parse.calls", self.calls["syntax.parse"], "count")
        put("automata.regex_to_nfa.self_s", self_s["automata.regex_to_nfa"], "s")
        put("automata.regex_to_nfa.states", self.counts["automata.regex_to_nfa.states"], "count")
        put("automata.remove_epsilon.self_s", self_s["automata.remove_epsilon"], "s")
        put("automata.remove_epsilon.transitions",
            self.counts["automata.remove_epsilon.transitions"], "count")
        put("automata.accepts.self_s", self_s["automata.accepts"], "s")
        put("automata.accepts.calls", self.calls["automata.accepts"], "count")
        put("automata.determinize.self_s", self_s["automata.determinize"], "s")
        put("automata.determinize.calls", self.calls["automata.determinize"], "count")
        dfa_states = self.counts["automata.determinize.states"]
        put("automata.determinize.states", dfa_states, "count")
        nfa_states = self.counts["automata.determinize.input_states"]
        put("automata.determinize.blowup", dfa_states / nfa_states if nfa_states else 0.0, "ratio")
        put("automata.product_all.self_s", self_s["automata.product_all"], "s")
        put("automata.product_all.components",
            self.counts["automata.product_all.components"], "count")
        put("automata.product_all.states", self.counts["automata.product_all.states"], "count")
        put("automata.union_all.self_s", self_s["automata.union_all"], "s")
        put("automata.union_all.states", self.counts["automata.union_all.states"], "count")
        put("automata.product.self_s", self_s["automata.product"], "s")
        put("automata.product.states", self.counts["automata.product.states"], "count")
        for key, members in GROUPS.items():
            put(f"{key}.self_s", sum(self_s[m] for m in members), "s")
        put("automata.search.calls", sum(self.calls[m] for m in GROUPS["automata.search"]), "count")
        drawn = self.counts["valuations.enumerate.drawn"]
        space = self.counts["valuations.enumerate.space"]
        put("valuations.enumerate.drawn", drawn, "count")
        put("valuations.enumerate.space", space, "count")
        put("valuations.scan_ratio", drawn / space if space else 0.0, "ratio")
        put("valuations.apply_to_nfa.self_s", self_s["valuations.apply_to_nfa"], "s")
        put("valuations.apply_to_nfa.calls", self.calls["valuations.apply_to_nfa"], "count")
        for fn in SEMANTICS_FUNCTIONS:
            put(f"semantics.{fn}.self_s", self_s[f"semantics.{fn}"], "s")
            put(f"semantics.{fn}.calls", self.calls[f"semantics.{fn}"], "count")
        for key, fn in FAST_PATHS.items():
            put(f"{key}.self_s", self_s[fn], "s")
        put("fast_paths.box_fixed_word.calls",
            self.calls[FAST_PATHS["fast_paths.box_fixed_word"]], "count")
        put("constructions.verify_fooling_set.self_s",
            self_s["constructions.verify_fooling_set"], "s")
        for layer in LAYERS:
            put(f"{layer}.self_s", layer_self[layer], "s")
            put(f"{layer}.errors", errors[layer], "count")
        put("cli.self_s", layer_self["cli"], "s")
        for key, fn in ROUTES.items():
            put(key, routes[fn], "s")
        return out
