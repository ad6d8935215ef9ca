"""In-memory span tracer that wraps ordtop's layer functions from outside.

Spans (name, parent, start, end) are recorded only at module-function
boundaries; the hot Ordinal dunders and ``FinitePoset.max_of`` get counts,
because a span on each of them would cost more than the work it measures.
Every name that binds a wrapped function is rebound: the defining module,
each module that imported it, and the defaults of the click callbacks.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from array import array
from collections import Counter

LAYERS = ("ordinal", "poset", "hyperspace", "spaceterm", "clopen", "mrowka")
PRIVATE_SPANNED = {"poset": ("_kw_rank_masks",)}
COUNT_ONLY = {"ordinal.ord_cmp": "ordinal.compare.calls"}

# per-layer metric -> the spanned functions whose self time it sums
SELF_TIME_GROUPS = {
    "ordinal.nat_sum.self_s": ("ordinal.nat_sum",),
    "ordinal.nat_prod.self_s": ("ordinal.nat_prod",),
    "ordinal.arith.self_s": ("ordinal.ord_add", "ordinal.ord_mul", "ordinal.ord_pow"),
    "ordinal.split.self_s": ("ordinal.nat_sum_split_below",),
    "ordinal.random.self_s": ("ordinal.random_ordinal", "ordinal.random_ordinal_below"),
    "ordinal.parse.self_s": ("ordinal.parse_ordinal",),
    "ordinal.format.self_s": ("ordinal.format_ordinal",),
    "poset.labeled.self_s": ("poset.all_labeled_posets",),
    "poset.all_downsets.self_s": ("poset.all_downsets",),
    "poset.kw_rank.self_s": ("poset.kw_rank", "poset._kw_rank_masks"),
    "poset.zaguia.self_s": ("poset.zaguia_verify",),
    "poset.ranks.self_s": ("poset.ranks",),
    "hyperspace.build.self_s": ("hyperspace.build_hyperspace",),
    "hyperspace.selector_check.self_s": ("hyperspace.selector_axioms_check",),
    "hyperspace.hat_extension.self_s": ("hyperspace.hat_extension",),
    "hyperspace.density.self_s": ("hyperspace.vietoris_density_witness",),
    "spaceterm.term_report.self_s": ("spaceterm.term_report",),
    "spaceterm.bounds.self_s": ("spaceterm.check_height_rank_bounds",),
    "clopen.cb.self_s": ("clopen.clopen_cb",),
    "clopen.tip_selector.self_s": ("clopen.tip_selector",),
    "clopen.min_clopen.self_s": ("clopen.min_clopen_with_endpoint",),
    "mrowka.lusin_stage.self_s": ("mrowka.lusin_stage",),
    "mrowka.g_join.self_s": ("mrowka.g_join",),
    "mrowka.convergence.self_s": ("mrowka.convergence_check",),
    "mrowka.star.self_s": ("mrowka.star_truncation",),
}
CALL_COUNTS = {
    "ordinal.nat_sum.calls": "ordinal.nat_sum",
    "hyperspace.build.calls": "hyperspace.build_hyperspace",
    "spaceterm.term_report.calls": "spaceterm.term_report",
    "clopen.cb.calls": "clopen.clopen_cb",
    "mrowka.g_join.calls": "mrowka.g_join",
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.tallies: dict = {}  # counter name -> itertools.count
        self.sums = Counter()    # counter name -> total from result hooks
        self.in_lusin = [0]

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def tick(self, counter: str):
        return self.tallies.setdefault(counter, itertools.count()).__next__

    def count(self, counter: str) -> int:
        c = self.tallies.get(counter)
        return int(repr(c)[len("count("):-1]) if c else 0  # the next value it would yield

    def spanned(self, fn, name: str, on_result=None):
        sid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = self._name_id(name)
        i = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[i] = time.perf_counter()
            self.stack.pop()

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer function and the counted methods.  Call after
        importing ordtop.acceptance and ordtop.cli, so that every module
        that binds a layer function is loaded."""
        import ordtop.cli
        from ordtop.mrowka import EvPeriodicSet
        from ordtop.ordinal import Ordinal
        from ordtop.poset import FinitePoset

        hooks = {
            "poset.all_downsets": lambda r: self.sums.update({"poset.downsets.count": len(r)}),
            "hyperspace.build_hyperspace":
                lambda r: self.sums.update({"hyperspace.points": r.size}),
            "mrowka.lusin_stage": lambda r: self.sums.update(
                {"mrowka.lusin.chosen": sum(len(b) for b in r.blocks)}),
        }
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"ordtop.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_SPANNED.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    replace[id(obj)] = (obj, self._counted(obj, COUNT_ONLY[name]))
                elif name == "mrowka.lusin_stage":
                    replace[id(obj)] = (obj, self._lusin(obj, hooks[name]))
                else:
                    replace[id(obj)] = (obj, self.spanned(obj, name, hooks.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "ordtop" or mod_name.startswith("ordtop."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replace and replace[id(obj)][0] is obj:
                        setattr(module, attr, replace[id(obj)][1])
        for command in _walk_commands(ordtop.cli.main):
            fn = command.callback
            while fn is not None:
                if fn.__defaults__:
                    fn.__defaults__ = tuple(
                        replace[id(d)][1] if id(d) in replace and replace[id(d)][0] is d else d
                        for d in fn.__defaults__)
                fn = getattr(fn, "__wrapped__", None)

        counted = [(Ordinal, d, _count2, "ordinal.compare.calls")
                   for d in ("__lt__", "__le__", "__gt__", "__ge__")]
        counted += [(Ordinal, "__eq__", _count2, "ordinal.eq.calls"),
                    (Ordinal, "__hash__", _count1, "ordinal.hash.calls"),
                    (Ordinal, "__post_init__", _count1, "ordinal.construct.calls"),
                    (FinitePoset, "max_of", _count2, "poset.max_of.calls")]
        for cls, attr, wrap, counter in counted:
            tick = self.tick(counter)
            if callable(vars(cls).get(attr)):  # a count stays 0 if the method goes away
                setattr(cls, attr, wrap(vars(cls)[attr], tick))
        ascending = EvPeriodicSet.ascending
        scanned = self.tick("mrowka.lusin.scanned")
        in_lusin = self.in_lusin

        def counting(gen):
            for x in gen:
                scanned()
                yield x

        def counting_ascending(s, start=0):
            gen = ascending(s, start)
            return counting(gen) if in_lusin[0] else gen

        EvPeriodicSet.ascending = counting_ascending

    def _counted(self, fn, counter: str):
        tick = self.tick(counter)

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def _lusin(self, fn, on_result):
        spanned = self.spanned(fn, "mrowka.lusin_stage", on_result)
        in_lusin = self.in_lusin

        def wrapper(*args, **kwargs):
            in_lusin[0] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                in_lusin[0] -= 1
        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Self time per span name and every count."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_time = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            self_time[names[i]] += ends[i] - starts[i] - child[i]
            calls[names[i]] += 1
        grid = 0
        cb = self.name_ids.get("clopen.clopen_cb")
        search = self.name_ids.get("clopen.min_clopen_with_endpoint")
        for i in range(n):
            if names[i] == cb and parents[i] >= 0 and names[parents[i]] == search:
                grid += 1
        counts = {name: self.count(name) for name in list(self.tallies)}
        counts.update(self.sums)
        counts["clopen.grid.candidates"] = grid
        return {"spans": n,
                "self_s": {self.names[k]: self_time[k] for k in range(len(self.names))},
                "calls": {self.names[k]: calls[k] for k in range(len(self.names))},
                "counts": counts}

    def write_spans(self, path: str):
        """Spans as four little-endian arrays (name id, parent, start, end)
        after a one-line header listing the span names."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _count1(fn, tick):
    def wrapper(a):
        tick()
        return fn(a)
    return wrapper


def _count2(fn, tick):
    def wrapper(a, b):
        tick()
        return fn(a, b)
    return wrapper


def _walk_commands(group):
    yield group
    for sub in getattr(group, "commands", {}).values():
        yield from _walk_commands(sub)


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    out = {}
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    for layer in LAYERS + ("acceptance",):
        out[f"{layer}.self_s"] = sum(v for n, v in self_s.items() if n.startswith(layer + "."))
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls.get(name, 0)
    for name in ("ordinal.construct.calls", "ordinal.compare.calls", "ordinal.eq.calls",
                 "ordinal.hash.calls", "poset.max_of.calls", "poset.downsets.count",
                 "hyperspace.points", "clopen.grid.candidates", "mrowka.lusin.scanned",
                 "mrowka.lusin.chosen"):
        out[name] = counts.get(name, 0)
    scanned = out["mrowka.lusin.scanned"]
    out["mrowka.lusin.useful_ratio"] = out["mrowka.lusin.chosen"] / scanned if scanned else 0.0
    return out
