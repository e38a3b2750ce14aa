"""Spans and counters around calls into heartproof's layers, for the traced run.

The wrappers live here, in the benchmark, not in the program. A layer's
function is often imported by name into other modules (for example
`verdict.exists_subgroup_of_index_dividing`, `modules.kernel_basis`,
`probe.is_prime`), so `instrument` replaces the function in every heartproof
module that bound it, and `unwrapped_references` proves that no module still
holds an original. Spans are kept in memory as (name, start, end, parent,
request) and summed when the run ends; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Every per-layer metric the traced run reports, with its unit. Counts and
# self times are per request; system_mb is the largest system built.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s/req",
    "verdict.dispatch.self_s": "s/req",
    "groups.chain.calls": "count/req",
    "groups.chain.self_s": "s/req",
    "groups.index_search.calls": "count/req",
    "groups.index_search.table_answers": "count/req",
    "groups.subgroup_classes.calls": "count/req",
    "groups.subgroup_classes.memo_hits": "count/req",
    "groups.subgroup_classes.classes": "count/req",
    "groups.subgroup_classes.self_s": "s/req",
    "groups.compositions": "count/req",
    "modules.meataxe.calls": "count/req",
    "modules.meataxe.attempts": "count/req",
    "modules.meataxe.self_s": "s/req",
    "modules.spin.calls": "count/req",
    "modules.commutant.calls": "count/req",
    "modules.commutant.self_s": "s/req",
    "modules.commutant.system_mb": "MB",
    "linalg.rref.calls": "count/req",
    "linalg.rref.cells": "count/req",
    "linalg.rref.self_s": "s/req",
    "linalg.charpoly.calls": "count/req",
    "linalg.charpoly.self_s": "s/req",
    "gfpoly.distinct_degree.calls": "count/req",
    "gfpoly.distinct_degree.self_s": "s/req",
    "gfpoly.pow_mod.calls": "count/req",
    "gfpoly.factor_squarefree.self_s": "s/req",
    "probe.classify_galois.calls": "count/req",
    "probe.classify_galois.self_s": "s/req",
    "probe.primes_sampled": "count/req",
    "probe.discriminant.calls": "count/req",
    "probe.discriminant.self_s": "s/req",
    "fields.is_prime.calls": "count/req",
    "fields.is_prime.self_s": "s/req",
    "simplicity.decide.calls": "count/req",
    "simplicity.decide.self_s": "s/req",
}

# span name -> (module, attribute); "cli" is the request itself
SPANS = {
    "cli": ("heartproof.cli", "main"),
    "verdict.dispatch": ("heartproof.verdict", "dispatch"),
    "groups.chain": ("heartproof.groups", "StabilizerChain.__init__"),
    "groups.index_search": ("heartproof.groups", "exists_subgroup_of_index_dividing"),
    "groups.subgroup_classes": ("heartproof.groups", "subgroup_classes"),
    "modules.meataxe": ("heartproof.modules", "is_irreducible"),
    "modules.commutant": ("heartproof.modules", "commutant_dim"),
    "linalg.rref": ("heartproof.linalg", "rref"),
    "linalg.charpoly": ("heartproof.linalg", "charpoly"),
    "gfpoly.distinct_degree": ("heartproof.gfpoly", "distinct_degree"),
    "gfpoly.factor_squarefree": ("heartproof.gfpoly", "factor_squarefree"),
    "probe.classify_galois": ("heartproof.probe", "classify_galois"),
    "probe.discriminant": ("heartproof.probe", "discriminant"),
    "fields.is_prime": ("heartproof.fields", "is_prime"),
    "simplicity.decide": ("heartproof.simplicity", "decide_heart_simplicity"),
}

# counter name -> (module, attribute): calls counted, no span
COUNTS = {
    "groups.compositions": ("heartproof.perm", "mult"),
    "modules.spin.calls": ("heartproof.modules", "spin"),
    "gfpoly.pow_mod.calls": ("heartproof.gfpoly", "pow_mod"),
    "probe.primes_sampled": ("heartproof.probe", "factor_degrees_mod_p"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []   # ids of the open spans
        self._open: list[str] = []    # and their names
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped: list[object] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, open_names, clock = self.spans, self._stack, self._open, time.perf_counter
        enter, leave = self._hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(args) if enter else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            open_names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent, self.request)
                stack.pop()
                open_names.pop()
            if leave:
                leave(state, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name):
        """(enter(args) -> state, leave(state, result)) turning calls into
        layer counters; either may be None."""
        c = self.counters
        if name == "groups.index_search":
            # answered without the subgroup search: family table or arithmetic
            def enter(args):
                return c["groups.subgroup_classes.calls"]

            def leave(before, result):
                if c["groups.subgroup_classes.calls"] == before:
                    c["groups.index_search.table_answers"] += 1
            return enter, leave
        if name == "groups.subgroup_classes":
            # a call that composes no permutation returned a memoised lattice
            def enter(args):
                c["groups.subgroup_classes.calls"] += 1
                return c["groups.compositions"]

            def leave(before, result):
                if c["groups.compositions"] == before:
                    c["groups.subgroup_classes.memo_hits"] += 1
                else:
                    c["groups.subgroup_classes.classes"] += len(result)
            return enter, leave
        if name == "modules.commutant":
            def enter(args):
                module = args[0]
                mb = len(module.gen_matrices) * module.dim**4 * 8 / 1e6
                c["modules.commutant.system_mb"] = max(c["modules.commutant.system_mb"], mb)
            return enter, None
        if name == "linalg.rref":
            def enter(args):
                rows, cols = args[0].shape
                c["linalg.rref.cells"] += rows * cols
            return enter, None
        if name == "linalg.charpoly":
            open_names = self._open

            def enter(args):
                # a charpoly taken directly inside the MeatAxe is one attempt
                if open_names and open_names[-1] == "modules.meataxe":
                    c["modules.meataxe.attempts"] += 1
            return enter, None
        return None, None

    # -- installing ---------------------------------------------------------

    @contextmanager
    def instrument(self):
        """Wrap every layer function in every heartproof module that bound it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "heartproof" or k.startswith("heartproof.")]
        try:
            for name, (modname, attr) in SPANS.items():
                self._install(modules, modname, attr, self._span(name, _lookup(modname, attr)))
            for name, (modname, attr) in COUNTS.items():
                self._install(modules, modname, attr, self._count(name, _lookup(modname, attr)))
            yield self
        finally:
            for owner, key, original in reversed(self._originals):
                setattr(owner, key, original)
            self._originals.clear()
            self._wrapped.clear()

    def _install(self, modules, modname, attr, wrapper):
        original = _lookup(modname, attr)
        self._wrapped.append(original)
        owner = sys.modules[modname]
        if "." in attr:
            cls, attr = attr.split(".")
            targets = [getattr(owner, cls)]
        else:
            targets = modules
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._originals.append((target, key, value))
                    setattr(target, key, wrapper)

    def unwrapped_references(self) -> list[str]:
        """Names in heartproof modules or their classes still bound to an
        original layer function."""
        originals = {id(f) for f in self._wrapped}
        found = []
        for modname, module in sorted(sys.modules.items()):
            if not (modname == "heartproof" or modname.startswith("heartproof.")):
                continue
            spaces = [(modname, vars(module))]
            spaces += [(f"{modname}.{k}", vars(v)) for k, v in vars(module).items()
                       if isinstance(v, type) and v.__module__ == modname]
            for where, space in spaces:
                found += [f"{where}.{k}" for k, v in space.items() if id(v) in originals]
        return found

    # -- summary ------------------------------------------------------------

    def summary(self, requests: int) -> dict[str, float]:
        """Per-request calls and self time of every span, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[sid]
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name] / requests
            out[f"{name}.self_s"] = self_s[name] / requests
        for name, value in self.counters.items():
            out[name] = value if name.endswith("_mb") else value / requests
        return out


def _lookup(modname: str, attr: str):
    owner = sys.modules[modname]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner
