"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions and public methods of every
layer module of ``wordmaplab`` and rebinds every module attribute that holds
one of them (``census.best_agreement`` is ``homset.best_agreement``), so a
call is recorded whichever name it goes through.  ``Tracer.restore`` puts the
originals back.  The program itself is not edited: spans are recorded at the
layer boundaries from the benchmark's own files.

Spans are kept in memory.  ``Tracer.summary`` turns them into per-function
call counts, busy time (the union of a function's span intervals) and self
time.  Self time splits wall time among the innermost active spans, so the
self times of all spans add up to the time covered by the root spans even
when the census runs children in worker threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from fractions import Fraction

PACKAGE = "wordmaplab"
LAYERS = ("group", "freeword", "_tables", "homset", "census", "familycheck",
          "rng", "bounds", "cli")

# Per-element scalar helpers, called up to millions of times per pass.  A
# wrapper would cost more than the call it measures; their time is part of
# their caller's self time.
SCALAR = {
    "rng.mix64", "rng.SplitMix64.next_u64", "rng.SplitMix64.randbelow",
    "group.perm_compose", "group.element_order", "group.element_power",
    "tables.evaluate_word",
}

MARK = "__perfbench_span__"


def layer_name(module_name: str) -> str:
    """Metric prefix of a layer; metric names may not start with '_'."""
    return module_name.lstrip("_")


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


class Tracer:
    """Installs span wrappers, records spans and work counters."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
                        for m in LAYERS}
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.case = ""
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_thread = threading.main_thread()
        # Results a parent's counter reads from the child call it made.
        self._last: dict[str, int] = {}

    # -- targets -------------------------------------------------------------

    def targets(self) -> dict[int, tuple[str, object]]:
        """id(original) -> (span name, original)."""
        out = {}
        for mod_name, mod in self.modules.items():
            layer = layer_name(mod_name)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out[id(obj)] = (f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            out[id(fn)] = (f"{layer}.{attr}.{meth}", fn)
        return {k: v for k, v in out.items() if v[0] not in SCALAR}

    def _bindings(self):
        """Every (owner, attribute, value) in the package that could bind a
        wrapped function: module globals and class attributes."""
        mods = [importlib.import_module(PACKAGE)] + \
            [importlib.import_module(f"{PACKAGE}.{m}")
             for m in LAYERS + ("errors",)]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                yield mod, attr, obj
                if inspect.isclass(obj) and \
                        obj.__module__.startswith(PACKAGE):
                    for meth, fn in list(vars(obj).items()):
                        yield obj, meth, fn

    def installed(self) -> list[str]:
        """Names of package attributes that currently hold a span wrapper."""
        return sorted({f"{getattr(o, '__name__', o)}.{a}"
                       for o, a, v in self._bindings() if hasattr(v, MARK)})

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, (name, fn) in self.targets().items():
            wrappers[key] = self._wrap(name, fn, COUNTERS.get(name))
        seen = set()
        for owner, attr, value in self._bindings():
            if id(value) in wrappers and (id(owner), attr) not in seen:
                seen.add((id(owner), attr))
                self._patches.append((owner, attr, value))
                setattr(owner, attr, wrappers[id(value)])

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._last = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's first span belongs to the span the main
                # thread is waiting in.
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            rec = [name, parent, 0.0, 0.0, tracer.case,
                   threading.get_ident()]
            tracer.spans.append(rec)
            stack.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds ``s`` and self seconds."""
        spans = self.spans
        index = {id(r): i for i, r in enumerate(spans)}
        parent = [index.get(id(r[1]), -1) if r[1] is not None else -1
                  for r in spans]
        events = [(r[2], 1, i) for i, r in enumerate(spans)]
        events += [(r[3], 0, i) for i, r in enumerate(spans)]
        events.sort()
        self_t = [0.0] * len(spans)
        active_children = [0] * len(spans)
        active = [False] * len(spans)
        leaves: set[int] = set()
        prev = None
        for t, is_start, i in events:
            if prev is not None and leaves:
                share = (t - prev) / len(leaves)
                for j in leaves:
                    self_t[j] += share
            prev = t
            p = parent[i]
            if is_start:
                active[i] = True
                leaves.add(i)
                if p >= 0 and active[p]:
                    active_children[p] += 1
                    leaves.discard(p)
            else:
                active[i] = False
                leaves.discard(i)
                if p >= 0 and active[p]:
                    active_children[p] -= 1
                    if active_children[p] == 0:
                        leaves.add(p)

        by_name: dict[str, list[int]] = defaultdict(list)
        for i, r in enumerate(spans):
            by_name[r[0]].append(i)
        out = {}
        for name, ids in by_name.items():
            busy = 0.0
            end = float("-inf")
            for lo, hi in sorted((spans[i][2], spans[i][3]) for i in ids):
                if hi > end:
                    busy += hi - max(lo, end)
                    end = hi
            out[name] = {"calls": len(ids), "s": busy,
                         "self_s": sum(self_t[i] for i in ids)}
        return out

    def span_rows(self) -> list[dict]:
        index = {id(r): i for i, r in enumerate(self.spans)}
        return [{"id": i, "name": r[0],
                 "parent": index.get(id(r[1])) if r[1] is not None else None,
                 "start": r[2], "end": r[3], "case": r[4], "thread": r[5]}
                for i, r in enumerate(self.spans)]


# -- work counters, keyed by span name ----------------------------------------
# Each runs after its call returns, from the call's arguments and result.  A
# parent's counter takes what it needs from the child call it made, via
# ``Tracer._last``; a missing entry means the parent skipped that child and
# the count is left out.

def _generating_sequence(tr: Tracer, a, result) -> None:
    tr._last["generators"] = len(result.generators)


def _endomorphisms(tr: Tracer, a, result) -> None:
    k = tr._last.pop("generators", None)
    if k is not None:
        tr.counts["homset.endo_candidates"] += a["G"].n ** k
    tr.counts["homset.endos_found"] += len(result)
    tr._last["endos"] = len(result)


def _homs_power(tr: Tracer, a, result) -> None:
    k = tr._last.pop("endos", None)
    if k is not None:
        tr.counts["homset.hom_tuples"] += k ** a["d"]
    tr.counts["homset.homs_found"] += len(result)
    tr._last["homs"] = len(result)


def _best_agreement(tr: Tracer, a, result) -> None:
    k = tr._last.pop("homs", None)
    if k is not None:
        tr.counts["homset.homs_scored"] += k


def _count_solutions_exact(tr: Tracer, a, result) -> None:
    tr.counts["census.exact_triples"] += result.space_size


def _estimate_solutions(tr: Tracer, a, result) -> None:
    tr.counts["census.samples"] += result.samples


def _word_values(tr: Tracer, a, result) -> None:
    tr.counts["tables.word_cells"] += len(result)


def _random_family(tr: Tracer, a, result) -> None:
    tr.counts["familycheck.members_drawn"] += \
        result.i_size * _ceil(result.rho * result.x_size)


def _verify_lemma(tr: Tracer, a, result) -> None:
    tr.counts["familycheck.overlap_cells"] += result.i_size ** 2


def _build(tr: Tracer, a, result) -> None:
    tr.counts["group.elements"] += result.n


COUNTERS = {
    "homset.generating_sequence": _generating_sequence,
    "homset.endomorphisms": _endomorphisms,
    "homset.homs_power": _homs_power,
    "homset.best_agreement": _best_agreement,
    "census.count_solutions_exact": _count_solutions_exact,
    "census.estimate_solutions": _estimate_solutions,
    "tables.word_values": _word_values,
    "familycheck.random_family": _random_family,
    "familycheck.verify_lemma": _verify_lemma,
    "group.build": _build,
}
