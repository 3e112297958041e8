"""Spans and counts recorded from the benchmark's own files.

``Tracer.installed()`` replaces the public functions at each module
boundary of the library with wrappers that record a span (name, start,
end, parent, work) and restores the originals on exit, so untraced
rounds run the library untouched.  A name bound at import time in another
module (``from .triple import sample_ordered_cyclic`` in ``mc``, say) is
replaced there too, so every call is intercepted.  The only calls no
wrapper can reach are the region masks that ``mc`` keeps in a dict of
function objects; their time is ``mc``'s self time.

Spans are kept in memory.  ``layer_metrics`` derives the per-layer
metrics of one round from them; self time is a span's duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from collections import Counter

from cyclictuples import cli, core, mc, ntuple, numeric, rng, triple

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name, start, parent, work):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work = work


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to the span that is open in
        # the main thread (mc.estimate submitting its chunks)
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name, fn, work=None, wrap_callable=None):
        """Wrapper recording a span per call.  ``work(args, kwargs)`` gives
        the span's work count; ``wrap_callable`` names the span recorded
        around each call of the function's first argument (integrands)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if wrap_callable is not None:
                args = (tracer.wrap(wrap_callable, args[0]),) + args[1:]
            stack = tracer._stack()
            span = Span(name, 0.0, tracer._parent(stack), work(args, kwargs) if work else 0)
            tracer.spans.append(span)
            stack.append(span)
            span.start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patches(self):
        """(owner, attribute, replacement) for every intercepted name."""
        first_len = lambda a, k: len(a[0])  # noqa: E731
        w = self.wrap
        words = w("rng.uniform_words", rng.uniform_words, work=lambda a, k: int(a[2]))
        sampler = w("triple.sample_ordered_cyclic", triple.sample_ordered_cyclic,
                    work=lambda a, k: int(a[0]))
        decide3 = w("triple.is_cyclic_triple", triple.is_cyclic_triple)
        simpson = w("numeric.adaptive_simpson", numeric.adaptive_simpson,
                    wrap_callable="triple.integrand")
        piecewise = w("numeric.integrate_piecewise", numeric.integrate_piecewise)
        bisect = w("numeric.bisect_root", numeric.bisect_root, wrap_callable="triple.callback")
        golden = w("numeric.golden_max", numeric.golden_max, wrap_callable="triple.callback")
        parse = w("core.parse_tuple", core.parse_tuple)
        return [
            (rng, "uniform_words", words),
            (mc, "estimate", w("mc.estimate", mc.estimate, work=lambda a, k: a[0].samples)),
            (mc, "_count_chunk", w("mc.chunk", mc._count_chunk)),
            (mc, "histogram", w("mc.histogram", mc.histogram)),
            (mc, "sample_ordered_cyclic", sampler),
            (triple, "sample_ordered_cyclic", sampler),
            (triple, "is_cyclic_triple", decide3),
            (ntuple, "is_cyclic_triple", decide3),
            (triple, "density", w("triple.density", triple.density)),
            (triple, "integrate_density", w("triple.integrate_density", triple.integrate_density)),
            (triple, "density_stats", w("triple.density_stats", triple.density_stats)),
            (numeric, "adaptive_simpson", simpson),
            (triple, "adaptive_simpson", simpson),
            (numeric, "integrate_piecewise", piecewise),
            (triple, "integrate_piecewise", piecewise),
            (numeric, "bisect_root", bisect),
            (triple, "bisect_root", bisect),
            (numeric, "golden_max", golden),
            (triple, "golden_max", golden),
            (ntuple, "decide_ntuple", w("ntuple.decide_ntuple", ntuple.decide_ntuple)),
            (ntuple, "build_witness", w("ntuple.build_witness", ntuple.build_witness,
                                        work=first_len)),
            (ntuple, "verify_witness", w("ntuple.verify_witness", ntuple.verify_witness,
                                         work=lambda a, k: len(a[1]))),
            (core, "parse_tuple", parse),
            (cli, "parse_tuple", parse),
            (core.WitnessSystem, "cycle_probabilities",
             w("core.cycle_probabilities", core.WitnessSystem.cycle_probabilities)),
            (core.ProbTuple, "__post_init__",
             self._count("core.ProbTuple", core.ProbTuple.__post_init__)),
            (cli, "main", w("cli.main", cli.main)),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def dump(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end, ids.get(id(s.parent), -1), s.work] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"], "spans": rows,
                       "counts": dict(self.counts)}, fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        cover = _covered((max(k.start, s.start), min(k.end, s.end)) for k in kids
                         if k.end > s.start and k.start < s.end)
        out[id(s)] = (s.end - s.start) - cover
    return out


def _under(span, name) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one round's spans.  A metric whose spans are
    absent is left out."""
    st = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def work(name):
        return sum(s.work for s in by_name.get(name, ()))

    def self_of(pred):
        return sum(st[id(s)] for s in spans if pred(s.name))

    def has(name):
        return name in by_name

    def enters(layer):
        return any(n.startswith(layer + ".") for n in by_name)

    m: dict[str, float] = {}
    if has("rng.uniform_words"):
        m["rng.words"] = work("rng.uniform_words")
        m["rng.words_per_s"] = work("rng.uniform_words") / dur("rng.uniform_words")
        m["rng.self_s"] = self_of(lambda n: n.startswith("rng."))
    if enters("mc"):
        m["mc.self_s"] = self_of(lambda n: n.startswith("mc."))
    if has("mc.estimate"):
        m["mc.rows_per_s"] = work("mc.estimate") / dur("mc.estimate")
    if has("triple.sample_ordered_cyclic"):
        rows = work("triple.sample_ordered_cyclic")
        drawn = sum(s.work for s in by_name.get("rng.uniform_words", ())
                    if _under(s, "triple.sample_ordered_cyclic"))
        m["triple.sampler.accepted_per_s"] = rows / dur("triple.sample_ordered_cyclic")
        m["triple.sampler.words_per_accepted"] = drawn / rows
        m["triple.sampler.self_s"] = self_of(lambda n: n == "triple.sample_ordered_cyclic")
    if has("triple.is_cyclic_triple"):
        m["triple.decide_per_s"] = len(by_name["triple.is_cyclic_triple"]) / dur(
            "triple.is_cyclic_triple")
    density_names = ("triple.density", "triple.integrate_density", "triple.density_stats")
    if any(has(n) for n in density_names):
        m["triple.density_s"] = sum(dur(n) for n in density_names)
    if has("numeric.adaptive_simpson"):
        m["numeric.integrand_evals"] = len(by_name.get("triple.integrand", ()))
    if enters("numeric"):
        m["numeric.self_s"] = self_of(lambda n: n.startswith("numeric."))
    if has("ntuple.decide_ntuple"):
        m["ntuple.decide_per_s"] = len(by_name["ntuple.decide_ntuple"]) / dur(
            "ntuple.decide_ntuple")
    if enters("ntuple"):
        m["ntuple.self_s"] = self_of(lambda n: n.startswith("ntuple."))
    for op in ("build_witness", "verify_witness"):
        name = f"ntuple.{op}"
        if has(name):
            m[f"ntuple.{op}_us_per_coord"] = 1e6 * dur(name) / work(name)
    if counts.get("core.ProbTuple"):
        m["core.probtuples_built"] = counts["core.ProbTuple"]
    if has("core.cycle_probabilities"):
        m["core.cycle_probabilities_s"] = dur("core.cycle_probabilities")
    if has("core.parse_tuple"):
        m["core.parse_per_s"] = len(by_name["core.parse_tuple"]) / dur("core.parse_tuple")
    if has("cli.main"):
        m["cli.self_s"] = self_of(lambda n: n.startswith("cli."))
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    names = set().union(*rounds) if rounds else set()
    return {n: statistics.median(r[n] for r in rounds if n in r) for n in sorted(names)}
