"""Span recorder that wraps fluctwalk's public functions at run time.

Nothing in the package changes: :meth:`Recorder.install` replaces every
public function of every ``fluctwalk.*`` module with a timing wrapper, in
every ``fluctwalk`` namespace that holds it (``certify.iter_paths`` as well
as ``oracle.iter_paths``), and :meth:`Recorder.uninstall` puts the originals
back.  A function's self time is its duration minus the durations of the
wrapped calls made inside it, so the self times of all functions plus the
benchmark's own root frame add up to the traced wall time.

Per-element functionals (every function of ``fluctuation``, ``transforms``
and ``increments``, and the kernel row lookup) run once per path or per
state, so they are only aggregated under their parent; every other call is
also kept as a span record ``(name, parent, start, end)`` in memory.
Generators (``iter_paths``) are timed inside each ``next()``.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench"
AGGREGATE_MODULES = ("fluctwalk.fluctuation", "fluctwalk.transforms",
                     "fluctwalk.increments")
AGGREGATE_FUNCTIONS = ("fluctwalk.conditioning.h_kernel_row",)
ELEMENT_MODULES = ("fluctwalk.fluctuation", "fluctwalk.transforms")


def _path_len(x) -> int:
    vals = getattr(x, "values", x)
    try:
        return len(vals)
    except TypeError:
        return 0


class Recorder:
    """Per-function call counts, total and self seconds, and named counters."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.by_parent = defaultdict(lambda: [0, 0.0])    # (parent, name) -> calls, self
        self.counts = defaultdict(float)
        self.spans = []
        self._stack = []
        self._patched = []

    # -- frames ---------------------------------------------------------

    def _push(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, start, end, span):
        dur = end - start
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else ""
        own = dur - frame[1]
        st = self.stats[frame[0]]
        st[0] += 1
        st[1] += dur
        st[2] += own
        bp = self.by_parent[(parent, frame[0])]
        bp[0] += 1
        bp[1] += own
        if self._stack:
            self._stack[-1][1] += dur
        if span:
            self.spans.append((frame[0], parent, start, end))

    @contextmanager
    def root(self):
        """The benchmark's own frame around a pass."""
        frame = self._push(ROOT)
        start = perf_counter()
        try:
            yield
        finally:
            self._pop(frame, start, perf_counter(), True)

    # -- wrappers -------------------------------------------------------

    def _observer(self, name):
        """Counter updates computed from a call's arguments and result."""
        counts = self.counts
        if name.startswith(ELEMENT_MODULES):
            def obs(args, kwargs, result):
                if args:
                    counts[name.split(".")[1] + ".elems"] += _path_len(args[0])
            return obs
        if name == "fluctwalk.increments.sample_steps":
            def obs(args, kwargs, result):
                counts["increments.steps_drawn"] += len(result)
            return obs
        if name == "fluctwalk.conditioning.survival_sequence":
            def obs(args, kwargs, result):
                law = args[0] if args else kwargs["law"]
                _, steps, probs = law.lattice_integer_form()
                up = max([s for s, p in zip(steps, probs) if p > 0 and s > 0], default=0)
                K = max(result)
                # levels 0..j*up can hold mass after j steps: sum over j < K
                counts["conditioning.level_steps"] += K + up * K * (K - 1) // 2
            return obs
        if name == "fluctwalk.experiments.windowed_ladder_pairs":
            def obs(args, kwargs, result):
                n = len(result[0])
                counts["experiments.windows"] += n
                counts["experiments.windows_resampled"] += result[2] * n
            return obs
        if name == "fluctwalk.stats.ks_statistic":
            def obs(args, kwargs, result):
                sample = args[0]
                ref = args[1] if len(args) > 1 else kwargs.get("reference")
                counts["stats.ks_samples"] += sample.size + (
                    0 if callable(ref) else ref.size)
            return obs
        return None

    def _wrap(self, fn, name):
        push, pop = self._push, self._pop
        span = not (name.startswith(AGGREGATE_MODULES) or name in AGGREGATE_FUNCTIONS)
        observe = self._observer(name)
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            yields = name + ".yields"

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = push(name)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        pop(frame, start, perf_counter(), False)
                    counts[yields] += 1
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = push(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame, start, perf_counter(), span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self, package: str = "fluctwalk") -> None:
        """Wrap every public function of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith(package + "."):
                    continue
                if obj.__name__.startswith("_"):
                    continue
                key = id(obj)
                if key not in wrapped:
                    wrapped[key] = self._wrap(obj, f"{owner}.{obj.__name__}")
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrapped[key])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- summaries ------------------------------------------------------

    def layer_self(self) -> dict:
        """Self seconds per module (``cli``, ``oracle``, ...) and the root."""
        out = defaultdict(float)
        for name, (_, _, own) in self.stats.items():
            out[name.split(".")[1] if name != ROOT else ROOT] += own
        return out

    def layer_calls(self) -> dict:
        out = defaultdict(int)
        for name, (calls, _, _) in self.stats.items():
            if name != ROOT:
                out[name.split(".")[1]] += calls
        return out

    def self_of(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls_of(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_under(self, parents, name) -> float:
        return sum(v[1] for (p, n), v in self.by_parent.items()
                   if n == name and p in parents)

    def calls_under(self, parents, name) -> int:
        return sum(v[0] for (p, n), v in self.by_parent.items()
                   if n == name and p in parents)
