"""Span recording around every public function of the package's modules.

The benchmark records spans from its own code: each public function (and
each public method of a public class) of a package module is replaced, in
every module namespace that holds it, by a wrapper that records name,
start, end, parent span and command id.  Spans stay in memory until the run
ends.  Self time is a span's duration minus the time its children cover;
calls are sequential, so that is the sum of the child durations.
"""

import functools
import inspect
import time

LAYERS = ("cli", "ising", "magchain", "spectral", "perturbation",
          "verification", "mcmc", "reports")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _sim_work(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return a["params"].n * (a["steps"] + a["burn_in"])


def _dense_bytes(fn, args, kwargs, result):
    # Computed, not measured: one float64 matrix of side 2^n.
    return 8 * 4 ** _bound(fn, args, kwargs)["params"].n


def _text_bytes(fn, args, kwargs, result):
    return len(result)


# Work counted at a span besides its time, keyed by qualified name.
WORK = {
    "mcmc.simulate_reduced": _sim_work,
    "mcmc.simulate_full": _sim_work,
    "ising.full_transition_matrix": _dense_bytes,
    "reports.sweep_to_csv": _text_bytes,
    "reports.sweep_to_json": _text_bytes,
    "reports.trajectory_to_csv": _text_bytes,
}


class Tracer:
    """Installs span-recording wrappers and collects the spans.

    A span is the tuple (id, parent id, command id, name, start, end, self
    seconds, work).  ``install``/``uninstall`` swap the wrappers in and out
    so untraced commands run the unmodified functions.
    """

    def __init__(self, package):
        self.spans = []
        self.command = None
        self._stack = []   # [span id, child seconds] of open spans
        self._next_id = 0
        self._swaps = []   # (owner, attribute, original, wrapper)
        self._plan(package)

    def _plan(self, package):
        modules = [package] + [getattr(package, m) for m in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._plan_methods(layer, obj)
        for mod in modules:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._swaps.append((mod, name, obj, wrappers[obj]))

    def _plan_methods(self, layer, cls):
        for name, attr in vars(cls).items():
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(qual, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(qual, attr)
            else:
                continue
            self._swaps.append((cls, name, attr, wrapped))

    def _wrap(self, qual, fn):
        work = WORK.get(qual)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                w = work(fn, args, kwargs, result) if work and result is not None else 0
                spans.append((sid, parent, self.command, qual, start, end,
                              dur - frame[1], w))
        return wrapper

    def install(self):
        for owner, name, _, wrapped in self._swaps:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original, _ in self._swaps:
            setattr(owner, name, original)
