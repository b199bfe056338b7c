"""Spans around calls into the library, recorded from outside it.

`Tracer` wraps every public function of the `cointssm` modules at every
module attribute it is bound to (so `cointssm.cli.canonicalize` and
`cointssm.realization.canonicalize` share one wrapper) and records a span
(name, start, end, parent, op id) per call. Spans stay in memory until
`dump` writes them out. `install`/`uninstall` swap the wrappers in and out,
so untraced ops run the unmodified functions. `install` also counts the
bytes that pass through the CSV files `cointssm.cli` opens.
"""

from __future__ import annotations

import builtins
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "cointssm"
NAME, START, END, PARENT, OP, FAILED, WORK = range(7)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _euler_substeps(fn, args, kwargs, out, originals):
    a = _arguments(fn, args, kwargs)
    burn_in = a["burn_in"]
    if burn_in is None:
        burn_in = originals["simulate.default_burn_in"](a["cf"], a["h"])
    return (a["n_steps"] + burn_in) * a["refinement"]


def _ecf_lag_rows(fn, args, kwargs, out, originals):
    a = _arguments(fn, args, kwargs)
    return out.shape[0] * (a["J"] if a["J"] is not None else a["dec"].truncation)


#: Work done by one call, in the unit the layer's rate metric counts.
WORK_COUNTERS = {
    "simulate.simulate_exact_gaussian": lambda fn, a, k, out, o: out.n_steps,
    "simulate.simulate_levy_euler": _euler_substeps,
    "kalman.filter_innovations": lambda fn, a, k, out, o: out[0].shape[0],
    "kalman.solve_steady_state": lambda fn, a, k, out, o: out.iterations,
    "ecf.ecf_residuals": _ecf_lag_rows,
}


class CountedFile:
    """A file handle that, on close, adds the bytes it moved to a tally: the
    OS-level file position of its unbuffered layer, after a flush."""

    def __init__(self, fh, tally: dict, key: str):
        self._fh, self._tally, self._key = fh, tally, key

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __iter__(self):
        return iter(self._fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        try:
            if not self._fh.closed:
                self._fh.flush()
                self._tally[self._key] += self._fh.buffer.raw.tell()
        finally:
            self._fh.close()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.csv_bytes = {"read": 0, "written": 0}
        self._cli = sys.modules[PACKAGE + ".cli"]
        self.op = -1
        self._stack: list[int] = []
        self._bindings = []  # (module, attribute, original, wrapper)
        self.originals: dict[str, object] = {}
        wrappers: dict[int, object] = {}
        for modname, module in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith(PACKAGE + ".")
                        or fn.__name__.startswith("_")):
                    continue
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    self.originals[name] = fn
                    wrappers[id(fn)] = self._wrap(fn, name)
                self._bindings.append((module, attr, fn, wrappers[id(fn)]))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = WORK_COUNTERS.get(name)
        originals = self.originals

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[END] = perf_counter()
                rec[FAILED] = True
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter()
            if counter is not None:
                rec[WORK] = counter(fn, args, kwargs, out, originals)
            return out

        traced.__wrapped__ = fn
        return traced

    def _open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if not str(file).endswith(".csv"):
            return fh
        key = "read" if mode.startswith("r") and "+" not in mode else "written"
        return CountedFile(fh, self.csv_bytes, key)

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        self._cli.open = self._open  # shadows the builtin for the cli module only

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        del self._cli.open

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover (spans of
        one thread nest, so children never overlap)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def dump(self, path: str, extra: dict):
        selfs = self.self_times()
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [{"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                 "parent": s[PARENT], "op": s[OP], "failed": s[FAILED],
                 "work": s[WORK], "self": st}
                for s, st in zip(self.spans, selfs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": rows}, fh)


class LayerStats:
    """Per-name aggregates over the spans of the traced ops.

    ``busy`` sums the durations of outermost calls of a name (a call nested
    in a call of the same name is not counted twice), ``calls`` counts every
    call, ``work`` sums the work counters, ``fail`` counts, per layer, calls
    that raised where their caller did not fail in the same layer, and
    ``cli_self`` sums the self time of the cli layer (the `cli` and
    `modeldoc` modules: argument parsing, documents, CSV/JSON formatting).
    """

    CLI_LAYERS = ("cli", "modeldoc")

    def __init__(self, spans: list[list], self_times: list[float]):
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.fail: dict[str, int] = {}
        self.cli_self = 0.0
        layer = [s[NAME].split(".", 1)[0] for s in spans]
        for i, s in enumerate(spans):
            name = s[NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.work[name] = self.work.get(name, 0) + s[WORK]
            p = s[PARENT]
            if s[FAILED] and not (p >= 0 and spans[p][FAILED] and layer[p] == layer[i]):
                self.fail[layer[i]] = self.fail.get(layer[i], 0) + 1
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                self.busy[name] = self.busy.get(name, 0.0) + s[END] - s[START]
            if layer[i] in self.CLI_LAYERS:
                self.cli_self += self_times[i]
