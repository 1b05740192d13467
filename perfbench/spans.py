"""Layer spans recorded from outside the program.

`Tracer.install()` wraps the public functions of each `pwenum` layer and
rebinds every reference to them inside the `pwenum.*` namespaces, because
`cli` and `macwilliams` import those functions by name.  Each call becomes
a span (op, name, start, end, parent); spans stay in memory until the run
ends.  A span's self time is its duration minus that of its child spans.

Besides time, some wrappers count work from the call's inputs and outputs:
ambient words of the dual scan, |C|*q^n pairs of the byte transform,
|spectrum|*prod(n_j+1) cells of the complete transform, and weight-spectrum
calls repeated within one op.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from functools import wraps
from math import prod
from time import perf_counter_ns

LAYERS = {
    "rings": ("make_ring", "default_character"),
    "codes": ("span", "dual_code"),
    "enumerators": (
        "weight_spectrum",
        "byte_enumerator",
        "complete_level_enumerator",
        "level_enumerator",
        "mspotty_enumerator",
    ),
    "macwilliams": (
        "byte_transform",
        "complete_transform",
        "level_transform",
        "mspotty_transform",
        "verify_identity",
    ),
    "cli": ("main",),
}


class Tracer:
    """Collects spans and counts for one process."""

    def __init__(self):
        self.spans = []  # (op, name, start_ns, end_ns, parent index or -1)
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.code_sizes = []
        self.op = -1
        self._stack = []  # [span index, child ns] of open spans
        self.spectra_seen = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.spectra_seen.clear()

    def install(self) -> None:
        """Wrap every function in LAYERS wherever pwenum refers to it."""
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"pwenum.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original, _COUNTERS.get(name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "pwenum" or mod_name.startswith("pwenum."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, count):
        stack, spans = self._stack, self.spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (self.op, name, start, end, parent)
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_span(tracer, args, kwargs, code):
    tracer.code_sizes.append(code.size)


def _count_dual(tracer, args, kwargs, dual):
    code = _arg(args, kwargs, 0, "code")
    tracer.counts["codes.dual_code.ambient_words"] += code.ring.q**code.n
    tracer.counts["codes.dual_code.dual_words"] += dual.size


def _count_byte(tracer, args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    tracer.counts["macwilliams.byte_transform.pairs"] += code.size * code.ring.q**code.n


def _count_complete(tracer, args, kwargs, result):
    spectrum = _arg(args, kwargs, 0, "spectrum")
    levels = _arg(args, kwargs, 1, "levels")
    cells = len(spectrum) * prod(n + 1 for n in levels.sizes)
    tracer.counts["macwilliams.complete_transform.cells"] += cells


def _count_spectrum(tracer, args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    levels = _arg(args, kwargs, 1, "levels")
    key = (code.ring.q, code.n, code.size, code.generators, levels.sizes)
    if key in tracer.spectra_seen:
        tracer.counts["enumerators.weight_spectrum.repeats"] += 1
    tracer.spectra_seen.add(key)


_COUNTERS = {
    "span": _count_span,
    "dual_code": _count_dual,
    "byte_transform": _count_byte,
    "complete_transform": _count_complete,
    "weight_spectrum": _count_spectrum,
}
