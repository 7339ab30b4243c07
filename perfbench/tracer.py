"""In-process tracer for the traced benchmark run.

``install`` replaces each traced library function, in every loaded
``bowforge`` module that holds it, with a wrapper; ``uninstall`` puts
every original back and raises if one did not go back.  Spans (name,
start, end, parent) sit in flat arrays until ``summary`` folds them
into per-function calls, total time and self time.  Self time is a
span's duration minus the durations of its direct child spans.

Functions in ``COUNTED`` are called too often for a span each; their
wrappers only count.  While ``on`` is False (the benchmark is checking
outputs) the wrappers pass straight through.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import bowforge as bf

# (module, function) pairs that get a span per call
SPANNED = (
    ("diagram", "separated_view"),
    ("diagram", "validate"),
    ("diagram", "parse_diagram"),
    ("rewrite", "separate"),
    ("rewrite", "normalize_gap"),
    ("rewrite", "full_pass"),
    ("susy", "decide_supersymmetry"),
    ("susy", "reduce_to_finite"),
    ("susy", "check_finite_separated"),
    ("branes", "synthesize"),
    ("branes", "synthesize_finite"),
    ("branes", "ledger_apply_move"),
    ("branes", "coverage"),
    ("weights", "stratum_check_affine"),
    ("momentmap", "construct_solution"),
    ("momentmap", "transport_hw_solution"),
    ("momentmap", "extend_increment"),
    ("momentmap", "solve_lm"),
    ("momentmap", "stability_report"),
)
# (module, function or Class.method) pairs that are only counted
COUNTED = (
    ("diagram", "BowDiagram.position"),
    ("rewrite", "apply_hw"),
    ("weights", "transpose_gyd"),
    ("momentmap", "solve_numeric"),
    ("momentmap", "residual_blocks"),
)


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in SPANNED]
        self.counted = [f"{mod}.{fn}" for mod, fn in COUNTED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = [0] * len(COUNTED)
        self.decide_calls = 0
        self.decide_moves = 0
        self.decide_aborts = 0
        self.on = True
        self.patched = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, idx: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe_certificate if fn is _original("susy", "decide_supersymmetry") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_wrapper(self, idx: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_certificate(self, cert) -> None:
        self.decide_calls += 1
        self.decide_moves += len(cert.pipeline)
        self.decide_aborts += isinstance(cert.witness, bf.NegativeWitness)

    # -- install and restore ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items() if name == "bowforge" or name.startswith("bowforge.")]
        for idx, (mod, fn) in enumerate(SPANNED):
            orig = _original(mod, fn)
            self._replace_everywhere(modules, orig, self._span_wrapper(idx, orig))
        for idx, (mod, fn) in enumerate(COUNTED):
            owner, attr = _owner(mod, fn)
            orig = vars(owner)[attr]
            if isinstance(owner, type):
                self._patch(owner, attr, orig, self._count_wrapper(idx, orig))
            else:
                self._replace_everywhere(modules, orig, self._count_wrapper(idx, orig))

    def _replace_everywhere(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patch(module, attr, orig, wrapper)

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        """Put every original back, then confirm that each one is back."""

        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches if vars(o)[a] is not orig]
        if stale:
            raise RuntimeError(f"tracer left wrappers in place: {stale}")
        self.patched = len(self._patches)
        self._patches = []

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total seconds and self seconds; per counted name: calls."""

        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        own = [0.0] * n
        names, parents = self.span_name, self.span_parent
        for sid in range(len(names)):
            dur = self.span_end[sid] - self.span_start[sid]
            name = names[sid]
            calls[name] += 1
            total[name] += dur
            own[name] += dur
            if parents[sid] >= 0:
                own[names[parents[sid]]] -= dur
        out = {name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]} for i, name in enumerate(self.names)}
        for i, name in enumerate(self.counted):
            out[name] = {"calls": self.counts[i]}
        return out


def _owner(mod: str, fn: str):
    module = sys.modules[f"bowforge.{mod}"]
    if "." in fn:
        cls, attr = fn.split(".")
        return getattr(module, cls), attr
    return module, fn


def _original(mod: str, fn: str):
    owner, attr = _owner(mod, fn)
    return vars(owner)[attr]
