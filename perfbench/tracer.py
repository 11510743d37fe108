"""Spans and call counters recorded from outside csrt.

A Tracer wraps public functions of csrt's modules (and the grad functions
the lattice losses hand to autodiff.record_custom) while it is installed,
and restores them on uninstall. Nothing under src/ is changed.

Untimed, it only counts calls; that is what an end-to-end run uses, so its
cost is one dict update per counted call. Timed, every wrapped call is a
span with a start, a duration and its self time (duration minus the spans
it encloses). Spans are held in a segment buffer until the benchmark closes
the segment with a kind, e.g. "step" or "validate", so the training loop's
log lines can classify the work done before them; the segment totals are
then folded into (context, kind, span) aggregates.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self, timed):
        self.timed = timed
        self.ctx = "setup"
        self.calls = Counter()  # span name -> calls since the last take_calls()
        self.notes = Counter()  # free counters, e.g. tape nodes
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (ctx, kind, name) -> calls, total, self
        self.segments = Counter()  # (ctx, kind) -> closed segments
        self.top = 0.0  # summed duration of outermost spans
        self._stack = []  # [name, child seconds] per open span
        self._segment = []  # (name, duration, self) not yet classified
        self._undo = []

    # --- installing wrappers -------------------------------------------

    def wrap_function(self, module, attr, name, before=None):
        """Wrap module.attr everywhere csrt refers to it by that object."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        new = self._wrapper(name, orig, before)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "csrt":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def wrap_method(self, cls, attr, name):
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        setattr(cls, attr, self._wrapper(name, orig, None))
        self._undo.append((cls, attr, orig))

    def wrap_custom_grads(self, autodiff):
        """Time each hand-written grad function as '<loss>_bwd' of the loss recording it."""
        orig = autodiff.record_custom

        def record_custom(out_data, inputs, grad_fn):
            owner = self._stack[-1][0] if self._stack else "autodiff.custom"
            name = owner[:-4] + "_bwd" if owner.endswith("_fwd") else owner + "_grad"
            return orig(out_data, inputs, self._wrapper(name, grad_fn, None))

        autodiff.record_custom = record_custom
        self._undo.append((autodiff, "record_custom", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrapper(self, name, fn, before):
        calls = self.calls
        if not self.timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                if before is not None:
                    before(*args, **kwargs)
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        segment = self._segment

        def timed(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top += dur
                segment.append((name, dur, dur - frame[1]))

        return timed

    # --- reading ------------------------------------------------------

    def close_segment(self, kind):
        """Fold the spans recorded since the last close into (ctx, kind) totals."""
        self.segments[self.ctx, kind] += 1
        for name, dur, own in self._segment:
            cell = self.agg[self.ctx, kind, name]
            cell[0] += 1
            cell[1] += dur
            cell[2] += own
        self._segment.clear()

    def set_ctx(self, ctx):
        self.close_segment("other")
        self.ctx = ctx

    def take_calls(self):
        out = dict(self.calls)
        self.calls.clear()
        return out

    def total(self, name, ctx=None, kind=None, field=1):
        """Summed calls (field 0), duration (1) or self time (2) over matching aggregates."""
        return sum(
            cell[field]
            for (c, k, n), cell in self.agg.items()
            if n == name and (ctx is None or c == ctx) and (kind is None or k == kind)
        )

    def self_by_layer(self):
        out = Counter()
        for (_, _, name), cell in self.agg.items():
            out[name.partition(".")[0]] += cell[2]
        return out
