"""Outside-in tracer for the gatt package.

The tracer patches the package at run time and restores it afterwards; no
file under ``src/`` knows about it.  It wraps

* every public function of ``gatt.tensor``, ``gconv``, ``attention``,
  ``groups``, ``autodiff`` and ``verify``, under the name ``<module>.<fn>``,
  in every ``gatt`` module that imported it by name;
* ``autodiff.Adam.step``, under ``autodiff.Adam.step``;
* ``forward`` of every ``gatt.nn`` layer class, under ``nn.<Class>``.

Each call is a span (name, parent, start, end, phase).  Spans stay in memory
and are written out by ``write_spans``.  While a span is open the tracer
notes the active tape's record count, so afterwards every tape record knows
the chain of spans that appended it.  ``autodiff.backward`` is wrapped to
time each record's backward function and charge it to that chain: in full
to every span name in the chain (inclusive time), and as self time to the
innermost one.
"""
from __future__ import annotations

import functools
import inspect
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("tensor", "gconv", "attention", "groups", "autodiff", "verify")
# Called inside every tape append; a span there would trace the tracer.
UNTRACED = {"tensor.active_tape"}
# Spans whose output size is recorded, as MiB of the returned tensor.
OUT_BYTES = {"gconv.intermediate_responses"}
# Spans kept for write_spans; later spans are aggregated only.  A traced
# verify-suite pass opens about a million spans.
SPAN_CAP = 200_000


class Patcher:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement, modules):
        """Point every module-level name bound to `original` at `replacement`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def gatt_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gatt" or name.startswith("gatt."))]


class Aggregate:
    """Per-phase totals by span name, filled as spans close."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.fwd = defaultdict(float)       # inclusive forward seconds
        self.self_fwd = defaultdict(float)
        self.bwd = defaultdict(float)       # inclusive backward seconds
        self.self_bwd = defaultdict(float)
        self.out_bytes = defaultdict(int)
        self.block_peak_bytes = 0           # largest tape growth inside one nn.GBlock
        self.records = 0                    # tape records replayed by backward
        self.record_bytes = 0               # bytes of their outputs


class Tracer:
    """Install with ``install()``, set ``phase`` around the work to attribute,
    then ``uninstall()``.  Spans opened while ``phase`` is None are kept but
    not aggregated."""

    def __init__(self):
        from gatt import tensor
        self._active_tape = tensor.active_tape
        self.phase = None
        self.by_phase = defaultdict(Aggregate)
        self._patcher = Patcher()
        self._names = {}
        self._name_list = []
        self._phases = {None: 0}
        self._phase_list = [None]
        # compact span store: name id, parent index, phase id, start, duration
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_phase = array("i")
        self._span_start = array("d")
        self._span_dur = array("d")
        self._next = 0                      # spans opened so far
        self._stack = []                    # open span indices
        self._child = defaultdict(float)    # open span index -> child seconds
        self._open = defaultdict(int)       # name -> open spans of that name
        self._owners = weakref.WeakKeyDictionary()  # tape -> chain per record

    # -- installation -------------------------------------------------------

    def install(self):
        import gatt
        from gatt import autodiff, nn
        mods = gatt_modules()
        for short in TRACED_MODULES:
            mod = getattr(gatt, short)
            for fname, fn in list(vars(mod).items()):
                name = f"{short}.{fname}"
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                if name == "autodiff.backward":
                    wrapped = self._wrap_backward(fn)
                else:
                    wrapped = self._wrap(name, fn)
                self._patcher.replace_everywhere(fn, wrapped, mods)
        self._patcher.set(autodiff.Adam, "step",
                          self._wrap("autodiff.Adam.step", autodiff.Adam.step))
        for cname, cls in vars(nn).items():
            if (inspect.isclass(cls) and cls.__module__ == nn.__name__
                    and "forward" in vars(cls)):
                self._patcher.set(cls, "forward", self._wrap(f"nn.{cname}", cls.forward))
        return self

    def uninstall(self):
        self._patcher.restore()

    # -- spans --------------------------------------------------------------

    def _id(self, table, lst, key):
        i = table.get(key)
        if i is None:
            i = table[key] = len(lst)
            lst.append(key)
        return i

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)
        return traced

    def _call(self, name, fn, args, kwargs):
        tape = self._active_tape()
        lo = len(tape.records) if tape is not None else 0
        idx = self._next
        self._next += 1
        if idx < SPAN_CAP:
            self._span_name.append(self._id(self._names, self._name_list, name))
            self._span_parent.append(self._stack[-1] if self._stack else -1)
            self._span_phase.append(self._id(self._phases, self._phase_list, self.phase))
            self._span_start.append(0.0)
            self._span_dur.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            self._open[name] -= 1
            if idx < SPAN_CAP:
                self._span_start[idx] = t0
                self._span_dur[idx] = dur
            child = self._child.pop(idx, 0.0)
            if self._stack:
                self._child[self._stack[-1]] += dur
            if tape is not None and tape is self._active_tape():
                hi = len(tape.records)
                if hi > lo:
                    self._claim(tape, lo, hi, name)
            else:
                hi = lo
            if self.phase is not None:
                agg = self.by_phase[self.phase]
                agg.calls[name] += 1
                agg.self_fwd[name] += dur - child
                if self._open[name] == 0:
                    agg.fwd[name] += dur
                if name == "nn.GBlock" and hi > lo:
                    grown = sum(out.data.nbytes for _, out in tape.records[lo:hi])
                    agg.block_peak_bytes = max(agg.block_peak_bytes, grown)
        if self.phase is not None and name in OUT_BYTES:
            self.by_phase[self.phase].out_bytes[name] += result.data.nbytes
        return result

    def _claim(self, tape, lo, hi, name):
        chains = self._owners.get(tape)
        if chains is None:
            chains = self._owners[tape] = []
        while len(chains) < hi:
            chains.append([])
        for i in range(lo, hi):
            if name not in chains[i]:
                chains[i].append(name)   # inner spans close first

    # -- backward -----------------------------------------------------------

    def _wrap_backward(self, backward):
        tracer = self

        @functools.wraps(backward)
        def traced_backward(tape, loss):
            records = tape.records
            chains = tracer._owners.get(tape, [])
            agg = tracer.by_phase[tracer.phase] if tracer.phase is not None else None
            if agg is not None:
                agg.records += len(records)
                agg.record_bytes += sum(out.data.nbytes for _, out in records)
            tape.records = [(tracer._timed(fn, chains[i] if i < len(chains) else (), agg),
                             out) for i, (fn, out) in enumerate(records)]
            try:
                return tracer._call("autodiff.backward", backward, (tape, loss), {})
            finally:
                tape.records = records
        return traced_backward

    @staticmethod
    def _timed(fn, chain, agg):
        if agg is None:
            return fn

        def timed():
            t0 = perf_counter()
            fn()
            dt = perf_counter() - t0
            for name in chain:
                agg.bwd[name] += dt
            agg.self_bwd[chain[0] if chain else "(untraced)"] += dt
        return timed

    # -- output -------------------------------------------------------------

    @property
    def span_count(self):
        return self._next

    def write_spans(self, path):
        """Tab-separated spans: index, parent, phase, name, start_us, dur_us.

        Only the first SPAN_CAP spans are written."""
        t_base = self._span_start[0] if len(self._span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("index\tparent\tphase\tname\tstart_us\tdur_us\n")
            for i in range(len(self._span_dur)):
                fh.write(f"{i}\t{self._span_parent[i]}\t"
                         f"{self._phase_list[self._span_phase[i]]}\t"
                         f"{self._name_list[self._span_name[i]]}\t"
                         f"{(self._span_start[i] - t_base) * 1e6:.1f}\t"
                         f"{self._span_dur[i] * 1e6:.1f}\n")

    def summary(self, phase):
        """{name: {calls, fwd_s, self_fwd_s, bwd_s, self_bwd_s}} for one phase."""
        agg = self.by_phase[phase]
        names = set(agg.calls) | set(agg.self_bwd)
        return {n: {"calls": agg.calls.get(n, 0), "fwd_s": agg.fwd.get(n, 0.0),
                    "self_fwd_s": agg.self_fwd.get(n, 0.0), "bwd_s": agg.bwd.get(n, 0.0),
                    "self_bwd_s": agg.self_bwd.get(n, 0.0)} for n in sorted(names)}
