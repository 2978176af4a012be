"""In-memory spans and counters around the package's public entry points.

The program is not edited: ``Tracer.installed()`` replaces module
attributes with wrappers for the duration of a pass and restores them
afterwards. A function is wrapped where its caller looks it up, e.g. the
latch drive is ``sequence.run_until`` for scenarios and ``exo.run_until``
for the joint lock.

Two modes keep per-step wrapper cost out of the timed numbers:
- "spans" records (name, start, end, parent, op id) at layer boundaries;
- "count" counts calls at the same boundaries and also wraps
  ``latch.motor_operating_point``, which runs twice per drive step.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, layer)
BOUNDARIES = (
    ("lammos.cli", "main", "cli.main", "cli"),
    ("lammos.sequence", "run_scenario", "sequence.run_scenario", "sequence"),
    ("lammos.sequence", "validate", "sequence.validate", "sequence"),
    ("lammos.sequence", "snapshot_hash", "sequence.snapshot_hash", "sequence"),
    ("lammos.sequence", "run_until", "sequence.run_until", "latch"),
    ("lammos.exo", "run_until", "exo.run_until", "latch"),
    ("lammos.sequence", "wall_press", "dewalop.wall_press", "dewalop"),
    ("lammos.sequence", "lower_leg", "dewalop.lower_leg", "dewalop"),
    ("lammos.dewalop", "leg_load_path", "dewalop.leg_load_path", "dewalop"),
    ("lammos.exo", "build_joint", "exo.build_joint", "exo"),
    ("lammos.exo", "energy_comparison", "exo.energy_comparison", "exo"),
    ("lammos.exo", "latch_energy", "exo.latch_energy", "exo"),
)
LAYER = {name: layer for _, _, name, layer in BOUNDARIES}
DRIVES = ("sequence.run_until", "exo.run_until")


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("spans", "count"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.op_id = 0
        self.spans: list = []      # (name, start, end, parent index, op id)
        self._stack: list = []
        self.calls: Counter = Counter()
        self.steps = 0             # latch drive steps (= trace samples)
        self.sim_s = 0.0           # simulated seconds driven
        self.samples = 0           # trace samples run_scenario hands back
        self.events = 0            # scenario event-log entries
        self.drives_requested = 0  # leg latches a scenario asked to drive

    def _wrap(self, fn, name):
        if self.mode == "count":
            def counting(*args, **kwargs):
                self.calls[name] += 1
                result = fn(*args, **kwargs)
                self._count_result(name, args, result)
                return result
            return counting

        spans, stack = self.spans, self._stack

        def spanning(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if name in DRIVES:
                self.steps += len(result[1].samples)
                self.sim_s += len(result[1].samples) * args[2]
            return result
        return spanning

    def _count_result(self, name, args, result):
        if name in DRIVES:
            self.steps += len(result[1].samples)
        elif name == "sequence.run_scenario":
            unit, log, _, traces = result
            self.events += len(log.entries)
            self.samples += sum(len(trace.samples) for _, trace in traces)
            self.drives_requested += len(traces) * len(unit.legs)

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for module_name, attr, name, _ in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            if self.mode == "count":
                latch = importlib.import_module("lammos.latch")
                original = latch.motor_operating_point
                patched.append((latch, "motor_operating_point", original))

                def operating_point(*args, **kwargs):
                    # Counts operating points computed; an out-of-range
                    # voltage that raises computes none.
                    result = original(*args, **kwargs)
                    self.calls["mechlib.motor_operating_point"] += 1
                    return result
                latch.motor_operating_point = operating_point
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> dict:
        """Per span name: (total duration, total self time, count)."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child[index]
            entry[2] += 1
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
