#!/usr/bin/env python3
"""lammos benchmark: seeded workloads, checked outputs, metrics by name.

    python3 perfbench/run.py --workload insertion_roundtrip --seed 1 \
        --seconds 40 --trace 0

Run from the repository root. The package is imported from ``src/``; the
program only ever sees the generated documents. Everything runs in this
process on one thread, except the fresh interpreters that time set-up.
Outputs go to ``.perfbench_out/<workload>/``.

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 first
counts work on the seed's first block (with a wrapper inside the drive
loop), then alternates untraced and span-traced executions of the same
operations, and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER, Tracer  # noqa: E402

SETUP_REPEATS = 11  # at least this many set-up interpreters per run
REPIN_S = 0.5
TAIL_BEYOND = 10       # samples that must lie beyond the tail percentile
TAIL_MIN_SAMPLES = 40  # below this, the tail is reported as the maximum
TAIL_MAX_PCT = 90.0    # above this, disk and host stalls set the value
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import lammos.cli
from lammos import defaults, dewalop
defaults.defaults_as_dict()
dewalop.default_unit()
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "latch.run_until_s": "s/op",
    "latch.steps": "count/op",
    "latch.ns_per_step": "ns/step",
    "latch.sim_s_per_host_s": "ratio",
    "latch.samples": "count/op",
    "mechlib.operating_point_calls": "count/op",
    "mechlib.operating_point_calls_per_step": "ratio",
    "cli.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "sequence.self_s": "s/op",
    "sequence.snapshot_hash_calls": "count/op",
    "sequence.snapshot_hash_s": "s/op",
    "sequence.events": "count/op",
    "sequence.latch_drives_requested": "count/op",
    "sequence.latch_memo_hit_ratio": "ratio",
    "dewalop.calls": "count/op",
    "dewalop.s": "s/op",
    "exo.energy_comparison_s": "s/op",
    "exo.latch_energy_s": "s/op",
    "exo.self_s": "s/op",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    latency: float
    value: object = None
    error: Optional[BaseException] = None
    stdout: str = ""
    stderr: str = ""


class Runner:
    """Executes operations against the package and checks their results."""

    def __init__(self, workload: str):
        self.base = ROOT / ".perfbench_out" / workload
        self.out = self.base / "out"
        self.doc = self.base / "in" / "doc.json"
        shutil.rmtree(self.base, ignore_errors=True)
        self.doc.parent.mkdir(parents=True)
        self.cli = importlib.import_module("lammos.cli")
        self.exo = importlib.import_module("lammos.exo")
        self.problems: list[str] = []  # failures of well-formed ops
        self.latencies = array("d")
        self.kinds: list[str] = []  # op kind of each latency
        self.failed = 0
        self.malformed = 0

    def _reset_outputs(self):
        for path in self.base.iterdir():
            if path.is_dir() and path != self.doc.parent:
                shutil.rmtree(path)
            elif path.is_file():
                path.unlink()
        self.out.mkdir()

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.base.rglob("*")
                   if p.is_file() and p.parent != self.doc.parent)

    def execute(self, op) -> Outcome:
        if op.call == "exo":
            start = perf_counter()
            try:
                joint, timeline, lock_at = self.exo.build_joint(op.doc)
                value = self.exo.energy_comparison(joint, timeline, lock_at,
                                                   dt=op.doc["dt_s"])
            except Exception as exc:  # a crash is a failed op, not a harness error
                return Outcome(perf_counter() - start, error=exc)
            return Outcome(perf_counter() - start, value)
        self._reset_outputs()
        self.doc.write_text(json.dumps(op.doc))
        argv = [a.replace("{doc}", str(self.doc)).replace("{out}", str(self.out))
                for a in op.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        value = error = None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = perf_counter()
            try:
                value = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a harness error
                error = exc
            latency = perf_counter() - start
        return Outcome(latency, value, error, stdout.getvalue(), stderr.getvalue())

    def run_checked(self, op) -> float:
        """Execute, check and tally one op; returns its latency."""
        outcome = self.execute(op)
        problems = checker.check(op, outcome, self.out)
        if problems and not op.malformed:
            self.problems.append(f"{op.kind}: {problems[0]}")
        self.latencies.append(outcome.latency)
        self.kinds.append(op.kind)
        self.failed += bool(problems)
        self.malformed += op.malformed
        return outcome.latency


def loop_blocks(block_iter, seconds, run_block):
    """Run whole blocks, stopping at the boundary nearest to ``seconds``."""
    start = perf_counter()
    durations = []
    while True:
        block_start = perf_counter()
        run_block(next(block_iter))
        durations.append(perf_counter() - block_start)
        if perf_counter() - start + 0.5 * statistics.median(durations) >= seconds:
            return


def tail(latencies):
    """The highest percentile, at most TAIL_MAX_PCT, with at least
    TAIL_BEYOND samples beyond it; the maximum for small samples.

    Returns (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_MAX_PCT) / 100.0))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def ops_per_s(runner) -> float:
    """Completed ops per host second spent inside the ops, with each op's
    time taken as the median latency of its kind over the run.

    Every run executes whole blocks of one fixed mix of kinds, so this is
    the completed ops of a block over the time a typical block takes. A
    stall of the host lengthens one op and moves a plain sum by its full
    length; here it moves one kind's median by at most one rank."""
    by_kind = defaultdict(list)
    for kind, latency in zip(runner.kinds, runner.latencies):
        by_kind[kind].append(latency)
    typical_s = sum(statistics.median(v) * len(v) for v in by_kind.values())
    return (len(runner.latencies) - runner.failed) / typical_s


def setup_once() -> float:
    """Time for a fresh interpreter to import lammos.cli and build the
    defaults."""
    proc = subprocess.run([sys.executable, "-E", "-s", "-c",
                           SETUP_CODE.format(src=str(SRC))], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr}")
    return float(proc.stdout)


def _read(path, default="unknown"):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo", "").splitlines()
                if line.startswith("model name")), "unknown")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg_start": " ".join(_read("/proc/loadavg").split()[:3])}


def _probe_loop(iterations=100_000):
    start = perf_counter()
    total = 0.0
    for i in range(iterations):
        total += i * 0.5
    return perf_counter() - start


class CpuPinner:
    """Keeps this process (and the set-up interpreters it starts) on the
    CPU that is fastest now.

    On shared virtual machines the CPUs offered to a guest can differ in
    speed by 1.3-1.6x at the same moment, and which one is faster changes
    within seconds; letting the scheduler place the process shows up as
    run-to-run noise. A short probe loop on each allowed CPU picks one, and
    ``repin`` repeats the probe between ops, at most every REPIN_S seconds.
    Only this process's affinity changes.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = None
        self.switches = 0
        self.last = float("-inf")
        self.probe_s = {}

    def pin(self, rounds=1):
        best = {cpu: float("inf") for cpu in self.cpus}
        for _ in range(rounds):
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                best[cpu] = min(best[cpu], _probe_loop())
        choice = min(best, key=best.get)
        os.sched_setaffinity(0, {choice})
        self.switches += self.cpu is not None and choice != self.cpu
        self.cpu, self.probe_s, self.last = choice, best, perf_counter()

    def repin(self):
        if perf_counter() - self.last >= REPIN_S:
            self.pin()

    def stamp(self) -> dict:
        return {"pinned_cpu": self.cpu, "cpu_switches": self.switches,
                "cpu_probe_s": self.probe_s}


def untraced(runner, blocks, seconds, pinner):
    """Runs the ops for ``seconds`` and starts the set-up interpreters
    between blocks, spread evenly over the run, so that a short fast or
    slow period of the host sets no more than a few of them."""
    setup_once()  # warms the bytecode cache
    setup_samples = []
    interval = seconds / SETUP_REPEATS
    next_setup = perf_counter()

    def run_block(block):
        nonlocal next_setup
        if perf_counter() >= next_setup:
            pinner.repin()
            setup_samples.append(setup_once())
            next_setup += interval
        for op in block:
            pinner.repin()
            runner.run_checked(op)
    loop_blocks(blocks(), seconds, run_block)
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup_once())
    latencies = runner.latencies
    n = len(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s(runner),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "ops_per_s": f"{n - runner.failed} completed of {n}, each op timed "
                     "at its kind's median latency",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{tail_pct:.1f} of n={n}, {beyond} beyond",
    }
    return metrics, END_TO_END_UNITS, notes


def traced(runner, blocks, seconds, pinner):
    start = perf_counter()
    counter = Tracer("count")
    counted = 0
    written = 0
    with counter.installed():
        for op in next(blocks()):
            runner.run_checked(op)
            counted += 1
            written += runner.bytes_written() if op.call == "cli" else 0

    spans = Tracer("spans")
    plain_s = traced_s = 0.0
    pairs = 0

    def run_pair(block):
        nonlocal plain_s, traced_s, pairs
        for op in block:
            pinner.repin()
            for traced_first in ((False, True) if pairs % 2 else (True, False)):
                if traced_first:
                    spans.op_id = pairs
                    with spans.installed():
                        traced_s += runner.run_checked(op)
                else:
                    plain_s += runner.run_checked(op)
            pairs += 1

    loop_blocks(blocks(), seconds - (perf_counter() - start), run_pair)
    spans.write(runner.base / "spans.jsonl")

    totals = spans.self_times()

    def total(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def self_time(layer):
        return sum(v[1] for n, v in totals.items() if LAYER[n] == layer)

    calls = counter.calls
    drive_s = total("sequence.run_until", "exo.run_until")
    dewalop_spans = [n for n in LAYER if LAYER[n] == "dewalop"]
    requested = counter.drives_requested
    metrics = {
        "latch.run_until_s": drive_s / pairs,
        "latch.steps": counter.steps / counted,
        "latch.ns_per_step": drive_s / spans.steps * 1e9 if spans.steps else 0.0,
        "latch.sim_s_per_host_s": spans.sim_s / drive_s if drive_s else 0.0,
        "latch.samples": counter.samples / counted,
        "mechlib.operating_point_calls":
            calls["mechlib.motor_operating_point"] / counted,
        "mechlib.operating_point_calls_per_step":
            calls["mechlib.motor_operating_point"] / counter.steps
            if counter.steps else 0.0,
        "cli.self_s": self_time("cli") / pairs,
        "cli.bytes_written": written / counted,
        "sequence.self_s": self_time("sequence") / pairs,
        "sequence.snapshot_hash_calls": calls["sequence.snapshot_hash"] / counted,
        "sequence.snapshot_hash_s": total("sequence.snapshot_hash") / pairs,
        "sequence.events": counter.events / counted,
        "sequence.latch_drives_requested": requested / counted,
        "sequence.latch_memo_hit_ratio":
            (requested - calls["sequence.run_until"]) / requested
            if requested else 0.0,
        "dewalop.calls": sum(calls[n] for n in dewalop_spans) / counted,
        "dewalop.s": total(*dewalop_spans) / pairs,
        "exo.energy_comparison_s": total("exo.energy_comparison") / pairs,
        "exo.latch_energy_s": total("exo.latch_energy") / pairs,
        "exo.self_s": self_time("exo") / pairs,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    notes = {name: f"over {counted} counted ops" for name in (
        "latch.steps", "latch.samples", "mechlib.operating_point_calls",
        "cli.bytes_written", "sequence.snapshot_hash_calls", "sequence.events",
        "sequence.latch_drives_requested", "dewalop.calls")}
    notes["trace.overhead_frac"] = f"{pairs} traced/untraced pairs"
    return metrics, PER_LAYER_UNITS, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lammos" / "cli.py").is_file():
        print(f"error: no lammos sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads((HERE / "reference.json").read_text())

    pinner = CpuPinner()
    pinner.pin(rounds=3)
    env = environment()
    runner = Runner(args.workload)
    measure = traced if args.trace else untraced
    metrics, units, notes = measure(
        runner, lambda: workloads.blocks(args.workload, args.seed, ref),
        args.seconds, pinner)
    env["loadavg_end"] = " ".join(_read("/proc/loadavg").split()[:3])
    env.update(pinner.stamp())

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {units[name]}{note}")
    attempted = len(runner.latencies)
    print(f"failed_frac {runner.failed / attempted!r} ratio  ({runner.failed} of "
          f"{attempted} ops failed; {runner.malformed} were malformed)")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
