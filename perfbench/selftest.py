#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the generator is deterministic for a seed, that the checker
flags corrupted verdicts, logs, traces and energies, and that traced and
untraced executions produce identical outputs. Takes about 20 seconds.
"""

import dataclasses
import json
import sys
import unittest
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path below)

sys.path.insert(0, str(run.SRC))

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REF = json.loads((run.HERE / "reference.json").read_text())


def first_ops(workload, seed, blocks=1):
    gen = workloads.blocks(workload, seed, REF)
    return [op for block in islice(gen, blocks) for op in block]


def first_of_kind(kind, seed=3):
    return next(op for op in first_ops("preflight_batch", seed) if op.kind == kind)


def snapshot(op):
    return json.dumps([op.kind, op.argv, op.doc, op.expect], sort_keys=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            a = [snapshot(op) for op in first_ops(workload, 5, blocks=3)]
            b = [snapshot(op) for op in first_ops(workload, 5, blocks=3)]
            c = [snapshot(op) for op in first_ops(workload, 6, blocks=3)]
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_exo_share_without_lock(self):
        ops = first_ops("exo_sweep", 9, blocks=5)
        unlocked = [op for op in ops if "lock_at_s" not in op.doc]
        self.assertEqual(len(unlocked) * 9, len(ops))

    def test_preflight_mix(self):
        ops = first_ops("preflight_batch", 9)
        self.assertEqual(len(ops), 36)
        self.assertEqual(sum(op.malformed for op in ops), 12)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runner = run.Runner("selftest")

    def run_and_corrupt(self, op, filename, old, new):
        outcome = self.runner.execute(op)
        self.assertEqual(checker.check(op, outcome, self.runner.out), [])
        path = self.runner.out / filename
        text = path.read_text()
        self.assertIn(old, text)
        path.write_text(text.replace(old, new, 1))
        return checker.check(op, outcome, self.runner.out)

    def test_corrupted_verdict(self):
        op = first_of_kind("run_mechanical")
        report = f"{op.expect['name']}_report.txt"
        self.assertTrue(self.run_and_corrupt(
            op, report, "verdict: PASS", "verdict: FAIL at step 1 (lower_legs)"))

    def test_corrupted_offending_leg(self):
        op = first_of_kind("abort_ordering")
        report = f"{op.expect['name']}_report.txt"
        self.assertTrue(self.run_and_corrupt(
            op, report, "offending leg: top-0", "offending leg: top-120"))

    def test_corrupted_log(self):
        op = first_of_kind("run_mechanical")
        events = f"{op.expect['name']}_events.csv"
        self.assertTrue(self.run_and_corrupt(op, events, "legs retracted",
                                             "legs extended"))
        self.assertTrue(self.run_and_corrupt(op, events, "\n2,move_into_pipe",
                                             "\n2.5,move_into_pipe"))

    def test_corrupted_exo_result(self):
        op = next(op for op in first_ops("exo_sweep", 4) if "lock_at_s" in op.doc)
        outcome = self.runner.execute(op)
        self.assertEqual(checker.check(op, outcome, self.runner.out), [])
        outcome.value = dataclasses.replace(outcome.value,
                                            savings=-outcome.value.savings)
        self.assertTrue(checker.check(op, outcome, self.runner.out))

    def test_corrupted_roundtrip_trace_and_states(self):
        op = first_ops("insertion_roundtrip", 4)[0]
        name = op.expect["name"]
        self.assertTrue(self.run_and_corrupt(
            op, f"{name}_report.txt", "Housed,Housed", "Latched,Housed"))
        self.assertTrue(self.run_and_corrupt(
            op, f"{name}_trace.csv", ",Traversing\n", ",Tightening\n"))

    def test_wrong_exit_code(self):
        op = first_of_kind("check_dewalop")
        outcome = self.runner.execute(op)
        outcome.value = 1
        self.assertTrue(checker.check(op, outcome, self.runner.out))


class TracingTest(unittest.TestCase):
    def outputs(self, runner, op, tracer=None):
        if tracer is None:
            outcome = runner.execute(op)
        else:
            with tracer.installed():
                outcome = runner.execute(op)
        files = {p.name: p.read_bytes() for p in sorted(runner.out.glob("*"))}
        return (repr(outcome.value), repr(outcome.error), outcome.stdout,
                outcome.stderr, files)

    def test_traced_and_untraced_outputs_identical(self):
        runner = run.Runner("selftest")
        ops = (first_ops("preflight_batch", 8)
               + first_ops("exo_sweep", 8) + first_ops("insertion_roundtrip", 8)[:1])
        for op in ops:
            plain = self.outputs(runner, op)
            self.assertEqual(plain, self.outputs(runner, op, Tracer("spans")), op.kind)
            self.assertEqual(plain, self.outputs(runner, op, Tracer("count")), op.kind)

    def test_counts_repeat(self):
        runner = run.Runner("selftest")
        counts = []
        for _ in range(2):
            tracer = Tracer("count")
            with tracer.installed():
                for op in first_ops("preflight_batch", 2) + first_ops("exo_sweep", 2)[:2]:
                    runner.execute(op)
            counts.append((dict(tracer.calls), tracer.steps, tracer.samples,
                           tracer.events, tracer.drives_requested))
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
