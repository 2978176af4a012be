"""Output checker: compares what an operation produced with what it should.

Exact: exit code, verdict (pass/fail, failed step and action, offending
leg), event actors and names in order, the latch states each trace passes
through, final latch states, diagnostics and table shapes.

Within tolerance, so that a kernel that moves a transition by a step still
passes:
- event and trace times: TIME_TOL_STEPS timesteps;
- samples per latch drive: SAMPLE_TOL;
- latch drive energy: relative ENERGY_REL_TOL;
- hold energies and safety-factor rows: relative ARITH_REL_TOL.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import grids

TIME_TOL_STEPS = 2
SAMPLE_TOL = 4
ENERGY_REL_TOL = 1e-3
ARITH_REL_TOL = 1e-9

TRACE_HEADER = "actor,t_s,current_A,position_m,state"
SF_HEADER = "load_N,stress_Pa,safety_factor"
_HASH = re.compile(r"[0-9a-f]{16}")


def _close(a, b, rel):
    return math.isclose(a, b, rel_tol=rel)


def check(op, outcome, out_dir: Path) -> list[str]:
    """Problems found with one operation's result (empty when correct)."""
    expect = op.expect
    if outcome.error is not None:
        return [f"raised {type(outcome.error).__name__}: {outcome.error}"]
    if expect["type"] == "exo":
        return _check_exo(expect, outcome.value)
    if outcome.value != expect["exit"]:
        return [f"exit code {outcome.value}, expected {expect['exit']}"]
    if op.malformed:
        return []
    return {"run": _check_run, "check": _check_diags,
            "sf": _check_sf}[expect["type"]](expect, outcome, out_dir)


def _check_exo(expect, result) -> list[str]:
    problems = []
    latch_tol = ENERGY_REL_TOL * expect["latch"]
    for field, got, tol in (("held", result.held_energy, 0.0),
                            ("locked", result.locked_energy, latch_tol),
                            ("latch", result.latch_energy, latch_tol),
                            ("savings", result.savings, latch_tol)):
        want = expect[field]
        scale = ARITH_REL_TOL * max(abs(expect["held"]), abs(want))
        if not abs(got - want) <= tol + scale:
            problems.append(f"{field} energy {got!r}, expected {want!r}")
    if abs(expect["savings"]) > latch_tol and (result.savings > 0) != (expect["savings"] > 0):
        problems.append("lock-vs-hold verdict differs")
    return problems


def _check_diags(expect, outcome, out_dir) -> list[str]:
    lines = outcome.stdout.splitlines()
    if len(lines) != len(expect["diags"]):
        return [f"{len(lines)} diagnostics, expected {len(expect['diags'])}"]
    return [f"diagnostic {got!r} lacks {want!r}"
            for got, want in zip(lines, expect["diags"]) if want not in got]


def _check_sf(expect, outcome, out_dir) -> list[str]:
    lines = outcome.stdout.splitlines()
    if not lines or lines[0] != SF_HEADER or len(lines) != len(expect["rows"]) + 1:
        return ["safety-factor table has the wrong shape"]
    problems = []
    for line, want in zip(lines[1:], expect["rows"]):
        got = [float(x) for x in line.split(",")]
        if not all(_close(g, w, ARITH_REL_TOL) for g, w in zip(got, want)):
            problems.append(f"safety-factor row {line!r}, expected {want!r}")
    return problems


def _check_run(expect, outcome, out_dir) -> list[str]:
    name, verdict = expect["name"], expect["verdict"]
    problems = []
    if verdict["passed"]:
        if outcome.stdout != f"scenario {name} complete: verdict pass\n":
            problems.append(f"stdout {outcome.stdout!r}")
    elif f"at step {verdict['step']} ({verdict['action']})" not in outcome.stderr:
        problems.append(f"stderr {outcome.stderr!r} lacks the failed step")
    problems += _check_events(expect, (out_dir / f"{name}_events.csv").read_text())
    problems += _check_report(expect, (out_dir / f"{name}_report.txt").read_text())
    problems += _check_trace(expect, (out_dir / f"{name}_trace.csv").read_text())
    return problems


def _check_events(expect, text) -> list[str]:
    lines = text.splitlines()
    if lines[0] != "t_s,actor,event,hash":
        return ["event log header"]
    rows = []
    for line in lines[1:]:
        t, actor, rest = line.split(",", 2)
        event, digest = rest.rsplit(",", 1)
        rows.append((float(t), actor, event, digest))
    want = expect["events"]
    got_names = [(a, e) for _, a, e, _ in rows]
    want_names = [(a, e) for _, a, e in want]
    if got_names != want_names:
        return [f"event log {got_names!r}, expected {want_names!r}"]
    tol = TIME_TOL_STEPS * grids.DT
    problems = [f"event {e!r} at t={t!r}, expected {w[0]!r}"
                for (t, _, e, _), w in zip(rows, want) if abs(t - w[0]) > tol]
    problems += [f"malformed snapshot hash {d!r}"
                 for *_, d in rows if not _HASH.fullmatch(d)]
    return problems


def _check_report(expect, text) -> list[str]:
    lines = text.splitlines()
    verdict = expect["verdict"]
    if verdict["passed"]:
        want = ["verdict: PASS"]
    else:
        want = [f"verdict: FAIL at step {verdict['step']} ({verdict['action']})"]
        if verdict["leg"]:
            want.append(f"offending leg: {verdict['leg']}")
    problems = [f"report lacks {w!r}" for w in want if w not in lines]
    if not verdict["passed"] and not verdict["leg"] and any(
            l.startswith("offending leg:") for l in lines):
        problems.append("report names an offending leg")
    header = "final robot state:"
    state_at = lines.index(header) + 2 if header in lines else len(lines)
    final = [[f[0], f[4], f[5]] for f in
             (line.split(",") for line in lines[state_at:] if line)]
    if final != expect["final_latches"]:
        problems.append(f"final latch states {final!r}")
    return problems


def _check_trace(expect, text) -> list[str]:
    lines = iter(text.splitlines())
    if next(lines, None) != TRACE_HEADER:
        return ["trace header"]
    voltage = {w["actor"]: w["voltage"] for w in expect["traces"]}
    groups: list[dict] = []   # one per actor run, in order of appearance
    for line in lines:
        actor, t, current, _, state = line.split(",")
        if not groups or groups[-1]["actor"] != actor:
            groups.append({"actor": actor, "first": float(t), "samples": 0,
                           "energy": 0.0, "states": []})
        group = groups[-1]
        group["last"] = float(t)
        group["samples"] += 1
        group["energy"] += voltage.get(actor, 0.0) * float(current) * grids.DT
        if not group["states"] or group["states"][-1] != state:
            group["states"].append(state)
    want = expect["traces"]
    if [g["actor"] for g in groups] != [w["actor"] for w in want]:
        return [f"trace actors {[g['actor'] for g in groups]!r}"]
    problems = []
    tol = TIME_TOL_STEPS * grids.DT
    for g, w in zip(groups, want):
        actor = g["actor"]
        if g["states"] != w["states"]:
            problems.append(f"{actor} trace states {g['states']!r}")
        if abs(g["samples"] - w["samples"]) > SAMPLE_TOL:
            problems.append(f"{actor} trace has {g['samples']} samples, "
                            f"expected {w['samples']}")
        if abs(g["first"] - (w["t0"] + grids.DT)) > tol:
            problems.append(f"{actor} trace starts at {g['first']!r}")
        end = w["t0"] + w["samples"] * grids.DT
        if abs(g["last"] - end) > tol + SAMPLE_TOL * grids.DT:
            problems.append(f"{actor} trace ends at {g['last']!r}")
        if not _close(g["energy"], w["energy_J"], ENERGY_REL_TOL):
            problems.append(f"{actor} energy {g['energy']!r}, "
                            f"expected {w['energy_J']!r}")
    return problems
