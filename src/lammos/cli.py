"""Command-line front end.

Subcommands:
  run      execute a scenario file and write trace/log/report artifacts
  check    validate a scenario file without executing it
  sf       plate bending safety-factor table for one or more loads
  defaults print every default parameter (assumed values flagged)

Exit codes are a stable contract: 0 success, 1 model-level failure,
2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import defaults, exo, latch, sequence
from .mechlib import (
    MaterialSpec,
    PlateSpec,
    csv_number,
    plate_bending_safety_factor,
)

EXIT_OK = 0
EXIT_MODEL_FAILURE = 1
EXIT_USAGE = 2


def _load_document(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read scenario file: {exc}")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise _UsageError(f"malformed scenario file {path}: {exc}")


class _UsageError(Exception):
    pass


def _emit_set(value: str) -> set[str]:
    tags = {t.strip() for t in value.split(",") if t.strip()}
    unknown = tags - {"trace", "log", "report"}
    if unknown:
        raise _UsageError(f"unknown emit tags: {sorted(unknown)}")
    return tags


def cmd_run(args) -> int:
    raw = _load_document(args.config)
    emit = _emit_set(args.emit)
    config, diags, usage = sequence.parse(raw, dt=args.dt)
    if usage or diags:
        raise _UsageError("; ".join(usage + diags))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(config, sequence.ExoScenario):
        return _run_exo(config, out, emit)
    return _run_dewalop(config, out, emit)


def _run_dewalop(scenario, out: Path, emit: set[str]) -> int:
    unit, log, verdict, traces = sequence.run_scenario(scenario)
    name = scenario.name
    if "trace" in emit:
        with open(out / f"{name}_trace.csv", "w") as fh:
            fh.write(f"actor,{latch.TRACE_CSV_HEADER}\n")
            for actor, trace in traces:
                trace.write_csv(fh, actor + ",")
    if "log" in emit:
        (out / f"{name}_events.csv").write_text(log.to_csv())
    if "report" in emit:
        (out / f"{name}_report.txt").write_text(
            _dewalop_report(name, unit, verdict))
    if not verdict.passed:
        print(f"scenario failed at step {verdict.failed_step} "
              f"({verdict.failed_action}): {verdict.reason}"
              + (f" [leg {verdict.offending_leg}]" if verdict.offending_leg
                 else ""),
              file=sys.stderr)
        return EXIT_MODEL_FAILURE
    print(f"scenario {name} complete: verdict pass")
    return EXIT_OK


def _dewalop_report(name, unit, verdict) -> str:
    from .dewalop import unit_state_csv
    lines = [f"Scenario report: {name}", ""]
    if verdict.passed:
        lines.append("verdict: PASS")
    else:
        lines.append(f"verdict: FAIL at step {verdict.failed_step} "
                     f"({verdict.failed_action})")
        lines.append(f"reason: {verdict.reason}")
        if verdict.offending_leg:
            lines.append(f"offending leg: {verdict.offending_leg}")
    lines += ["", "final robot state:", unit_state_csv(unit)]
    return "\n".join(lines)


def _run_exo(study, out: Path, emit: set[str]) -> int:
    try:
        result = exo.energy_comparison(study.joint, study.timeline,
                                       study.lock_at, dt=study.dt)
    except RuntimeError as exc:  # an unholdable load or a lock that never latches
        print(f"model failure: {exc}", file=sys.stderr)
        return EXIT_MODEL_FAILURE
    name = study.name
    if "trace" in emit or "log" in emit:
        (out / f"{name}_comparison.csv").write_text(exo.comparison_csv(result))
    if "report" in emit:
        (out / f"{name}_report.txt").write_text(exo.comparison_report(
            name, study.joint, study.timeline, study.lock_at, result))
    print(f"scenario {name} complete: savings {result.savings:.6g} J")
    return EXIT_OK


def cmd_check(args) -> int:
    _, diags, usage = sequence.parse(_load_document(args.scenario))
    if usage:
        raise _UsageError("; ".join(usage))
    for diag in diags:
        print(diag)
    return EXIT_OK if not diags else EXIT_MODEL_FAILURE


def cmd_sf(args) -> int:
    if any(not (0 < load < math.inf) for load in args.load):
        raise _UsageError("loads must be finite and strictly positive")
    try:
        if args.plate:
            l, h, w = (float(x) for x in args.plate.split(","))
            plate = PlateSpec(length=l, height=h, thickness=w)
        else:
            plate = PlateSpec()
        material = MaterialSpec(yield_strength=args.yield_strength)
    except ValueError as exc:
        raise _UsageError(exc)
    print("load_N,stress_Pa,safety_factor")
    for load in args.load:
        result = plate_bending_safety_factor(plate, material, load, plate.length)
        print("{},{},{}".format(csv_number(load),
                                format(result.bending_stress, ".12g"),
                                format(result.safety_factor, ".12g")))
    return EXIT_OK


def cmd_defaults(args) -> int:
    print(json.dumps(defaults.defaults_as_dict(), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lammos",
        description="Motorized-screw latch simulator and verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--dt", type=float, default=None,
                       help="override simulation timestep in seconds")
    p_run.add_argument("--emit", default="trace,log,report",
                       help="comma-separated artifacts: trace,log,report")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="validate a scenario file")
    p_check.add_argument("scenario", help="scenario JSON file")
    p_check.set_defaults(func=cmd_check)

    p_sf = sub.add_parser("sf", help="plate bending safety-factor table")
    p_sf.add_argument("--load", type=float, nargs="+", required=True,
                      help="loads in newtons")
    p_sf.add_argument("--plate", default=None,
                      help="plate dimensions l,h,w in meters")
    p_sf.add_argument("--yield", dest="yield_strength", type=float,
                      default=MaterialSpec().yield_strength,
                      help="yield strength in Pa")
    p_sf.set_defaults(func=cmd_sf)

    p_defaults = sub.add_parser("defaults", help="print all default parameters")
    p_defaults.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
