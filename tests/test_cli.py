"""CLI contract tests: subcommands, exit codes, reproducible artifacts."""

import copy
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lammos import defaults, latch
from lammos.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv):
    return main(list(argv))


MECHANICAL = {
    "name": "preflight", "type": "dewalop",
    "pipe": {"inner_diameter_m": 0.850}, "dt_s": 0.01,
    "steps": [{"action": a} for a in (
        "lower_legs", "move_into_pipe", "raise_legs", "extend_legs",
        "retract_legs", "lower_legs", "exit_pipe")],
}
LATCHING = {**MECHANICAL, "steps": [
    {"action": "lower_legs", "angle_deg": 20},
    {"action": "move_into_pipe", "acknowledge_push_force": True},
    {"action": "raise_legs"},
    {"action": "latch_angle", "voltage_V": 3.0},
    {"action": "extend_legs"},
]}
EXO = {
    "name": "exo-preflight", "type": "exo", "supply_voltage_V": 3.0,
    "standby_power_W": 0.1, "end_time_s": 60.0, "lock_at_s": 6.0,
    "dt_s": 0.01, "load_timeline": [{"t_s": 0.0, "load_Nm": 0.1}],
}


def _with(doc, value, *path):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Boundary inputs the exit-code contract maps to 2 (usage error): the
# malformed kinds of the benchmark's preflight_batch workload.
MALFORMED = {
    "bad_pipe_type": ("check", _with(MECHANICAL, [0.85], "pipe"), ()),
    "bad_diameter_type": ("check", _with(MECHANICAL, "0.85", "pipe",
                                         "inner_diameter_m"), ()),
    "bad_angle_type": ("check", _with(MECHANICAL, [
        {"action": "lower_legs", "angle_deg": "20"}], "steps"), ()),
    "bad_load_type": ("check", _with(EXO, "0.1", "load_timeline", 0,
                                     "load_Nm"), ()),
    "bad_voltage_type": ("check", _with(EXO, "3.0", "supply_voltage_V"), ()),
    "bad_lock_type": ("check", _with(EXO, "5", "lock_at_s"), ()),
    "bad_steps_type": ("check", _with(MECHANICAL, "lower_legs", "steps"), ()),
    "bad_step_voltage": ("run", _with(LATCHING, 7.0, "steps", 3,
                                      "voltage_V"), ()),
    "unlatchable_voltage": ("run", _with(LATCHING, 3.5, "steps", 3,
                                         "voltage_V"), ()),
    "unread_parameter": ("run", _with(LATCHING, 45, "steps", 3,
                                      "angle_deg"), ()),
    # A parameter name has one JSON kind, checked on every action, and a
    # step key that no action reads is unknown.
    "unread_bad_kind": ("check", _with(MECHANICAL, [
        {"action": "exit_pipe", "voltage_V": "3"}], "steps"), ()),
    "unknown_step_key": ("check", _with(MECHANICAL, [
        {"action": "exit_pipe", "volts": 3.0}], "steps"), ()),
    "never_unlatches": ("run", {**LATCHING, "steps": [
        *LATCHING["steps"], {"action": "latch_flat"},
        {"action": "unlatch_flat", "voltage_V": 3.5}]}, ()),
    "bad_exo_dt": ("run", {**EXO, "dt_s": -0.001, "lock_at_s": 0.0}, ()),
    "bad_dt_zero": ("run", MECHANICAL, ("--dt", "0")),
    "bad_dt_nan": ("run", MECHANICAL, ("--dt", "nan")),
    "dt_above_max": ("run", {**EXO, "dt_s": 0.010000000000000002}, ()),
    "bad_name_path": ("run", _with(MECHANICAL, "../escape", "name"), ()),
    # Nested deeper than the JSON reader recurses; a str is the file's text.
    "deep_name": ("run", '{"name": ' + "[" * 5000 + "]" * 5000 + "}", ()),
    # An integer longer than the 4,300 digits Python converts from a string.
    "huge_int": ("check", json.dumps({**MECHANICAL, "dt_s": 1}).replace(
        '"dt_s": 1', '"dt_s": 1' + "0" * 5000), ()),
}


def _write_document(path: Path, doc) -> None:
    """Write ``doc`` to ``path`` as JSON, or as it stands if a str."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))


def _call(command, doc_path, out, extra=()):
    if command == "check":
        return run_cli("check", str(doc_path))
    return run_cli("run", "--config", str(doc_path), "--out", str(out),
                   *extra)


def _files_outside(root: Path, allowed) -> list:
    return [p for p in root.rglob("*")
            if p.is_file() and not any(a == p or a in p.parents
                                       for a in allowed)]


class TestRun:
    def test_canonical_scenario_writes_artifacts(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(SCENARIOS / "canonical_800mm.json"),
                       "--out", str(tmp_path), "--dt", "0.005")
        assert code == 0
        assert (tmp_path / "canonical-insertion_trace.csv").exists()
        assert (tmp_path / "canonical-insertion_events.csv").exists()
        assert (tmp_path / "canonical-insertion_report.txt").exists()
        report = (tmp_path / "canonical-insertion_report.txt").read_text()
        assert "verdict: PASS" in report

    def test_broken_ordering_exits_one(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(SCENARIOS / "broken_ordering.json"),
                       "--out", str(tmp_path), "--dt", "0.005")
        assert code == 1
        err = capsys.readouterr().err
        assert "hinge not perpendicular" in err
        report = (tmp_path / "broken-ordering_report.txt").read_text()
        assert "FAIL" in report and "latch_angle" in report

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path))
        assert code == 2

    def test_emit_subset(self, tmp_path):
        code = run_cli("run", "--config", str(SCENARIOS / "canonical_800mm.json"),
                       "--out", str(tmp_path), "--dt", "0.005",
                       "--emit", "log")
        assert code == 0
        assert (tmp_path / "canonical-insertion_events.csv").exists()
        assert not (tmp_path / "canonical-insertion_trace.csv").exists()

    @pytest.mark.parametrize("emit", ["trace", "log"])
    def test_exo_trace_or_log_alone_writes_the_comparison(self, emit, tmp_path,
                                                          capsys):
        code = run_cli("run", "--config", str(SCENARIOS / "exo_hold_600s.json"),
                       "--out", str(tmp_path), "--dt", "0.005", "--emit", emit)
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [
            "exo-hold-600s_comparison.csv"]

    def test_exo_scenario(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(SCENARIOS / "exo_hold_600s.json"),
                       "--out", str(tmp_path), "--dt", "0.005")
        assert code == 0
        body = (tmp_path / "exo-hold-600s_report.txt").read_text()
        assert "locking pays off" in body

    def test_exo_lock_that_never_latches_exits_one(self, tmp_path, capsys,
                                                    monkeypatch):
        # At 3 V the clamp torque stays below stall, so the current never
        # reaches the full stall current.
        monkeypatch.setattr(defaults, "TIGHTENING_CURRENT_THRESHOLD", 1.0)
        code = run_cli("run", "--config", str(SCENARIOS / "exo_hold_600s.json"),
                       "--out", str(tmp_path), "--dt", "0.01")
        assert code == 1
        assert "lock failed to latch" in capsys.readouterr().err

    def test_max_dt_is_inclusive(self, tmp_path, capsys):
        config = str(SCENARIOS / "exo_hold_600s.json")
        assert run_cli("run", "--config", config, "--out", str(tmp_path),
                       "--dt", repr(latch.MAX_DT)) == 0

    @pytest.mark.parametrize("dt", ["0.010000000000000002", "10"])
    def test_dt_above_max_exits_two(self, dt, tmp_path, capsys):
        code = run_cli("run", "--config", str(SCENARIOS / "exo_hold_600s.json"),
                       "--out", str(tmp_path), "--dt", dt)
        assert code == 2
        assert (f"timestep out of range: dt {float(dt)} s must be at most "
                "0.01 s") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli("run", "--config",
                           str(SCENARIOS / "canonical_800mm.json"),
                           "--out", str(out), "--dt", "0.005")
            assert code == 0
        for name in ("canonical-insertion_trace.csv",
                     "canonical-insertion_events.csv",
                     "canonical-insertion_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestCheck:
    def test_valid_file(self, capsys):
        assert run_cli("check", str(SCENARIOS / "canonical_800mm.json")) == 0

    def test_out_of_range_pipe(self, capsys):
        code = run_cli("check", str(SCENARIOS / "pipe_out_of_range.json"))
        assert code == 1
        assert "pipe out of operating range" in capsys.readouterr().out

    def test_voltage_that_never_latches(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(MALFORMED["unlatchable_voltage"][1]))
        assert run_cli("check", str(doc_path)) == 1
        assert capsys.readouterr().out == (
            "step 4: latch_angle at 3.5 V never latches: the tightening "
            "current stays below threshold\n")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("check", str(bad)) == 2

    def test_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"name": "\xff"}')
        assert run_cli("check", str(bad)) == 2


class TestProcessExit:
    """The exit code the ``lammos`` process returns, not ``main``'s value."""

    @pytest.mark.parametrize("argv, code", [
        (["check", str(SCENARIOS / "canonical_800mm.json")], 0),
        (["check", str(SCENARIOS / "pipe_out_of_range.json")], 1),
        (["check", "{not_json}"], 2),
        ([], 2),
        (["--help"], 0),
    ], ids=["check_canonical", "check_pipe_out_of_range", "check_not_json",
            "no_arguments", "help"])
    def test_exit_code(self, argv, code, tmp_path):
        not_json = tmp_path / "bad.json"
        not_json.write_text("{not json")
        argv = [str(not_json) if a == "{not_json}" else a for a in argv]
        env = {**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src")}
        result = subprocess.run([sys.executable, "-m", "lammos.cli", *argv],
                                env=env, capture_output=True, text=True)
        assert result.returncode == code, result.stderr


class TestBoundary:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_kind_exits_two(self, kind, tmp_path, capsys):
        command, doc, extra = MALFORMED[kind]
        doc_path = tmp_path / "doc.json"
        _write_document(doc_path, doc)
        out = tmp_path / "sub" / "out"
        assert _call(command, doc_path, out, extra) == 2
        assert list(tmp_path.rglob("*")) == [doc_path]
        assert "error:" in capsys.readouterr().err

    def test_unwritable_artifact_exits_two(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(MECHANICAL))
        (tmp_path / "out" / "preflight_trace.csv").mkdir(parents=True)
        assert _call("run", doc_path, tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: ")

    # A name fits its artifacts' file names when it is at most 240 UTF-8
    # bytes: a 255-byte file name less "_comparison.csv".
    @pytest.mark.parametrize("doc", [MECHANICAL, EXO], ids=["robot", "exo"])
    @pytest.mark.parametrize("name", ["x" * 241, "\u00e9" * 121],
                             ids=["241_bytes", "121_e_acute"])
    def test_name_over_240_bytes_is_rejected(self, doc, name, tmp_path,
                                             capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_with(doc, name, "name")))
        assert _call("check", doc_path, None) == 1
        assert capsys.readouterr().out == (
            f"scenario name of {len(name.encode())} UTF-8 bytes is longer "
            "than 240, the most its file names hold\n")
        assert _call("run", doc_path, tmp_path / "out") == 2
        assert list(tmp_path.iterdir()) == [doc_path]

    @pytest.mark.parametrize("doc, files", [(MECHANICAL, 3), (EXO, 2)],
                             ids=["robot", "exo"])
    @pytest.mark.parametrize("name", ["x" * 240, "\u00e9" * 120],
                             ids=["240_bytes", "120_e_acute"])
    def test_name_of_240_bytes_runs(self, doc, files, name, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_with(doc, name, "name")))
        assert _call("check", doc_path, None) == 0
        assert _call("run", doc_path, tmp_path / "out") == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert len(written) == files
        assert all(p.startswith(name + "_") for p in written)

    def test_overflowing_standby_energy_is_rejected(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps({**EXO, "standby_power_W": 1e299,
                                        "end_time_s": 1e299,
                                        "lock_at_s": 0.0}))
        assert _call("check", doc_path, None) == 1
        assert _call("run", doc_path, tmp_path / "out") == 2
        assert list(tmp_path.iterdir()) == [doc_path]

    def test_number_of_1e300_is_malformed(self, tmp_path, capsys):
        # Numbers must stay under 1e300, far from overflow.
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_with(MECHANICAL, 1e300, "pipe",
                                             "inner_diameter_m")))
        assert _call("check", doc_path, None) == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        *sorted(p.name for p in SCENARIOS.glob("*.json")),
        *sorted(MALFORMED)])
    def test_check_and_run_agree(self, doc, tmp_path, capsys):
        if doc in MALFORMED:
            doc_path = tmp_path / "doc.json"
            _write_document(doc_path, MALFORMED[doc][1])
        else:
            doc_path = SCENARIOS / doc
        checked = _call("check", doc_path, None)
        ran = _call("run", doc_path, tmp_path / "out")
        assert checked in (0, 1, 2) and ran in (0, 1, 2)
        assert (checked == 0) == (ran != 2)

    @given(base=st.sampled_from([
               (LATCHING, ("name",), ("type",), ("pipe",),
                ("pipe", "inner_diameter_m"), ("steps",), ("steps", 0),
                ("steps", 0, "angle_deg"), ("steps", 1, "action"),
                ("steps", 1, "acknowledge_push_force"),
                ("steps", 3, "voltage_V"), ("extra",)),
               (EXO, ("name",), ("type",), ("supply_voltage_V",),
                ("standby_power_W",), ("end_time_s",), ("lock_at_s",),
                ("load_timeline",), ("load_timeline", 0),
                ("load_timeline", 0, "t_s"), ("load_timeline", 0, "load_Nm"),
                ("extra",))]),
           data=st.data(),
           value=st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8),
               lambda inner: st.lists(inner, max_size=3)
               | st.dictionaries(st.text(max_size=8), inner, max_size=3),
               max_leaves=6),
           dt=st.none() | st.sampled_from(
               ["0", "-0.01", "nan", "inf", "-inf", "1e-9", "9e-6", "abc", "",
                "0.005", "60", "1e308"]) | st.floats(min_value=0.005).map(repr))
    @settings(max_examples=100, deadline=None)
    def test_any_document_and_dt_exit_within_contract(self, base, data,
                                                       value, dt):
        doc, *paths = base
        path = data.draw(st.sampled_from([None, *paths]))  # None: unchanged
        if path is not None:
            doc = _with(doc, value, *path)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            doc_path = root / "doc.json"
            doc_path.write_text(json.dumps(doc))
            out = root / "sub" / "out"
            extra = () if dt is None else ("--dt", dt)
            for command in ("check", "run"):
                assert _call(command, doc_path, out, extra) in (0, 1, 2)
            assert _files_outside(root, [doc_path, out]) == []


class TestSf:
    def test_three_load_study(self, capsys):
        code = run_cli("sf", "--load", "1000", "1500", "2000")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "load_N,stress_Pa,safety_factor"
        sfs = [float(line.split(",")[2]) for line in lines[1:]]
        assert sfs[0] > sfs[1] > sfs[2]

    def test_linearity_at_printed_precision(self, capsys):
        code = run_cli("sf", "--load", "1000", "2000")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        sf_1000 = float(lines[1].split(",")[2])
        sf_2000 = float(lines[2].split(",")[2])
        assert sf_2000 == pytest.approx(sf_1000 / 2, rel=1e-8)

    def test_zero_load_exits_two(self, capsys):
        assert run_cli("sf", "--load", "0") == 2

    @pytest.mark.parametrize("load", ["nan", "inf", "-inf"])
    def test_non_finite_load_exits_two(self, load, capsys):
        assert run_cli("sf", "--load", "1000", load) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", [
        ("--yield", "nan"), ("--yield", "inf"),
        ("--plate", "nan,0.04,0.009"), ("--plate", "0.116,inf,0.009"),
        ("--plate", "0.1,1e-110,1e-110"), ("--plate", "1e300,1e300,1e300"),
        ("--plate", "1,1e154,1e200")])
    def test_non_finite_plate_or_yield_exits_two(self, flag, capsys):
        assert run_cli("sf", "--load", "1000", *flag) == 2
        assert capsys.readouterr().out == ""

    def test_subnormal_load_is_unboundedly_safe(self, capsys):
        assert run_cli("sf", "--load", "5e-324") == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split(",")[1:] == ["0", "inf"]

    def test_custom_plate_and_yield(self, capsys):
        code = run_cli("sf", "--load", "1000", "--plate", "0.116,0.040,0.009",
                       "--yield", "250e6")
        assert code == 0
        sf = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
        assert sf == pytest.approx(5.172, abs=0.01)


class TestDefaults:
    def test_prints_auditable_json(self, capsys):
        assert run_cli("defaults") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["motor"]["stall_torque_gcm_3V"] == 2884.0
        assert doc["structure"]["tslot_max_force_N"] == 5000.0
        assert any("assumed" in key for key in doc["latch"])

    def test_lists_every_latch_parameter(self, capsys):
        # Every mechanism constant the latch reads, apart from the motor,
        # screw and spring, which have sections of their own.
        assert run_cli("defaults") == 0
        names = [key.split(" ")[0]
                 for key in json.loads(capsys.readouterr().out)["latch"]]
        read = {c for c in re.findall(r"defaults\.([A-Z_]+)\b",
                                      inspect.getsource(latch))
                if c != "MOTOR" and not c.startswith(("SCREW_", "SPRING_"))}
        missing = [c for c in sorted(read)
                   if not any(re.fullmatch(c.lower() + "(_m|_Nm)?", name)
                              for name in names)]
        assert len(read) == 8 and missing == []
