"""CLI contract tests: subcommands, exit codes, reproducible artifacts."""

import json
from pathlib import Path

import pytest

from lammos.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv):
    return main(list(argv))


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

    def test_exo_scenario(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(SCENARIOS / "exo_hold_600s.json"),
                       "--out", str(tmp_path), "--dt", "0.005")
        assert code == 0
        body = (tmp_path / "exo-hold-600s_report.txt").read_text()
        assert "locking pays off" in body

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli("run", "--config",
                           str(SCENARIOS / "canonical_800mm.json"),
                           "--out", str(out), "--dt", "0.005", "--seed", "7")
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

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("check", str(bad)) == 2


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
