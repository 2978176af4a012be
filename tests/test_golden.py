"""Byte-identity of every emitted artifact against recorded digests.

The digests were recorded on the per-step latch engine, before the drive
loop was fused into one kernel; the three robot ``_report.txt`` digests
were re-recorded when the report lost its ``seed:`` line (the ``--seed``
option was removed), and the ``lammos defaults`` digest was re-recorded
when it gained the one line ``tightening_travel_m (assumed)``. The
``roundtrip_800mm`` case (the first to pin unlatch artifacts) and the
``exo_lock_study`` stdout were added later, recorded on the code before
``latch.step`` lost its second path through the drive kernel. The
``roundtrip_800mm_dt0.00123`` case (every trace time a non-round value,
55,108 trace rows) was recorded on the code before ``write_csv`` formatted
each run's constant fields once and wrote its rows in blocks. Any change to
a verdict, an event log, a trace digit, a report line, a comparison value
or a default shows up here.

``python tests/test_golden.py`` prints the digests of the current code.
"""

import hashlib
import io
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lammos.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

CASES = {
    "broken_ordering": ("broken_ordering.json",),
    "canonical_800mm": ("canonical_800mm.json",),
    "canonical_800mm_dt0.0005": ("canonical_800mm.json", "--dt", "0.0005"),
    "exo_hold_600s": ("exo_hold_600s.json",),
    "pipe_out_of_range": ("pipe_out_of_range.json",),
    "roundtrip_800mm": ("roundtrip_800mm.json",),
    "roundtrip_800mm_dt0.00123": ("roundtrip_800mm.json", "--dt", "0.00123"),
}

GOLDEN = {
    "broken_ordering": {
        "exit": 1,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr":
            "9c6fe02132b48f1aa9edf1f7896a4fdb375b47684f0e0fe162a304f0602f87c3",
        "broken-ordering_events.csv":
            "737dd3e89f35c48baa93dddf8bbc33c3b554559b8e65a83f72e212b43e1ef4eb",
        "broken-ordering_report.txt":
            "593ace50d231e9afb7e930112654e8cead198f5c1992701e2f8be494510c3c7b",
        "broken-ordering_trace.csv":
            "b20ba434987224e3199b69fac9e251c862c1be7aa4e6434ef362839c748d93a6",
    },
    "canonical_800mm": {
        "exit": 0,
        "stdout":
            "fae15e575172d99fc0c525a12b94ae08531433fbfcb173301eedf131682e811d",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "canonical-insertion_events.csv":
            "e447a08b255008766a1c784c4bd0cb518aca0c179a3c2d9bbae1914b00465364",
        "canonical-insertion_report.txt":
            "73a7f4e8503b09896615c3eb3135302720b03ffa2b1965829cb77849ce0a1a57",
        "canonical-insertion_trace.csv":
            "4135f86776c9c0e7bfaecc563086f2288b7fd09c56bbd27260c4c64d3f922067",
    },
    "canonical_800mm_dt0.0005": {
        "exit": 0,
        "stdout":
            "fae15e575172d99fc0c525a12b94ae08531433fbfcb173301eedf131682e811d",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "canonical-insertion_events.csv":
            "e9dc762a0c362e9bc2a80f51fda87da217f870d98c8f1a81fc3f6331b27bbff1",
        "canonical-insertion_report.txt":
            "73a7f4e8503b09896615c3eb3135302720b03ffa2b1965829cb77849ce0a1a57",
        "canonical-insertion_trace.csv":
            "b163fc61b81e37057217c7b3a3a8313c1b7e46ba0625a89d7ab2dcf032716ddb",
    },
    "exo_hold_600s": {
        "exit": 0,
        "stdout":
            "7a371208da955f2b4db7fa496ad1ba4de50735f1e0e036f66fdaab98e1bd68e0",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "exo-hold-600s_comparison.csv":
            "55b185977f269422face724deafb8c3be8519df98d9c896ea1e579eb76461aa2",
        "exo-hold-600s_report.txt":
            "184f9c31fb55c1ae18e4b229181bb87f3847846164e6766cd63a55c57ce72243",
    },
    "pipe_out_of_range": {
        "exit": 2,
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr":
            "952f90aa98e81d03a248b5e94360f73d17e5857489dc960033f49757f91115d2",
    },
    "roundtrip_800mm": {
        "exit": 0,
        "stdout":
            "20f53996de694cbd957bb087c010210c4e830cdbfb0105aa12490c04e8908a73",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "roundtrip-800mm_events.csv":
            "4bbeda27463796526fab2c8959367b5ed52a6dbb1a14ad31c8a82e44e2643a37",
        "roundtrip-800mm_report.txt":
            "8ecedf3c85e36dce537392cfb5e04859912a7a20a79331c62fe8c2ec8cdb165a",
        "roundtrip-800mm_trace.csv":
            "d4e3ae28a286ec1e4db0d9a84fcba9d7249c6098005e1feea4fc9488a7900a03",
    },
    "roundtrip_800mm_dt0.00123": {
        "exit": 0,
        "stdout":
            "20f53996de694cbd957bb087c010210c4e830cdbfb0105aa12490c04e8908a73",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "roundtrip-800mm_events.csv":
            "dd81f51f9934d90629ef099f0ab6c921031a72381cc0e17b44915ce409be7ae8",
        "roundtrip-800mm_report.txt":
            "8ecedf3c85e36dce537392cfb5e04859912a7a20a79331c62fe8c2ec8cdb165a",
        "roundtrip-800mm_trace.csv":
            "bbcf65991f0e343d2e2cbcbcca6cf8de22fd1d818f55bc405a7ac905901d6ae3",
    },
    "latch_cycle_trace": {
        "exit": 0,
        "stdout":
            "930f0336bfe303343f58799f1543fb0970fc932b16925f39c527fbaa6f407c81",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "latch_cycle_trace.csv":
            "95834b791aad1bf1b369211aef74c82c75e0df14cc0bfaaacbb796908f9258a9",
    },
    "exo_lock_study": {
        "exit": 0,
        "stdout":
            "43e8451e68b5f4ca6ded129496e74a3c0632910fc7bf4494a61e9b91714497fc",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "defaults": {
        "exit": 0,
        "stdout":
            "4c74e2aa63d6abdbafcf2d01fb1d89e5f2c9f27180a27f5754dc71269c417698",
        "stderr":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(out: Path, run) -> dict:
    """Exit code, stdout, stderr and every file written under ``out``.

    The output directory is masked in the streams, so digests do not depend
    on where the run wrote.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run()
    digests = {"exit": code}
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        digests[stream] = _sha(text.getvalue().replace(str(out), "<out>")
                               .encode())
    for path in sorted(out.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    return digests


def scenario_digests(case: str, out: Path) -> dict:
    config, *extra = CASES[case]
    return _outputs(out, lambda: main(["run", "--config",
                                       str(SCENARIOS / config),
                                       "--out", str(out), *extra]))


def _script_digests(out: Path, name: str, *args: str) -> dict:
    """Run ``scripts/<name>`` as ``__main__`` with ``args``."""
    script = ROOT / "scripts" / name

    def run():
        argv = sys.argv
        sys.argv = [str(script), *args]
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = argv
        return 0
    return _outputs(out, run)


def latch_cycle_digests(out: Path) -> dict:
    return _script_digests(out, "latch_cycle_trace.py",
                           str(out / "latch_cycle_trace.csv"))


def exo_lock_study_digests(out: Path) -> dict:
    return _script_digests(out, "exo_lock_study.py")


def defaults_digests(out: Path) -> dict:
    return _outputs(out, lambda: main(["defaults"]))


def all_digests() -> dict:
    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = scenario_digests(case, Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        digests["latch_cycle_trace"] = latch_cycle_digests(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        digests["exo_lock_study"] = exo_lock_study_digests(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        digests["defaults"] = defaults_digests(Path(tmp))
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_artifacts_match_golden(case, tmp_path):
    assert scenario_digests(case, tmp_path) == GOLDEN[case]


def test_latch_cycle_trace_matches_golden(tmp_path):
    assert latch_cycle_digests(tmp_path) == GOLDEN["latch_cycle_trace"]


def test_exo_lock_study_matches_golden(tmp_path):
    assert exo_lock_study_digests(tmp_path) == GOLDEN["exo_lock_study"]


def test_defaults_output_matches_golden(tmp_path):
    assert defaults_digests(tmp_path) == GOLDEN["defaults"]


if __name__ == "__main__":
    import pprint
    pprint.pprint(all_digests(), sort_dicts=False, width=100)
