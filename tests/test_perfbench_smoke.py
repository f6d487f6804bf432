"""The benchmark child still drives the package in trace mode.

``perfbench/child.py`` patches functions by name (``Engine.__init__``,
``Recorder.delivery``, ``cli._sweep_worker`` and others); a renamed
function or a changed signature makes its run fail or count no engines,
and an engine that stops calling ``protocol.next_cell`` or
``PortState.enqueue`` through those names leaves their spans empty.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_child(tmp_path, argv, mode):
    """Run ``perfbench/child.py`` on ``argv``; returns the process and its records."""
    records = tmp_path / "records"
    records.mkdir()
    spec = {
        "src": str(ROOT / "src"),
        "argv": argv + ["--out", str(tmp_path / "out")],
        "mode": mode,
        "records": str(records),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, [json.loads(p.read_text(encoding="utf-8")) for p in records.glob("*.json")]


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["run", "fig3.cfg", "--until-ms", "2"], 1),
        (["sweep", "fig3.cfg", "--param", "cdf", "--values", "1/64,1", "--until-ms", "2"], 2),
    ],
    ids=["run", "sweep"],
)
def test_trace_mode_runs_clean_and_counts_every_engine(tmp_path, argv, runs):
    proc, loaded = run_child(tmp_path, argv, "trace")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(len(r["engines"]) for r in loaded) == runs
    assert all(e["events"] > 0 for r in loaded for e in r["engines"])
    # the per-layer view: the hot path still calls the names the child wraps
    for name in ("protocol.next_cell", "switch.enqueue"):
        assert sum(r["agg"].get(name, [0])[0] for r in loaded) > 0, name


def test_probe_mode_stops_a_sweep_without_failing_a_member(tmp_path):
    # The probe ends each member by raising right after ``Engine(...)``; a
    # sweep reports only run errors as failed members and lets it through.
    argv = ["sweep", "fig3.cfg", "--param", "cdf", "--values", "1/64,1", "--until-ms", "2"]
    proc, loaded = run_child(tmp_path, argv, "probe")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert loaded and all(r["kind"] == "probe" for r in loaded)
