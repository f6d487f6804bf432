"""The benchmark child still drives the package in trace mode.

``perfbench/child.py`` patches functions by name (``Engine.__init__``,
``Recorder.delivery``, ``cli._sweep_worker`` and others); a renamed
function or a changed signature makes its run fail or count no engines,
and an engine that stops calling ``protocol.next_cell`` or
``PortState.enqueue`` through those names leaves their spans empty.  A
one-VC part, such as each of fig3's, calls no ``PortState.enqueue``: two
VCs that share a port run through it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_child(tmp_path, argv, mode, cpus=None):
    """Run ``perfbench/child.py`` on ``argv``; returns the process and its
    records.  ``cpus`` sets what ``os.cpu_count`` returns in the child."""
    records = tmp_path / "records"
    records.mkdir()
    spec = {
        "src": str(ROOT / "src"),
        "argv": argv + ["--out", str(tmp_path / "out")],
        "mode": mode,
        "records": str(records),
    }
    child = [str(ROOT / "perfbench" / "child.py"), json.dumps(spec)]
    if cpus is not None:
        child = ["-c", (
            f"import os, runpy, sys; os.cpu_count = lambda: {cpus}; "
            "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')"
        )] + child
    proc = subprocess.run(
        [sys.executable, *child],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, [json.loads(p.read_text(encoding="utf-8")) for p in records.glob("*.json")]


SHARED_PORT = """
[switch.sw1]
[link.a]
from = s1
to = sw1
[link.b]
from = s2
to = sw1
[link.c]
from = sw1
to = d1
[vc.v1]
path = s1, sw1, d1
[vc.v2]
path = s2, sw1, d1
"""


@pytest.mark.parametrize(
    "argv, runs, names",
    [
        (["run", "fig3.cfg", "--until-ms", "2"], 1, ("protocol.next_cell",)),
        (["sweep", "fig3.cfg", "--param", "cdf", "--values", "1/64,1", "--until-ms", "2"], 2,
         ("protocol.next_cell",)),
        (["run", "shared.cfg", "--until-ms", "2"], 1, ("protocol.next_cell", "switch.enqueue")),
    ],
    ids=["run", "sweep", "shared-port"],
)
def test_trace_mode_runs_clean_and_counts_every_engine(tmp_path, argv, runs, names):
    (tmp_path / "shared.cfg").write_text(SHARED_PORT, encoding="utf-8")
    proc, loaded = run_child(tmp_path, argv, "trace")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(len(r["engines"]) for r in loaded) == runs
    assert all(e["events"] > 0 for r in loaded for e in r["engines"])
    # the per-layer view: the hot path still calls the names the child wraps
    for name in names:
        assert sum(r["agg"].get(name, [0])[0] for r in loaded) > 0, name


def test_probe_mode_stops_a_sweep_without_failing_a_member(tmp_path):
    # The probe ends each member by raising right after ``Engine(...)``; a
    # sweep reports only run errors as failed members and lets it through.
    argv = ["sweep", "fig3.cfg", "--param", "cdf", "--values", "1/64,1", "--until-ms", "2"]
    proc, loaded = run_child(tmp_path, argv, "probe")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert loaded and all(r["kind"] == "probe" for r in loaded)


def test_run_mode_counts_one_engine_for_a_split_run(tmp_path):
    # The mode the benchmark measures.  With two CPUs fig3's two parts run
    # in two processes; the parent's one engine still reports the whole
    # run, as ``meta.txt`` does.
    argv = ["run", "fig3.cfg", "--until-ms", "300"]
    proc, loaded = run_child(tmp_path, argv, "run", cpus=2)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    engines = [e for r in loaded for e in r["engines"]]
    assert len(engines) == 1
    meta = (tmp_path / "out" / "meta.txt").read_text(encoding="utf-8")
    events = int(re.search(r"^events_processed = (\d+)$", meta, re.M)[1])
    delivered = re.findall(r"^vc\.\w+\.cells_delivered = (\d+)$", meta, re.M)
    assert len(delivered) == 2
    assert engines[0]["events"] == events
    assert engines[0]["cells"] == sum(map(int, delivered)) > 0
