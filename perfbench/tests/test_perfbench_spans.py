"""Spans recorded in forked pool workers reach the trace output."""

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, os, sys
from layers import SpanLog, install, layer_metrics, load_jsonl
from repro.orchestration import run_specs, trial_specs

log = SpanLog(sys.argv[1])
install(log)
specs = trial_specs("pll", 64, 8, engine="multiset") + trial_specs("pll", 128, 2, engine="multiset")
report = run_specs(specs, jobs=2)
log.flush()
spans = load_jsonl(sys.argv[1], "spans-*.jsonl")
values, bases = layer_metrics(spans, [], {"jobs": 2, "wall_s": 1.0})
print(json.dumps({"pid": os.getpid(), "executed": report.executed, "spans": spans, "values": values}))
"""


def test_worker_spans_reach_the_trace_output(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(PERFBENCH.parent / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["executed"] == 10
    spans = result["spans"]
    worker_spans = [span for span in spans if span["pid"] != result["pid"]]
    names = {span["name"] for span in worker_spans}
    # Every pool task ran in a worker: the packed n=64 cell and the two
    # solo n=128 trials, each with its engine span inside.
    assert {"pool.ensemble", "pool.trial", "engine.run", "engine.build"} <= names
    values = result["values"]
    assert values["pool.solo_trials"] == 2
    assert values["engine.ensemble.trials"] + values["engine.multiset.trials"] == 10
    assert values["pool.tasks"] == values["pool.solo_trials"] + values["pool.ensemble_chunks"]
    # One file per worker process, none duplicated from the parent.
    files = sorted(path.name for path in tmp_path.glob("spans-*.jsonl"))
    assert len(files) == len({span["pid"] for span in spans})
    assert len(spans) == len({(s["pid"], s["ts"], s["name"]) for s in spans})


def test_claim_counts_cells_asked_up_to_the_limit():
    from layers import _claim

    hashes = ["a", "b", "c", "d", "e"]
    assert _claim((None, hashes), {"limit": 4}, ["a", "b"]) == {"asked": 4, "granted": 2}
    assert _claim((None, hashes, 2), {}, ["a"]) == {"asked": 2, "granted": 1}
    assert _claim((None, hashes), {}, hashes) == {"asked": 5, "granted": 5}
