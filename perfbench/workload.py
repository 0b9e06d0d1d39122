"""One workload in one fresh interpreter.

``run.py`` starts this file three ways:

* ``--mode run``: run the workload, write ``result.json`` into
  ``--workdir``.  At each checkpoint it writes ``pause`` on its control
  pipe (stdout) and waits for a line on stdin, so the parent can time
  fresh-interpreter set-ups spread through the run without either
  process competing for the CPU.  Pauses are outside every measured
  interval.
* ``--mode setup``: the set-up alone (import, specs and their hashes,
  store or shard root), then ``ready`` — the parent times it from
  process start.
* ``--mode fabric-worker``: one sharded-campaign worker of
  ``e9-fabric``; prints its report as JSON.

Every workload runs one fixed work list, whatever seed ``run.py`` was
given (see :data:`PLL_BASE_SEED` and :data:`E9_BASE_SEED`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from catalog import TRIAL_COLUMNS

HERE = Path(__file__).resolve().parent

from repro.experiments.campaigns import campaign_for  # noqa: E402
from repro.orchestration import (  # noqa: E402
    CampaignRunner,
    CampaignSpec,
    TrialStore,
    run_specs,
    trial_specs,
)
from repro.orchestration.backend import merge  # noqa: E402
from repro.orchestration.backend.fabric import run_sharded_campaign  # noqa: E402
from repro.orchestration.backend.leases import LeaseManager  # noqa: E402
from repro.orchestration.backend.sharded import ShardedStore  # noqa: E402

#: ``pll-stabilize`` runs one fixed trial list whatever the seed:
#: ``trial_specs("pll", 2**16, 4, base_seed=0)`` (batch engine) and
#: ``trial_specs("pll", 10**6, 1, base_seed=0)`` (superbatch engine).
#: n=2^16 seed 3 ends in the slow mode (parallel time ~290 instead of
#: 14-21, ~20x the interactions), so the slow mode's share of the
#: expected cost is in every run.  Another base seed gives 0 to 4
#: slow-mode trials, so run length would follow the seed rather than
#: the program, and a slow-mode n=10^6 trial runs ~250 s, longer than a
#: run may take.  Batch and superbatch are faithful in distribution,
#: not bit-identical across code changes, so a change can move a trial
#: between modes; the record prints each trial's mode.
BATCH_N = 2**16
BATCH_TRIALS = 4
SUPER_N = 10**6
PLL_BASE_SEED = 0

#: The E9 workloads run one fixed campaign whatever the seed.
#: At jobs=2 an E9 run's wall is set by its slowest trials, whose
#: interactions are heavy-tailed per base seed: on a 2-core host, base
#: seed 1000 took 13.2 s and base seed 5000 took 35.6 s for near-equal
#: total work (13.3 M and 14.9 M interactions), so seed-to-seed
#: comparisons would measure the seeds rather than the code.
E9_BASE_SEED = 0

CAMPAIGN_JOBS = 2


class Control:
    """Checkpoint handshake with ``run.py`` over stdin/stdout."""

    def __init__(self) -> None:
        # The program may print; keep stdout for the handshake alone.
        self._out = os.fdopen(os.dup(1), "w")
        os.dup2(2, 1)
        sys.stdout = sys.stderr

    def pause(self, label: str) -> None:
        self._out.write(f"pause {label}\n")
        self._out.flush()
        sys.stdin.readline()


def build_campaign(workload: str) -> CampaignSpec:
    if workload == "pll-stabilize":
        specs = trial_specs("pll", BATCH_N, BATCH_TRIALS, base_seed=PLL_BASE_SEED, engine="auto")
        specs += trial_specs("pll", SUPER_N, 1, base_seed=PLL_BASE_SEED, engine="auto")
        return CampaignSpec(name=workload, trials=tuple(specs))
    return campaign_for("E9", 1.0, E9_BASE_SEED)


def set_up(workload: str, workdir: Path) -> dict:
    """Specs, their hashes, and the store: everything before the first
    trial is dispatched, with each part timed."""
    began = time.perf_counter()
    campaign = build_campaign(workload)
    build_s = time.perf_counter() - began
    specs = campaign.trials
    hash_us = []
    for spec in specs:
        start = time.perf_counter()
        spec.content_hash()
        hash_us.append((time.perf_counter() - start) * 1e6)
    store = None
    start = time.perf_counter()
    if workload == "e9-campaign":
        store = TrialStore(workdir / "e9.sqlite")
    elif workload == "e9-fabric":
        # The shard root and its lease table; each worker opens its own
        # shard in it.  Creating leases.sqlite here, before the workers
        # start, matters: two workers that both find it missing can race
        # on ``PRAGMA journal_mode = WAL`` in ``LeaseManager`` and one
        # dies with "database is locked".
        with ShardedStore(workdir / "fabric") as root:
            with LeaseManager(root.leases_path, worker="setup") as manager:
                manager.live()
    open_s = time.perf_counter() - start
    return {
        "campaign": campaign,
        "specs": specs,
        "store": store,
        "spec_build_s": build_s,
        "spec_hash_us": hash_us,
        "store_open_s": open_s,
    }


def outcome_row(spec, outcome) -> dict:
    return {
        "spec_hash": spec.content_hash(),
        "n": spec.n,
        "seed": spec.seed,
        "engine": spec.engine,
        "steps": outcome.steps,
        "parallel_time": outcome.parallel_time,
        "leader_count": outcome.leader_count,
        "distinct_states": outcome.distinct_states,
    }


def run_pll(ctx: dict, control: Control, log) -> dict:
    # One trial at a time, so the set-up probes run between trials,
    # spread through the run, and never overlap the measured wall.
    wall = 0.0
    failed = 0
    rows = []
    for index, spec in enumerate(ctx["specs"]):
        control.pause(f"before-trial-{index}")
        began = time.perf_counter()
        report = run_specs([spec], jobs=1, on_failure="quarantine")
        trial_wall = time.perf_counter() - began
        wall += trial_wall
        failed += report.failed
        if report.outcomes[0] is not None:
            rows.append({**outcome_row(spec, report.outcomes[0]), "wall_s": trial_wall})
    control.pause("end")
    return {"wall_s": wall, "jobs": 1, "rows": rows, "failed": failed}


def run_campaign(ctx: dict, control: Control, log) -> dict:
    from layers import TimedStore

    campaign = ctx["campaign"]
    store = ctx["store"]
    backend = store if log is None else TimedStore(store, log)
    runner = CampaignRunner(backend, jobs=CAMPAIGN_JOBS)
    control.pause("start")
    began = time.perf_counter()
    result = runner.run(campaign)
    wall = time.perf_counter() - began
    control.pause("before-rerun")
    began = time.perf_counter()
    rerun = runner.run(campaign)
    rerun_s = time.perf_counter() - began
    rows = [
        outcome_row(spec, outcome)
        for spec, outcome in zip(campaign.trials, result.outcomes)
        if outcome is not None
    ]
    stored_duration = sum(float(row["duration"]) for row in store.rows())
    store.close()
    control.pause("end")
    return {
        "wall_s": wall,
        "jobs": CAMPAIGN_JOBS,
        "rows": rows,
        "failed": result.failed,  # quarantined trials are among the failed
        "rerun": {"cached": rerun.cached, "executed": rerun.executed},
        "store_rerun_s": rerun_s,
        "stored_duration_s": stored_duration,
    }


def run_fabric(ctx: dict, control: Control, log, args) -> dict:
    root = args.workdir / "fabric"
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--mode",
        "fabric-worker",
        "--workload",
        "e9-fabric",
        "--workdir",
        str(args.workdir),
        "--trace",
        str(args.trace),
        "--trace-dir",
        str(args.trace_dir),
    ]
    control.pause("start")
    dispatched = time.time()
    workers = [
        subprocess.Popen(
            command + ["--worker", worker],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        for worker in ("w0", "w1")
    ]
    reports = []
    try:
        for worker in workers:
            out, _err = worker.communicate()
            if worker.returncode != 0:
                raise RuntimeError(f"fabric worker exited {worker.returncode}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    began = time.perf_counter()
    merge.merge_store(root)
    merge_s = time.perf_counter() - began
    # First dispatch to the last result being durable, plus the merge.
    # A worker that finds nothing left to claim polls on a fixed period
    # before exiting; that tail is not on the path to the last result
    # and shows as fabric.starved_s / fabric.worker_skew_s instead.
    last_durable = max(report["last_durable_ts"] for report in reports)
    wall = last_durable - dispatched + merge_s
    control.pause("merged")
    hashes = {spec.content_hash() for spec in ctx["specs"]}
    with TrialStore(root / "canonical.sqlite", readonly=True) as canonical:
        rows = [
            {key: row[key] for key in ("spec_hash",) + TRIAL_COLUMNS}
            for row in canonical.rows()
            if row["spec_hash"] in hashes
        ]
        failed = sum(row["spec_hash"] in hashes for row in canonical.failures())
    control.pause("end")
    return {
        "wall_s": wall,
        "jobs": len(workers),
        "rows": rows,
        "failed": failed,
        "worker_walls": [report["wall_s"] for report in reports],
    }


def fabric_worker(args, log) -> None:
    specs = build_campaign("e9-fabric").trials
    sleep = time.sleep
    if log is not None:

        def sleep(seconds: float) -> None:
            start = time.time()
            began = time.perf_counter()
            time.sleep(seconds)
            log.add("fabric.sleep", start, time.perf_counter() - began)

    last_durable = 0.0

    def progress(_done: int, _total: int, outcome) -> None:
        nonlocal last_durable
        if outcome is not None:  # called after the outcome is stored
            last_durable = time.time()

    began = time.perf_counter()
    run_sharded_campaign(
        specs,
        args.workdir / "fabric",
        worker=args.worker,
        jobs=1,
        progress=progress,
        sleep=sleep,
    )
    wall = time.perf_counter() - began
    if log is not None:
        log.flush()
    print(json.dumps({"wall_s": wall, "last_durable_ts": last_durable}))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (pool
    workers, fabric workers), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "setup", "fabric-worker"), default="run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--worker", default="w0")
    args = parser.parse_args(argv)
    if args.trace_dir is None:
        args.trace_dir = args.workdir / "trace"

    log = None
    if args.trace:
        from layers import SpanLog, install

        log = SpanLog(args.trace_dir)
        install(log)
        os.environ["REPRO_TELEMETRY_EVENTS"] = str(
            args.trace_dir / "events-{pid}.jsonl"
        )

    if args.mode == "setup":
        set_up(args.workload, args.workdir)
        print("ready", flush=True)
        return 0
    if args.mode == "fabric-worker":
        fabric_worker(args, log)
        return 0

    control = Control()
    ctx = set_up(args.workload, args.workdir)
    if args.workload == "pll-stabilize":
        result = run_pll(ctx, control, log)
    elif args.workload == "e9-campaign":
        result = run_campaign(ctx, control, log)
    else:
        result = run_fabric(ctx, control, log, args)
    result.update(
        attempted=len(ctx["specs"]),
        spec_build_s=ctx["spec_build_s"],
        spec_hash_us=ctx["spec_hash_us"],
        store_open_s=ctx["store_open_s"],
    )
    summary = {"result": result, "peak_rss_mb": peak_rss_mb()}
    if log is not None:
        from layers import layer_metrics, load_jsonl

        log.flush()
        values, bases = layer_metrics(
            load_jsonl(args.trace_dir, "spans-*.jsonl"),
            load_jsonl(args.trace_dir, "events-*.jsonl"),
            result,
        )
        summary["layer"] = {"values": values, "bases": bases}
    (args.workdir / "result.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
