"""Per-layer spans recorded from outside the program.

:func:`install` wraps public functions and methods of each layer — the
pool's trial entry point, the engines' ``run_until_stabilized``, the
lease manager, the sharded store, the merge — so every call leaves a
span (name, wall-clock start, duration, pid, attributes) in a
:class:`SpanLog`.  Nothing under ``src/`` changes.

Pool workers are forked after :func:`install`, so they inherit the
wrappers; they leave through ``os._exit``, which skips ``atexit``, so a
worker's spans are flushed explicitly at the end of every top-level
task (one ``os.write`` to ``spans-<pid>.jsonl``).  The parent keeps its
spans in memory until :meth:`SpanLog.flush` at the end of the run.

:func:`layer_metrics` folds the spans, the program's own stage-profile
and heartbeat events, and the workload's explicit timings into the
catalogue's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from stats import ratio, timing

from repro.engine.batch import BatchSimulator
from repro.engine.ensemble import EnsembleSimulator
from repro.engine.kernel.multiset import KernelMultisetSimulator
from repro.orchestration import pool
from repro.orchestration.backend import leases, merge, sharded
from repro.orchestration.backend.base import StoreBackend
from repro.telemetry.profile import aggregate_profiles


class SpanLog:
    """In-memory spans of one process, appended to a per-pid file on
    :meth:`flush`."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pid = os.getpid()
        self._spans: list[dict] = []
        #: Open wrapped calls in this process (0 = a top-level call).
        self.depth = 0

    def add(self, name: str, start: float, duration: float, **attrs) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked child: the inherited buffer holds
            # the parent's spans, which the parent flushes itself.
            self._pid = pid
            self._spans = []
            self.depth = 0
        self._spans.append(
            {"name": name, "ts": start, "dur": duration, "pid": pid, **attrs}
        )

    def flush(self) -> None:
        if not self._spans:
            return
        payload = "".join(json.dumps(span) + "\n" for span in self._spans)
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        self._spans = []


def load_jsonl(directory: str | Path, pattern: str) -> list[dict]:
    """Every JSON object in the files of ``directory`` matching ``pattern``."""
    records = []
    for path in sorted(Path(directory).glob(pattern)):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def _wrap(log: SpanLog, owner, attr: str, name: str, describe=None, flush=False):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``describe(args, kwargs, result)`` adds attributes from the call; ``flush``
    writes the process's spans out when a top-level call returns.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.time()
        began = time.perf_counter()
        depth = log.depth
        log.depth = depth + 1
        result = None
        ok = False
        try:
            result = original(*args, **kwargs)
            ok = True
            return result
        finally:
            duration = time.perf_counter() - began
            log.depth = depth
            attrs = describe(args, kwargs, result) if ok and describe else {}
            log.add(name, start, duration, ok=ok, depth=depth, **attrs)
            if flush and depth == 0:
                log.flush()

    setattr(owner, attr, wrapper)


def _engine_run(args, _kwargs, _result) -> dict:
    sim = args[0]
    summary = sim.telemetry_summary()
    attrs = {"engine": summary["engine"], "cache": summary.get("cache", {})}
    if summary["engine"] == "ensemble":
        attrs.update(
            steps=summary["committed_steps"],
            trials=summary["retired_lanes"],
            sweeps=summary["sweeps"],
        )
    else:
        attrs.update(steps=summary["steps"], trials=1)
        attrs["null_steps"] = summary.get("null_steps", 0)
        if "stats" in summary:
            attrs["stats"] = summary["stats"]
    return attrs


def _claim(args, kwargs, result) -> dict:
    spec_hashes = args[1]
    limit = args[2] if len(args) > 2 else kwargs.get("limit")
    asked = len(spec_hashes) if limit is None else min(limit, len(spec_hashes))
    return {"asked": asked, "granted": len(result)}


def install(log: SpanLog) -> None:
    """Wrap every instrumented call site; lasts for the process."""
    _wrap(log, pool, "execute_trial", "pool.trial", flush=True)
    _wrap(log, pool, "build_simulator", "engine.build")
    _wrap(
        log,
        EnsembleSimulator,
        "run_until_stabilized",
        "pool.ensemble",
        describe=_engine_run,
        flush=True,
    )
    _wrap(log, KernelMultisetSimulator, "run_until_stabilized", "engine.run", _engine_run)
    _wrap(log, BatchSimulator, "run_until_stabilized", "engine.run", _engine_run)
    _wrap(log, leases.LeaseManager, "claim", "lease.claim", _claim)
    _wrap(log, leases.LeaseManager, "renew", "lease.renew")
    _wrap(log, leases.LeaseManager, "release", "lease.release")
    _wrap(log, sharded.ShardedStore, "put", "shard.put")
    _wrap(log, sharded.ShardedStore, "completed_hashes", "shard.completed_hashes")
    _wrap(
        log,
        merge,
        "merge_store",
        "merge",
        describe=lambda _args, _kwargs, report: {"rows": report.trials},
    )


class TimedStore(StoreBackend):
    """A :class:`StoreBackend` that delegates to another and records a
    span around the reads and writes the runner makes (``get_many``,
    ``put``)."""

    def __init__(self, inner: StoreBackend, log: SpanLog) -> None:
        self.inner = inner
        self.log = log
        self.path = inner.path
        self.readonly = inner.readonly

    def _timed(self, name: str, call, *args):
        start = time.time()
        began = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.log.add(name, start, time.perf_counter() - began)

    def close(self) -> None:
        self.inner.close()

    def __len__(self) -> int:
        return len(self.inner)

    def get(self, spec):
        return self.inner.get(spec)

    def get_many(self, specs):
        return self._timed("store.get_many", self.inner.get_many, specs)

    def completed_hashes(self):
        return self.inner.completed_hashes()

    def rows(self):
        return self.inner.rows()

    def put(self, spec, outcome) -> None:
        self._timed("store.put", self.inner.put, spec, outcome)

    def put_many(self, items) -> None:
        self.inner.put_many(items)

    def record_failure(self, spec, attempts, error, quarantined=False) -> None:
        self.inner.record_failure(spec, attempts, error, quarantined)

    def clear_failures(self, specs) -> None:
        self.inner.clear_failures(specs)

    def failures(self):
        return self.inner.failures()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


def _durations(spans: list[dict], name: str, scale: float = 1.0) -> list[float]:
    return [span["dur"] * scale for span in spans if span["name"] == name]


def _put_timing(metrics: dict, prefix: str, samples: list[float]) -> None:
    summary = timing(samples)
    for key in ("p50", "ptail", "ptail_q"):
        metrics[f"{prefix}.{key}"] = summary[key]


def layer_metrics(spans: list[dict], events: list[dict], context: dict) -> tuple[dict, dict]:
    """``(metrics, bases)``: every catalogue per-layer metric, and for
    each ratio the numerator and base it was computed from.

    ``context`` carries what the workload timed itself: ``jobs``,
    ``wall_s`` (the measured campaign wall), ``spec_build_s``,
    ``spec_hash_us`` (samples), ``store_open_s``, ``store_rerun_s``,
    ``stored_duration_s`` and ``worker_walls``.  ``trace.overhead_ratio``
    needs the untraced run, so ``run.py`` adds it.
    """
    m: dict[str, float] = {}
    bases: dict[str, dict] = {}

    def put_ratio(name: str, numerator: float, base: float, base_name: str) -> None:
        record = ratio(numerator, base, base_name)
        m[name] = record["value"]
        bases[name] = record

    jobs = context.get("jobs", 1)
    wall = context.get("wall_s", 0.0)
    capacity = jobs * wall

    # spec
    hash_us = context.get("spec_hash_us", [])
    m["spec.trials"] = len(hash_us)
    m["spec.build_s"] = context.get("spec_build_s", 0.0)
    _put_timing(m, "spec.hash_us", hash_us)

    # store
    m["store.open_s"] = context.get("store_open_s", 0.0)
    get_many = _durations(spans, "store.get_many", 1000.0)
    m["store.get_many.calls"] = len(get_many)
    m["store.get_many.ms"] = sum(get_many)
    puts = _durations(spans, "store.put", 1000.0)
    m["store.put.calls"] = len(puts)
    m["store.put.busy_s"] = sum(puts) / 1000.0
    _put_timing(m, "store.put.ms", puts)
    m["store.rerun_s"] = context.get("store_rerun_s", 0.0)
    put_ratio(
        "store.duration_inflation",
        context.get("stored_duration_s", 0.0),
        capacity,
        f"jobs x wall = {jobs} x {wall:.3f} s",
    )

    # pool: top-level trial or ensemble-chunk calls, wherever they ran
    tasks = [
        span
        for span in spans
        if span["name"] in ("pool.trial", "pool.ensemble") and span["depth"] == 0
    ]
    busy = sum(span["dur"] for span in tasks)
    m["pool.tasks"] = len(tasks)
    m["pool.solo_trials"] = sum(span["name"] == "pool.trial" for span in tasks)
    m["pool.ensemble_chunks"] = sum(span["name"] == "pool.ensemble" for span in tasks)
    m["pool.worker_busy_s"] = busy
    put_ratio("pool.utilization", busy, capacity, f"jobs x wall = {jobs} x {wall:.3f} s")
    m["pool.idle_s"] = max(0.0, capacity - busy)

    # engines
    builds = _durations(spans, "engine.build", 1000.0)
    m["engine.build.calls"] = len(builds)
    _put_timing(m, "engine.build_ms", builds)
    runs = [s for s in spans if s["name"] in ("engine.run", "pool.ensemble") and s["ok"]]
    stages: dict[str, dict[str, float]] = {}
    for record in aggregate_profiles(events):
        engine_stages = stages.setdefault(record["engine"], {})
        for stage in record["stages"]:
            engine_stages[stage["stage"]] = (
                engine_stages.get(stage["stage"], 0.0) + stage["seconds"]
            )
    for engine in ("multiset", "ensemble", "batch", "superbatch"):
        prefix = f"engine.{engine}"
        mine = [s for s in runs if s.get("engine") == engine]
        steps = sum(s["steps"] for s in mine)
        busy_s = sum(s["dur"] for s in mine)
        m[f"{prefix}.trials"] = sum(s["trials"] for s in mine)
        m[f"{prefix}.interactions"] = steps
        m[f"{prefix}.busy_s"] = busy_s
        m[f"{prefix}.interactions_per_s"] = steps / busy_s if busy_s else 0.0
        hits = sum(s["cache"].get("hits", 0) for s in mine)
        lookups = sum(
            s["cache"].get(key, 0)
            for s in mine
            for key in ("hits", "misses", "bypasses")
        )
        put_ratio(f"{prefix}.cache_hit_ratio", hits, lookups, "cache lookups")
        if engine in ("batch", "superbatch"):
            stats = [s["stats"] for s in mine]
            blocks = sum(st["blocks"] for st in stats)
            block_steps = sum(st["block_steps"] for st in stats)
            total = sum(
                st["block_steps"]
                + st["collision_steps"]
                + st["null_skipped_steps"]
                + st["null_events"]
                for st in stats
            )
            m[f"{prefix}.blocks"] = blocks
            m[f"{prefix}.mean_block"] = block_steps / blocks if blocks else 0.0
            put_ratio(
                f"{prefix}.collision_ratio",
                sum(st["collision_steps"] for st in stats),
                total,
                "total interactions",
            )
            put_ratio(
                f"{prefix}.null_skip_ratio",
                sum(st["null_skipped_steps"] for st in stats),
                total,
                "total interactions",
            )
            if engine == "superbatch":
                m[f"{prefix}.bisection_iters"] = sum(st.get("bisection_iters", 0) for st in stats)
                m[f"{prefix}.residual_pairs"] = sum(st.get("residual_pairs", 0) for st in stats)
        elif engine == "multiset":
            put_ratio(
                f"{prefix}.null_skip_ratio",
                sum(s["null_steps"] for s in mine),
                steps,
                "total interactions",
            )
        else:
            m[f"{prefix}.sweeps"] = sum(s["sweeps"] for s in mine)
        for stage, seconds in stages.get(engine, {}).items():
            m[f"{prefix}.stage.{stage}_s"] = seconds

    # backend
    claims = [s for s in spans if s["name"] == "lease.claim" and s["ok"]]
    m["lease.claim.calls"] = len(claims)
    _put_timing(m, "lease.claim.ms", [s["dur"] * 1000.0 for s in claims])
    put_ratio(
        "lease.claim.granted_ratio",
        sum(s["granted"] for s in claims),
        sum(s["asked"] for s in claims),
        "cells asked",
    )
    m["lease.renew.calls"] = len(_durations(spans, "lease.renew"))
    m["lease.release.calls"] = len(_durations(spans, "lease.release"))
    shard_puts = _durations(spans, "shard.put", 1000.0)
    m["shard.put.calls"] = len(shard_puts)
    _put_timing(m, "shard.put.ms", shard_puts)
    completed = _durations(spans, "shard.completed_hashes", 1000.0)
    m["shard.completed_hashes.calls"] = len(completed)
    _put_timing(m, "shard.completed_hashes.ms", completed)
    m["fabric.starved_s"] = sum(_durations(spans, "fabric.sleep"))
    walls = context.get("worker_walls", [])
    m["fabric.worker_skew_s"] = max(walls) - min(walls) if walls else 0.0
    merges = [s for s in spans if s["name"] == "merge" and s["ok"]]
    m["merge.s"] = sum(s["dur"] for s in merges)
    m["merge.rows"] = sum(s["rows"] for s in merges)

    # telemetry and tracing
    m["telemetry.beats"] = sum(1 for e in events if e.get("event") == "heartbeat")
    m["trace.spans"] = len(spans)
    return m, bases
