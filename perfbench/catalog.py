"""Names, units and intent of everything the benchmark reports.

One table serves three readers: ``run.py`` emits exactly these metrics,
``BENCHMARK.json`` lists them (a test keeps the two in step), and the
traced record prints, for every per-layer metric, the layer it times,
the base of every ratio, and the end-to-end metric and workload it is
expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (name, why) — each workload runs in its own fresh process.
WORKLOADS = (
    (
        "pll-stabilize",
        "PLL to stabilization in-process, one fixed list: batch n=2^16 seeds 0-3 (seed 3 "
        "ends in the slow mode) and superbatch n=10^6 seed 0: engine layers, no pool or store",
    ),
    (
        "e9-campaign",
        "full E9 (288 PLL trials, n=64..2048, base seed 0) through CampaignRunner at "
        "jobs=2 on one SQLite store: spec hashing, pool fork/IPC, ensemble lanes, store writes",
    ),
    (
        "e9-fabric",
        "the same 288 trials through two sharded-fabric workers and a merge: same "
        "engine work as e9-campaign, so the difference isolates leases and shards",
    ),
)

WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

#: Every run reports each completed trial with its ``spec_hash`` and
#: these deterministic columns, under the trial store's column names.
TRIAL_COLUMNS = (
    "n",
    "seed",
    "engine",
    "steps",
    "parallel_time",
    "leader_count",
    "distinct_states",
)


#: Every workload is one fixed work list, run once per call, so that two
#: commits always measure the same work; ``--seconds`` does not size it.
#: On a 2-core host each measures longer than this: 31-58 s, 8-12 s and
#: 9-12 s, depending on the host's speed at the time.
RUN_SECONDS = 5


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float | None = None
    #: Per-layer metrics: the layer whose calls the metric times.
    layer: str = ""
    #: Per-layer metrics: "<e2e metric> on <workloads>", or "none".
    moves: str = ""
    #: Ratios: what the numerator is divided by.
    base: str = ""


E2E = (
    Metric("trials_per_s", "trials/s", "higher", bound=0.25),
    Metric("interactions_per_s", "interactions/s", "higher", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.25),
    Metric(
        "success_ratio",
        "ratio",
        "higher",
        bound=0.01,
        base="trials attempted (success_ratio = 1 - failure_ratio)",
    ),
)

_SPEC = "experiments.campaigns/orchestration.spec"
_STORE = "orchestration.store"
_POOL = "orchestration.pool"
_BACKEND = "orchestration.backend"
_E9 = "e9-campaign, e9-fabric"
_SETUP_E9 = f"setup_s on {_E9}"
_TRIALS_CAMPAIGN = "trials_per_s on e9-campaign"
_TRIALS_FABRIC = "trials_per_s on e9-fabric"
_PLL = "interactions_per_s, trials_per_s on pll-stabilize"
_E9_TRIALS = f"trials_per_s on {_E9}"


def _timing(name: str, unit: str, layer: str, moves: str) -> list[Metric]:
    """p50, the highest percentile with >= 10 samples beyond it, and
    which percentile that was (0 when fewer than 20 samples)."""
    return [
        Metric(f"{name}.p50", unit, "lower", layer=layer, moves=moves),
        Metric(f"{name}.ptail", unit, "lower", layer=layer, moves=moves),
        Metric(f"{name}.ptail_q", "percentile", "higher", layer=layer, moves=moves),
    ]


def _layer_metrics() -> list[Metric]:
    m: list[Metric] = []
    add = m.append
    # experiments.campaigns / orchestration.spec
    add(Metric("spec.trials", "count", "higher", layer=_SPEC, moves=_SETUP_E9))
    add(Metric("spec.build_s", "s", "lower", layer=_SPEC, moves=_SETUP_E9))
    m += _timing("spec.hash_us", "us", _SPEC, _SETUP_E9)
    # orchestration.store
    add(Metric("store.open_s", "s", "lower", layer=_STORE, moves=_SETUP_E9))
    add(Metric("store.get_many.calls", "count", "lower", layer=_STORE, moves=_TRIALS_CAMPAIGN))
    add(Metric("store.get_many.ms", "ms", "lower", layer=_STORE, moves=_TRIALS_CAMPAIGN))
    add(Metric("store.put.calls", "count", "lower", layer=_STORE, moves=_TRIALS_CAMPAIGN))
    add(Metric("store.put.busy_s", "s", "lower", layer=_STORE, moves=_TRIALS_CAMPAIGN))
    m += _timing("store.put.ms", "ms", _STORE, _TRIALS_CAMPAIGN)
    add(Metric("store.rerun_s", "s", "lower", layer=_STORE, moves=_TRIALS_CAMPAIGN))
    add(
        Metric(
            "store.duration_inflation",
            "ratio",
            "lower",
            layer=_STORE,
            moves="none (falls to <= 1 once stored durations are per-trial costs)",
            base="jobs x campaign wall seconds (numerator: sum of stored durations)",
        )
    )
    # orchestration.pool
    add(Metric("pool.tasks", "count", "lower", layer=_POOL, moves=_TRIALS_CAMPAIGN))
    add(Metric("pool.solo_trials", "count", "lower", layer=_POOL, moves=_TRIALS_CAMPAIGN))
    add(Metric("pool.ensemble_chunks", "count", "lower", layer=_POOL, moves=_TRIALS_CAMPAIGN))
    add(Metric("pool.worker_busy_s", "s", "lower", layer=_POOL, moves=_TRIALS_CAMPAIGN))
    add(
        Metric(
            "pool.utilization",
            "ratio",
            "higher",
            layer=_POOL,
            moves=_TRIALS_CAMPAIGN,
            base="jobs x campaign wall seconds (numerator: worker busy seconds)",
        )
    )
    add(Metric("pool.idle_s", "s", "lower", layer=_POOL, moves=_TRIALS_CAMPAIGN))
    # engines
    add(Metric("engine.build.calls", "count", "higher", layer="engine", moves=_PLL))
    m += _timing("engine.build_ms", "ms", "engine", _PLL)
    for engine, moves in (
        ("multiset", _E9_TRIALS),
        ("ensemble", _E9_TRIALS),
        ("batch", _PLL),
        ("superbatch", _PLL),
    ):
        layer = f"engine.{engine}"
        prefix = f"engine.{engine}"
        add(Metric(f"{prefix}.trials", "count", "higher", layer=layer, moves=moves))
        add(Metric(f"{prefix}.interactions", "interactions", "higher", layer=layer, moves=moves))
        add(Metric(f"{prefix}.busy_s", "s", "lower", layer=layer, moves=moves))
        add(Metric(f"{prefix}.interactions_per_s", "interactions/s", "higher", layer=layer, moves=moves))
        add(
            Metric(
                f"{prefix}.cache_hit_ratio",
                "ratio",
                "higher",
                layer=layer,
                moves=moves,
                base="transition-cache lookups (hits + misses + bypasses)",
            )
        )
        if engine in ("batch", "superbatch"):
            add(Metric(f"{prefix}.blocks", "count", "lower", layer=layer, moves=moves))
            add(Metric(f"{prefix}.mean_block", "interactions", "higher", layer=layer, moves=moves))
            add(
                Metric(
                    f"{prefix}.collision_ratio",
                    "ratio",
                    "lower",
                    layer=layer,
                    moves=moves,
                    base="total interactions (numerator: collision_steps)",
                )
            )
        if engine != "ensemble":
            add(
                Metric(
                    f"{prefix}.null_skip_ratio",
                    "ratio",
                    "higher",
                    layer=layer,
                    moves=moves,
                    base="total interactions (numerator: null interactions skipped)",
                )
            )
        if engine == "ensemble":
            add(Metric(f"{prefix}.sweeps", "count", "lower", layer=layer, moves=moves))
        stages = {
            "multiset": ("kernel_fill",),
            "ensemble": ("sweep", "retire", "kernel_fill"),
            "batch": ("sample", "apply", "detect", "commit", "kernel_fill", "null"),
            "superbatch": ("sample", "apply", "detect", "commit", "kernel_fill", "null"),
        }[engine]
        for stage in stages:
            add(Metric(f"{prefix}.stage.{stage}_s", "s", "lower", layer=layer, moves=moves))
    add(Metric("engine.superbatch.bisection_iters", "count", "lower", layer="engine.superbatch", moves=_PLL))
    add(Metric("engine.superbatch.residual_pairs", "count", "lower", layer="engine.superbatch", moves=_PLL))
    # orchestration.backend (the fabric)
    add(Metric("lease.claim.calls", "count", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    m += _timing("lease.claim.ms", "ms", _BACKEND, _TRIALS_FABRIC)
    add(
        Metric(
            "lease.claim.granted_ratio",
            "ratio",
            "higher",
            layer=_BACKEND,
            moves=_TRIALS_FABRIC,
            base="cells asked (min(limit, candidates) per claim)",
        )
    )
    add(Metric("lease.renew.calls", "count", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    add(Metric("lease.release.calls", "count", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    add(Metric("shard.put.calls", "count", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    m += _timing("shard.put.ms", "ms", _BACKEND, _TRIALS_FABRIC)
    add(Metric("shard.completed_hashes.calls", "count", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    m += _timing("shard.completed_hashes.ms", "ms", _BACKEND, _TRIALS_FABRIC)
    add(Metric("fabric.starved_s", "s", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    add(Metric("fabric.worker_skew_s", "s", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    add(Metric("merge.s", "s", "lower", layer=_BACKEND, moves=_TRIALS_FABRIC))
    add(Metric("merge.rows", "count", "higher", layer=_BACKEND, moves=_TRIALS_FABRIC))
    # telemetry and the tracing itself
    add(Metric("telemetry.beats", "count", "lower", layer="telemetry", moves="interactions_per_s on pll-stabilize"))
    add(Metric("trace.spans", "count", "lower", layer="trace", moves="none"))
    add(
        Metric(
            "trace.overhead_ratio",
            "ratio",
            "lower",
            layer="trace",
            moves="none",
            base="untraced wall seconds of the same workload and seed, same invocation",
        )
    )
    return m


LAYER = tuple(_layer_metrics())


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in E2E
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER
        ],
    }

