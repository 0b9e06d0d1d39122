"""The sharded campaign worker loop (``repro campaign run --shard``).

One :func:`run_sharded_campaign` call is one *worker* of a distributed
campaign: it opens its private shard in the shared store root, then
loops — claim a chunk of unfinished cells through the lease table, run
them with the ordinary trial pool, release, repeat — until every spec
in the campaign is either stored or quarantined *somewhere* in the
federated view.  Any number of workers (processes or machines sharing
the root) run the same loop concurrently; the lease table keeps them
off each other's cells, and content-hashed idempotent writes make the
residual races (a lease expiring under a slow-but-alive worker)
harmless duplicates rather than corruption.

Crash recovery is emergent from the pieces, not special-cased here:

* A SIGKILLed worker stops renewing; its leases expire after the TTL
  and a survivor reclaims the cells on its next loop iteration.
* If the dead worker had in-trial checkpoints enabled
  (:mod:`repro.faults.checkpoint`) against a shared checkpoint
  directory, the reclaiming worker's engines resume from the last
  checkpoint automatically — the checkpoint files are keyed by spec
  hash, not by worker.
* Whatever the dead worker *had* committed is still in its shard file,
  visible to every survivor's federated reads, and folded in by the
  next ``repro store merge``.

Mid-trial lease renewal piggybacks on the telemetry heartbeat's
block-loop poll (:class:`~repro.orchestration.backend.leases.LeaseRenewer`
registered as a beat listener), so a single trial longer than the TTL
does not get stolen from a healthy worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.orchestration.backend.leases import (
    DEFAULT_LEASE_TTL,
    LeaseRenewer,
)
from repro.orchestration.backend.sharded import ShardedStore
from repro.orchestration.pool import ProgressCallback, run_specs
from repro.orchestration.spec import TrialSpec
from repro.telemetry.heartbeat import add_beat_listener, remove_beat_listener

__all__ = ["FabricReport", "run_sharded_campaign"]

#: Starvation waits (seconds) start at ``_MIN_WAIT`` and double per
#: fruitless re-check up to ``_MAX_WAIT``; any progress (cells won, or
#: fewer cells missing because a sibling finished some) resets them.  A
#: sibling finishing unblocks us without any lease expiring, so short
#: early polls keep a worker from outliving the last result by seconds,
#: while the cap bounds the polling of a long wait.
_MIN_WAIT = 0.05
_MAX_WAIT = 5.0


@dataclass(frozen=True)
class FabricReport:
    """One worker's share of a sharded campaign."""

    worker: str
    root: str
    total: int
    #: Trials this worker executed (fresh outcomes written to its shard).
    executed: int
    #: Trials that were already stored when this worker first looked.
    cached: int
    #: Claim rounds this worker won work in.
    rounds: int
    #: Rounds spent waiting on siblings' live leases.
    starved_rounds: int
    #: Cells claimed off an expired sibling lease (crash takeover).
    reclaimed: int
    #: Specs quarantined campaign-wide when the worker finished.
    quarantined: int

    def render(self) -> str:
        parts = [
            f"worker {self.worker}: {self.executed} executed,"
            f" {self.cached} cached, {self.rounds} claim round(s)",
        ]
        if self.reclaimed:
            parts.append(
                f"  reclaimed {self.reclaimed} cell(s) from expired leases"
            )
        if self.starved_rounds:
            parts.append(
                f"  waited through {self.starved_rounds} starved round(s)"
            )
        if self.quarantined:
            parts.append(f"  {self.quarantined} spec(s) quarantined")
        return "\n".join(parts)


def run_sharded_campaign(
    specs: Sequence[TrialSpec],
    root: str | Path,
    worker: str,
    jobs: int = 1,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    claim_chunk: int | None = None,
    progress: ProgressCallback | None = None,
    retries: int = 0,
    trial_timeout: float | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> FabricReport:
    """Run one worker of a sharded campaign until nothing is left.

    ``claim_chunk`` bounds how many cells one claim round grabs
    (default ``max(4, 2 * jobs)``): small enough that a crash orphans
    little work for one TTL, large enough to keep a multi-process pool
    fed.  Failures are always run in *quarantine* mode — a distributed
    worker aborting on a poison cell would just make every sibling
    retry the same poison, so the failure ledger (federated at merge
    time) is the single place poison cells are reported.

    Returns when every spec is stored or quarantined in the federated
    view — which may include work *other* workers did; a worker that
    claims nothing but sees siblings still holding leases waits for
    the earliest expiry (bounded) and re-checks rather than exiting
    with the campaign incomplete.
    """
    if not worker:
        raise ExperimentError("a sharded campaign worker needs an id")
    chunk = max(4, 2 * jobs) if claim_chunk is None else claim_chunk
    if chunk < 1:
        raise ExperimentError(
            f"claim chunk must be positive, got {chunk}"
        )
    store = ShardedStore(root, worker=worker)
    manager = store.lease_manager(ttl_secs=lease_ttl)
    renewer = LeaseRenewer(manager)
    add_beat_listener(renewer)
    executed = 0
    cached: int | None = None
    rounds = 0
    starved = 0
    reclaimed = 0
    by_hash = {spec.content_hash(): spec for spec in specs}
    wait = _MIN_WAIT
    last_missing = len(by_hash) + 1
    try:
        while True:
            done = store.completed_hashes()
            if cached is None:
                cached = sum(1 for key in by_hash if key in done)
            quarantined = {
                str(row["spec_hash"])
                for row in store.failures()
                if row["quarantined"]
            }
            missing = [
                key
                for key in by_hash
                if key not in done and key not in quarantined
            ]
            if not missing:
                break
            if len(missing) < last_missing:
                wait = _MIN_WAIT
            last_missing = len(missing)
            # Deterministic claim order (cell-sorted) gives sibling
            # workers disjoint prefixes the fastest way possible: the
            # loser of a race on hash k moves on to k+1.
            missing.sort(
                key=lambda key: (
                    by_hash[key].protocol,
                    by_hash[key].n,
                    by_hash[key].engine,
                    by_hash[key].seed,
                )
            )
            # All rows, not just live ones: an *expired* row under a
            # different worker's name is exactly what a crash takeover
            # looks like at claim time.
            held_before = {
                lease.spec_hash: lease.worker for lease in manager.rows()
            }
            won = manager.claim(missing, limit=chunk)
            if not won:
                # Every missing cell is under a sibling's live lease.
                # Wait for the soonest possible change of state: a
                # lease expiry, or (bounded poll) a sibling finishing.
                starved += 1
                expiry = manager.next_expiry()
                sleep(min(wait, expiry) if expiry else wait)
                wait = min(2 * wait, _MAX_WAIT)
                continue
            wait = _MIN_WAIT
            rounds += 1
            reclaimed += sum(
                1
                for key in won
                if held_before.get(key) not in (None, worker)
            )
            claimed_specs = [by_hash[key] for key in won]
            renewer.maybe_renew()

            def renewing_progress(done_n, total_n, outcome):
                renewer.maybe_renew()
                if progress is not None:
                    progress(done_n, total_n, outcome)

            report = run_specs(
                claimed_specs,
                jobs=jobs,
                store=store,
                progress=renewing_progress,
                retries=retries,
                trial_timeout=trial_timeout,
                on_failure="quarantine",
            )
            executed += report.executed
            manager.release(won)
        final_quarantined = sum(
            1
            for row in store.failures()
            if row["quarantined"] and str(row["spec_hash"]) in by_hash
        )
        return FabricReport(
            worker=worker,
            root=str(root),
            total=len(by_hash),
            executed=executed,
            cached=cached or 0,
            rounds=rounds,
            starved_rounds=starved,
            reclaimed=reclaimed,
            quarantined=final_quarantined,
        )
    finally:
        remove_beat_listener(renewer)
        try:
            manager.release_all()
        finally:
            manager.close()
            store.close()
