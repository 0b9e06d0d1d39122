"""Lease-based work claims: crash-recovering work stealing.

A sharded campaign's workers coordinate through one tiny SQLite file
(``leases.sqlite`` in the shard root): before running a cell, a worker
*claims* it — an upsert that succeeds only if the cell is unclaimed,
expired, or already its own — and the claim carries a TTL.  A healthy
worker renews its leases well inside the TTL (between trials, and
mid-trial by piggybacking on the telemetry heartbeat's block-loop poll
— see :class:`LeaseRenewer`); a SIGKILLed or wedged worker stops
renewing, its leases expire, and any surviving worker reclaims and
re-runs the cells.  Re-running is safe by construction: trial outcomes
are deterministic functions of content-hashed specs, so a duplicate
execution upserts an identical row.

The lease table is *advisory*, never load-bearing for correctness — it
only prevents wasted duplicate work.  Losing it (or racing it across a
filesystem without working locks) degrades throughput, not results.
"""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import ExperimentError
from repro.orchestration.store import enable_wal

__all__ = [
    "DEFAULT_LEASE_TTL",
    "Lease",
    "LeaseManager",
    "LeaseRenewer",
]

#: Default seconds a claim stays valid without renewal.  Generous next
#: to the renewal cadence (TTL/4): four missed renewals in a row means
#: the worker is gone or wedged, not slow.
DEFAULT_LEASE_TTL = 120.0

_LEASE_SCHEMA = """
CREATE TABLE IF NOT EXISTS leases (
    spec_hash   TEXT PRIMARY KEY,
    worker      TEXT NOT NULL,
    acquired_at REAL NOT NULL,
    expires_at  REAL NOT NULL,
    renewals    INTEGER NOT NULL DEFAULT 0
);
"""


@dataclass(frozen=True)
class Lease:
    """One live (or expired) work claim."""

    spec_hash: str
    worker: str
    acquired_at: float
    expires_at: float
    renewals: int

    def remaining(self, now: float | None = None) -> float:
        return self.expires_at - (time.time() if now is None else now)


class LeaseManager:
    """TTL work claims for one worker over one ``leases.sqlite``.

    Claims are row-atomic (``INSERT .. ON CONFLICT DO UPDATE .. WHERE``
    inside SQLite's write lock), so two workers racing for one cell
    cannot both win.  Connections are per-process: the manager reopens
    its handle after a fork, so a renewer inherited by a
    ``multiprocessing`` worker keeps working.
    """

    def __init__(
        self,
        path: str | Path,
        worker: str,
        ttl_secs: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not worker:
            raise ExperimentError("a lease manager needs a worker id")
        if ttl_secs <= 0:
            raise ExperimentError(
                f"lease ttl must be positive, got {ttl_secs}"
            )
        self.path = str(path)
        self.worker = worker
        self.ttl_secs = float(ttl_secs)
        self._clock = clock
        self._connection: sqlite3.Connection | None = None
        self._pid: int | None = None

    # -- connection ----------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._connection is None or self._pid != pid:
            # A connection must never cross a fork; reopen lazily in
            # whichever process is asking.
            self._connection = sqlite3.connect(self.path)
            self._connection.execute("PRAGMA busy_timeout = 30000")
            enable_wal(self._connection, 30000)
            self._connection.execute(_LEASE_SCHEMA)
            self._connection.commit()
            self._pid = pid
        return self._connection

    def close(self) -> None:
        if self._connection is not None and self._pid == os.getpid():
            self._connection.close()
        self._connection = None
        self._pid = None

    def __enter__(self) -> "LeaseManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- claims --------------------------------------------------------

    def claim(
        self, spec_hashes: Sequence[str], limit: int | None = None
    ) -> list[str]:
        """Claim up to ``limit`` of ``spec_hashes``; return the wins.

        A hash is claimable when it has no lease, an *expired* lease, or
        a lease this worker already holds (re-claiming one's own live
        lease just renews it).  Claims are attempted in the given order,
        so callers control affinity (e.g. cell-contiguous chunks).
        """
        connection = self._conn()
        now = self._clock()
        claimed: list[str] = []
        with connection:
            for spec_hash in spec_hashes:
                if limit is not None and len(claimed) >= limit:
                    break
                cursor = connection.execute(
                    "INSERT INTO leases"
                    " (spec_hash, worker, acquired_at, expires_at)"
                    " VALUES (?, ?, ?, ?)"
                    " ON CONFLICT(spec_hash) DO UPDATE SET"
                    "  worker = excluded.worker,"
                    "  acquired_at = excluded.acquired_at,"
                    "  expires_at = excluded.expires_at,"
                    "  renewals = 0"
                    " WHERE leases.expires_at <= excluded.acquired_at"
                    "    OR leases.worker = excluded.worker",
                    (spec_hash, self.worker, now, now + self.ttl_secs),
                )
                if cursor.rowcount:
                    claimed.append(spec_hash)
        return claimed

    def renew(self) -> int:
        """Extend every live lease this worker holds; return the count."""
        connection = self._conn()
        now = self._clock()
        with connection:
            cursor = connection.execute(
                "UPDATE leases SET expires_at = ?, renewals = renewals + 1"
                " WHERE worker = ? AND expires_at > ?",
                (now + self.ttl_secs, self.worker, now),
            )
        return cursor.rowcount

    def release(self, spec_hashes: Iterable[str]) -> None:
        """Drop this worker's leases on ``spec_hashes`` (work finished)."""
        connection = self._conn()
        with connection:
            connection.executemany(
                "DELETE FROM leases WHERE spec_hash = ? AND worker = ?",
                [(spec_hash, self.worker) for spec_hash in spec_hashes],
            )

    def release_all(self) -> None:
        """Drop every lease this worker holds (clean shutdown)."""
        connection = self._conn()
        with connection:
            connection.execute(
                "DELETE FROM leases WHERE worker = ?", (self.worker,)
            )

    # -- inspection ----------------------------------------------------

    def _leases(self, where: str, arguments: tuple) -> list[Lease]:
        rows = self._conn().execute(
            "SELECT spec_hash, worker, acquired_at, expires_at, renewals"
            f" FROM leases {where} ORDER BY spec_hash",
            arguments,
        )
        return [Lease(*row) for row in rows]

    def live(self) -> list[Lease]:
        """Every unexpired lease, any worker."""
        return self._leases("WHERE expires_at > ?", (self._clock(),))

    def rows(self) -> list[Lease]:
        """Every lease row, live *or* expired — expired rows are how a
        reclaiming worker knows it is taking over a crashed sibling's
        cell rather than claiming fresh work."""
        return self._leases("", ())

    def holder(self, spec_hash: str) -> Lease | None:
        """The live lease on ``spec_hash``, or ``None``."""
        leases = self._leases(
            "WHERE spec_hash = ? AND expires_at > ?",
            (spec_hash, self._clock()),
        )
        return leases[0] if leases else None

    def next_expiry(self) -> float | None:
        """Seconds until the soonest live lease expires (``None`` when
        no lease is live) — how long a starved worker should wait
        before a reclaim attempt can possibly succeed."""
        now = self._clock()
        row = self._conn().execute(
            "SELECT MIN(expires_at) FROM leases WHERE expires_at > ?",
            (now,),
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return max(0.0, float(row[0]) - now)

    def sweep_expired(self) -> int:
        """Delete expired lease rows (``repro store gc``); return count."""
        connection = self._conn()
        with connection:
            cursor = connection.execute(
                "DELETE FROM leases WHERE expires_at <= ?",
                (self._clock(),),
            )
        return cursor.rowcount


class LeaseRenewer:
    """Wall-clock-throttled lease renewal, pluggable everywhere.

    One instance serves both renewal sites: registered as a telemetry
    beat listener (:func:`repro.telemetry.heartbeat.add_beat_listener`)
    it renews from *inside* a long trial's block loop, and called
    directly from the fabric's progress callback it renews between
    trials.  Renewal cadence is TTL/4, so a lease survives three
    consecutive missed renewals before a sibling can steal the cell.
    """

    def __init__(
        self, manager: LeaseManager, interval_secs: float | None = None
    ) -> None:
        self.manager = manager
        self.interval_secs = (
            manager.ttl_secs / 4.0 if interval_secs is None else interval_secs
        )
        self.renewals = 0
        self._last = time.monotonic()

    def maybe_renew(self) -> None:
        now = time.monotonic()
        if now - self._last < self.interval_secs:
            return
        self._last = now
        self.manager.renew()
        self.renewals += 1

    def __call__(self, event: dict | None = None) -> None:
        """Beat-listener entry point (the event payload is ignored)."""
        self.maybe_renew()
