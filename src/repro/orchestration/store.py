"""Persistent SQLite-backed cache of trial outcomes.

Every completed :class:`~repro.orchestration.spec.TrialOutcome` is stored
keyed by its spec's content hash.  Re-running a campaign therefore only
executes the trials missing from the store — which is also exactly what a
crash/Ctrl-C leaves behind, so resumption needs no extra bookkeeping:
``repro campaign resume`` is ``run`` against the same store.

Only the orchestrating (parent) process writes; ``multiprocessing``
workers return outcomes over IPC.  The stdlib :mod:`sqlite3` module is the
only dependency, and writes are committed per batch so a kill mid-campaign
loses at most the in-flight trial.

Schema evolution: writable opens migrate older stores in place by adding
the missing columns (``duration``, ``telemetry``, ``phases``,
``faults``, ``scheduler``) with backfill defaults; readonly opens
tolerate their absence instead, so ``status``/``report`` against a pre-migration store
keeps working without write access.

Concurrency hardening (the default backend of the distributed campaign
fabric — see :mod:`repro.orchestration.backend`): writable opens enable
WAL journal mode, so concurrent readers never block a writer and a
reader never sees a half-committed batch, and every open sets a
``busy_timeout`` (default 30 s, overridable per open or via
:data:`BUSY_TIMEOUT_ENV`) so two writers racing for the write lock
queue instead of surfacing ``database is locked`` to one of them.

The campaign fabric's robustness ledger lives here too: a ``failures``
table records specs that errored or timed out — attempt counts, the
offending seed, the last error, and whether the spec was quarantined —
so ``repro campaign status`` can report what a completed-with-failures
campaign skipped, and a later ``resume`` can retry it.
"""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ExperimentError
from repro.orchestration.backend.base import StoreBackend
from repro.orchestration.spec import TrialOutcome, TrialSpec

__all__ = [
    "BUSY_TIMEOUT_ENV",
    "DEFAULT_BUSY_TIMEOUT_MS",
    "DEFAULT_STORE_PATH",
    "TrialStore",
    "enable_wal",
]

#: Where campaign outcomes land unless ``--store`` says otherwise.
DEFAULT_STORE_PATH = ".repro-store.sqlite"

#: How long (milliseconds) an open blocks on another connection's write
#: lock before giving up.  30 s rides out any realistic ``put_many``
#: batch commit from a sibling worker; override per open (ctor) or per
#: process (:data:`BUSY_TIMEOUT_ENV`).
DEFAULT_BUSY_TIMEOUT_MS = 30_000

#: Environment override for the SQLite busy timeout, in milliseconds.
BUSY_TIMEOUT_ENV = "REPRO_SQLITE_BUSY_TIMEOUT_MS"


def busy_timeout_ms(override: int | None = None) -> int:
    """The effective busy timeout: ctor override, env, then default."""
    if override is not None:
        return max(0, int(override))
    raw = os.environ.get(BUSY_TIMEOUT_ENV)
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_BUSY_TIMEOUT_MS


def enable_wal(
    connection: sqlite3.Connection,
    timeout_ms: int,
    sleep=time.sleep,
    clock=time.monotonic,
) -> None:
    """Switch ``connection`` to WAL, retrying while the file is locked.

    The busy timeout does not cover the journal-mode switch: when
    several processes open a fresh file at once, ``PRAGMA journal_mode
    = WAL`` can fail at once with ``database is locked`` (SQLite
    reports the deadlock-prone lock upgrade as busy without waiting).
    Retry with exponential backoff, 1 ms doubling to 100 ms, for at
    most ``timeout_ms``; past that the last error propagates.
    """
    deadline = clock() + timeout_ms / 1000.0
    delay = 0.001
    while True:
        try:
            connection.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or clock() + delay > deadline:
                raise
        sleep(delay)
        delay = min(2 * delay, 0.1)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS trials (
    spec_hash       TEXT PRIMARY KEY,
    protocol        TEXT NOT NULL,
    n               INTEGER NOT NULL,
    seed            INTEGER NOT NULL,
    engine          TEXT NOT NULL,
    spec_json       TEXT NOT NULL,
    steps           INTEGER NOT NULL,
    parallel_time   REAL NOT NULL,
    leader_count    INTEGER NOT NULL,
    distinct_states INTEGER NOT NULL,
    duration        REAL NOT NULL DEFAULT 0.0,
    telemetry       TEXT,
    phases          TEXT,
    faults          TEXT,
    scheduler       TEXT,
    created_at      TEXT NOT NULL DEFAULT (datetime('now'))
);
CREATE INDEX IF NOT EXISTS idx_trials_protocol_n ON trials (protocol, n);
"""

#: Failed/quarantined specs (campaign-fabric robustness ledger).  Rows
#: are keyed by spec hash like trials; a successful retry deletes the
#: row, so the table holds only *outstanding* failures.
_FAILURES_SCHEMA = """
CREATE TABLE IF NOT EXISTS failures (
    spec_hash   TEXT PRIMARY KEY,
    protocol    TEXT NOT NULL,
    n           INTEGER NOT NULL,
    seed        INTEGER NOT NULL,
    engine      TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    attempts    INTEGER NOT NULL,
    error       TEXT NOT NULL,
    quarantined INTEGER NOT NULL DEFAULT 0,
    updated_at  TEXT NOT NULL DEFAULT (datetime('now'))
);
"""

#: Columns added after the original (PR 1) schema, with the ALTER clause
#: that retrofits each.  Order matters only for readability; each ALTER
#: is applied independently when its column is missing.
_MIGRATIONS = (
    ("duration", "ALTER TABLE trials ADD COLUMN duration REAL NOT NULL DEFAULT 0.0"),
    ("telemetry", "ALTER TABLE trials ADD COLUMN telemetry TEXT"),
    ("phases", "ALTER TABLE trials ADD COLUMN phases TEXT"),
    ("faults", "ALTER TABLE trials ADD COLUMN faults TEXT"),
    ("scheduler", "ALTER TABLE trials ADD COLUMN scheduler TEXT"),
)


class TrialStore(StoreBackend):
    """Content-addressed trial cache over one SQLite file.

    ``path=":memory:"`` gives an ephemeral store (useful in tests and for
    callers that want pooling without persistence).  ``readonly=True``
    opens an existing store without creating or modifying anything —
    the mode for ``repro campaign status|report``, which must not leave
    an empty database behind (or silently mask a mistyped ``--store``
    path as an empty cache).

    Writable file-backed opens run in WAL journal mode with a busy
    timeout (see the module docstring), so N processes can hammer one
    store concurrently without ``database is locked`` failures; the WAL
    switch is persistent, sticking for every later open of the file.
    """

    def __init__(
        self,
        path: str | Path = DEFAULT_STORE_PATH,
        readonly: bool = False,
        busy_timeout: int | None = None,
    ) -> None:
        self.path = str(path)
        self.readonly = readonly
        timeout_ms = busy_timeout_ms(busy_timeout)
        try:
            if readonly:
                self._connection = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True
                )
                self._connection.execute(
                    f"PRAGMA busy_timeout = {timeout_ms}"
                )
                has_table = self._connection.execute(
                    "SELECT 1 FROM sqlite_master WHERE name = 'trials'"
                ).fetchone()
                if has_table is None:
                    raise ExperimentError(
                        f"{self.path!r} is not a trial store"
                    )
            else:
                self._connection = sqlite3.connect(self.path)
                self._connection.execute(
                    f"PRAGMA busy_timeout = {timeout_ms}"
                )
                # WAL is what lets N writer processes share one store:
                # writers queue on one lock (bounded by busy_timeout)
                # while readers go on reading the last committed state.
                # In-memory stores have no journal to switch (the pragma
                # reports "memory"); that is fine, they are single-process
                # by construction.
                enable_wal(self._connection, timeout_ms)
                self._connection.executescript(_SCHEMA)
                self._connection.executescript(_FAILURES_SCHEMA)
                self._connection.commit()
            self._migrate()
        except sqlite3.Error as exc:
            hint = (
                " (has the campaign been run yet?)" if readonly else ""
            )
            raise ExperimentError(
                f"cannot open trial store {self.path!r}: {exc}{hint}"
            ) from exc

    def _migrate(self) -> None:
        """Bring an older store up to the current schema.

        Writable stores gain the missing columns via ``ALTER TABLE``
        (backfilled with the column defaults: zero duration, NULL
        telemetry).  Readonly stores cannot be altered, so reads fall
        back to the defaults per missing column instead.
        """
        present = {
            row[1]
            for row in self._connection.execute(
                "PRAGMA table_info(trials)"
            ).fetchall()
        }
        self._has_duration = "duration" in present
        self._has_telemetry = "telemetry" in present
        self._has_phases = "phases" in present
        self._has_faults = "faults" in present
        self._has_scheduler = "scheduler" in present
        self._has_failures = (
            self._connection.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'failures'"
            ).fetchone()
            is not None
        )
        if self.readonly:
            return
        migrated = False
        for column, alter in _MIGRATIONS:
            if column not in present:
                self._connection.execute(alter)
                migrated = True
        if migrated:
            self._connection.commit()
        self._has_duration = True
        self._has_telemetry = True
        self._has_phases = True
        self._has_faults = True
        self._has_scheduler = True
        self._has_failures = True

    def _outcome_columns(self) -> str:
        duration = "duration" if self._has_duration else "0.0 AS duration"
        telemetry = "telemetry" if self._has_telemetry else "NULL AS telemetry"
        phases = "phases" if self._has_phases else "NULL AS phases"
        faults = "faults" if self._has_faults else "NULL AS faults"
        scheduler = (
            "scheduler" if self._has_scheduler else "NULL AS scheduler"
        )
        return (
            "seed, steps, parallel_time, leader_count, distinct_states, "
            f"{duration}, {telemetry}, {phases}, {faults}, {scheduler}"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM trials"
        ).fetchone()
        return int(count)

    def __contains__(self, spec: TrialSpec) -> bool:
        return self.get(spec) is not None

    def get(self, spec: TrialSpec) -> TrialOutcome | None:
        """The cached outcome for ``spec``, or ``None``."""
        row = self._connection.execute(
            f"SELECT {self._outcome_columns()}"
            " FROM trials WHERE spec_hash = ?",
            (spec.content_hash(),),
        ).fetchone()
        return None if row is None else _outcome_from_row(row)

    def get_many(
        self, specs: Sequence[TrialSpec]
    ) -> dict[str, TrialOutcome]:
        """Cached outcomes for ``specs``, keyed by spec content hash."""
        results: dict[str, TrialOutcome] = {}
        hashes = [spec.content_hash() for spec in specs]
        # SQLite caps the number of bound parameters; chunk the IN list.
        for start in range(0, len(hashes), 500):
            chunk = hashes[start : start + 500]
            placeholders = ",".join("?" * len(chunk))
            rows = self._connection.execute(
                f"SELECT spec_hash, {self._outcome_columns()} FROM trials"
                f" WHERE spec_hash IN ({placeholders})",
                chunk,
            ).fetchall()
            for spec_hash, *rest in rows:
                results[spec_hash] = _outcome_from_row(rest)
        return results

    def completed_hashes(self) -> set[str]:
        """Every stored trial's spec hash (the store's "done" set).

        The campaign fabric's work-claiming and ``repro store gc`` both
        key on this: a hash in the set means the trial's outcome is
        durable and any leftover artifact keyed by it (lease row,
        checkpoint file) is garbage.
        """
        return {
            row[0]
            for row in self._connection.execute(
                "SELECT spec_hash FROM trials"
            )
        }

    def journal_mode(self) -> str:
        """The connection's active journal mode (``wal`` for hardened
        file stores, ``memory`` for ``:memory:`` ones)."""
        (mode,) = self._connection.execute(
            "PRAGMA journal_mode"
        ).fetchone()
        return str(mode).lower()

    def rows(self) -> Iterator[dict[str, object]]:
        """Every stored trial as a plain dict, for aggregation/reporting.

        Yields the spec-identity columns alongside the outcome ones so
        consumers (``repro telemetry report``) can group by cell without
        re-parsing ``spec_json`` for the common keys.
        """
        cursor = self._connection.execute(
            "SELECT spec_hash, protocol, n, seed, engine, spec_json,"
            f" steps, parallel_time, leader_count, distinct_states,"
            f" {'duration' if self._has_duration else '0.0'},"
            f" {'telemetry' if self._has_telemetry else 'NULL'},"
            f" {'phases' if self._has_phases else 'NULL'},"
            f" {'faults' if self._has_faults else 'NULL'},"
            f" {'scheduler' if self._has_scheduler else 'NULL'}"
            " FROM trials ORDER BY protocol, n, engine, seed"
        )
        names = (
            "spec_hash",
            "protocol",
            "n",
            "seed",
            "engine",
            "spec_json",
            "steps",
            "parallel_time",
            "leader_count",
            "distinct_states",
            "duration",
            "telemetry",
            "phases",
            "faults",
            "scheduler",
        )
        for row in cursor:
            yield dict(zip(names, row))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, spec: TrialSpec, outcome: TrialOutcome) -> None:
        """Persist one outcome (idempotent: same hash overwrites)."""
        self.put_many([(spec, outcome)])

    def put_many(
        self, items: Iterable[tuple[TrialSpec, TrialOutcome]]
    ) -> None:
        """Persist a batch of outcomes in one transaction."""
        rows = []
        for spec, outcome in items:
            if outcome.seed != spec.seed:
                raise ExperimentError(
                    f"outcome seed {outcome.seed} does not match spec seed "
                    f"{spec.seed} (protocol {spec.protocol!r}, n={spec.n})"
                )
            rows.append(
                (
                    spec.content_hash(),
                    spec.protocol,
                    spec.n,
                    spec.seed,
                    spec.engine,
                    spec.to_json(),
                    outcome.steps,
                    outcome.parallel_time,
                    outcome.leader_count,
                    outcome.distinct_states,
                    outcome.duration,
                    outcome.telemetry,
                    outcome.phases,
                    outcome.faults,
                    outcome.scheduler,
                )
            )
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO trials"
                " (spec_hash, protocol, n, seed, engine, spec_json, steps,"
                "  parallel_time, leader_count, distinct_states, duration,"
                "  telemetry, phases, faults, scheduler)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # ------------------------------------------------------------------
    # failure ledger (campaign-fabric robustness)
    # ------------------------------------------------------------------

    def record_failure(
        self,
        spec: TrialSpec,
        attempts: int,
        error: str,
        quarantined: bool = False,
    ) -> None:
        """Upsert one outstanding failure for ``spec``."""
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO failures"
                " (spec_hash, protocol, n, seed, engine, spec_json,"
                "  attempts, error, quarantined, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, datetime('now'))",
                (
                    spec.content_hash(),
                    spec.protocol,
                    spec.n,
                    spec.seed,
                    spec.engine,
                    spec.to_json(),
                    int(attempts),
                    str(error),
                    1 if quarantined else 0,
                ),
            )

    def clear_failure(self, spec: TrialSpec) -> None:
        """Drop the failure row for ``spec`` (it succeeded after all)."""
        self.clear_failures([spec])

    def clear_failures(self, specs: Iterable[TrialSpec]) -> None:
        """Drop the failure rows for ``specs`` in one transaction."""
        with self._connection:
            self._connection.executemany(
                "DELETE FROM failures WHERE spec_hash = ?",
                [(spec.content_hash(),) for spec in specs],
            )

    def failures(self) -> list[dict[str, object]]:
        """Every outstanding failure as a plain dict (empty when the
        table is absent — pre-migration readonly stores)."""
        if not self._has_failures:
            return []
        cursor = self._connection.execute(
            "SELECT spec_hash, protocol, n, seed, engine, spec_json,"
            " attempts, error, quarantined, updated_at"
            " FROM failures ORDER BY protocol, n, engine, seed"
        )
        names = (
            "spec_hash",
            "protocol",
            "n",
            "seed",
            "engine",
            "spec_json",
            "attempts",
            "error",
            "quarantined",
            "updated_at",
        )
        rows = []
        for row in cursor:
            record = dict(zip(names, row))
            record["quarantined"] = bool(record["quarantined"])
            rows.append(record)
        return rows


def _outcome_from_row(row: Sequence[object]) -> TrialOutcome:
    (
        seed,
        steps,
        parallel_time,
        leader_count,
        distinct_states,
        duration,
        telemetry,
        phases,
        faults,
        scheduler,
    ) = row
    return TrialOutcome(
        seed=int(seed),
        steps=int(steps),
        parallel_time=float(parallel_time),
        leader_count=int(leader_count),
        distinct_states=int(distinct_states),
        duration=float(duration),
        telemetry=None if telemetry is None else str(telemetry),
        phases=None if phases is None else str(phases),
        faults=None if faults is None else str(faults),
        scheduler=None if scheduler is None else str(scheduler),
    )
