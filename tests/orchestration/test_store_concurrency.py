"""Concurrency hardening of the single-file store (WAL + busy timeout).

The distributed campaign fabric's default backend is still one SQLite
file; these tests pin the pragmas that make N writer processes safe on
it and hammer one store from four concurrent writers to prove the
``database is locked`` era stays closed.
"""

import multiprocessing
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.orchestration.backend.leases import LeaseManager
from repro.orchestration.spec import TrialOutcome, TrialSpec
from repro.orchestration.store import (
    BUSY_TIMEOUT_ENV,
    DEFAULT_BUSY_TIMEOUT_MS,
    TrialStore,
    busy_timeout_ms,
    enable_wal,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def outcome_for(spec: TrialSpec, steps: int = 100) -> TrialOutcome:
    return TrialOutcome(
        seed=spec.seed,
        steps=steps,
        parallel_time=steps / spec.n,
        leader_count=1,
        distinct_states=4,
    )


class TestBusyTimeout:
    def test_default(self):
        assert busy_timeout_ms() == DEFAULT_BUSY_TIMEOUT_MS

    def test_ctor_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BUSY_TIMEOUT_ENV, "1000")
        assert busy_timeout_ms(250) == 250

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BUSY_TIMEOUT_ENV, "5000")
        assert busy_timeout_ms() == 5000

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(BUSY_TIMEOUT_ENV, "soon")
        assert busy_timeout_ms() == DEFAULT_BUSY_TIMEOUT_MS

    def test_negative_clamped_to_zero(self):
        assert busy_timeout_ms(-5) == 0


class TestJournalMode:
    def test_writable_file_store_runs_wal(self, tmp_path):
        with TrialStore(tmp_path / "t.sqlite") as store:
            assert store.journal_mode() == "wal"

    def test_wal_sticks_for_readonly_opens(self, tmp_path):
        path = tmp_path / "t.sqlite"
        TrialStore(path).close()
        with TrialStore(path, readonly=True) as store:
            assert store.journal_mode() == "wal"

    def test_memory_store_has_no_wal(self):
        with TrialStore(":memory:") as store:
            assert store.journal_mode() == "memory"


#: Worker script: hammer one store with interleaved writes and reads.
#: Each worker writes its own seed range (content hashes differ), so
#: success = every row from every worker present at the end.
_HAMMER = """
import sys
sys.path.insert(0, {src!r})
from repro.orchestration.spec import TrialOutcome, TrialSpec
from repro.orchestration.store import TrialStore

worker, per_worker = int(sys.argv[1]), int(sys.argv[2])
store = TrialStore({path!r})
for i in range(per_worker):
    seed = worker * per_worker + i
    spec = TrialSpec.create("angluin", 8, seed)
    outcome = TrialOutcome(
        seed=seed, steps=100 + i, parallel_time=1.0,
        leader_count=1, distinct_states=4,
    )
    store.put(spec, outcome)
    store.record_failure(spec, attempts=1, error="transient")
    store.clear_failure(spec)
    len(store)  # interleave reads with the other writers' commits
store.close()
"""


class TestConcurrentWriters:
    def test_four_processes_hammer_one_store(self, tmp_path):
        path = str(tmp_path / "hammer.sqlite")
        TrialStore(path).close()  # pre-create so WAL is on from the start
        workers, per_worker = 4, 25
        env = dict(os.environ)
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _HAMMER.format(src=REPO_SRC, path=path),
                    str(worker),
                    str(per_worker),
                ],
                env=env,
                stderr=subprocess.PIPE,
            )
            for worker in range(workers)
        ]
        failures = []
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failures.append(stderr.decode())
        assert not failures, "\n".join(failures)
        with TrialStore(path, readonly=True) as store:
            assert len(store) == workers * per_worker
            assert store.failures() == []
            seeds = {row["seed"] for row in store.rows()}
            assert seeds == set(range(workers * per_worker))


class _LockedOnce:
    """A connection whose first ``failures`` WAL switches report busy."""

    def __init__(self, failures, message="database is locked"):
        self.failures = failures
        self.message = message
        self.calls = 0

    def execute(self, sql):
        self.calls += 1
        if self.calls <= self.failures:
            raise sqlite3.OperationalError(self.message)


class TestWalSwitchRetry:
    def test_retries_with_backoff_until_the_switch_succeeds(self):
        connection = _LockedOnce(failures=4)
        sleeps = []
        enable_wal(connection, 30000, sleep=sleeps.append)
        assert connection.calls == 5
        assert sleeps == pytest.approx([0.001, 0.002, 0.004, 0.008])

    def test_gives_up_once_the_busy_timeout_is_spent(self):
        ticks = iter(range(100))
        connection = _LockedOnce(failures=100)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            enable_wal(
                connection,
                3000,
                sleep=lambda secs: None,
                clock=lambda: float(next(ticks)),
            )
        assert connection.calls < 10

    def test_other_errors_propagate_at_once(self):
        connection = _LockedOnce(failures=1, message="disk I/O error")
        with pytest.raises(sqlite3.OperationalError, match="disk"):
            enable_wal(connection, 30000, sleep=lambda secs: None)
        assert connection.calls == 1


def _open_fresh_files(kind, root, rounds, barrier, worker, failures):
    """Open ``rounds`` fresh files in step with the sibling processes."""
    failed = 0
    for index in range(rounds):
        path = os.path.join(root, f"{kind}-{index}.sqlite")
        barrier.wait(timeout=60)
        try:
            if kind == "leases":
                manager = LeaseManager(path, f"w{worker}")
                manager.claim(["a", "b"])
                manager.close()
            else:
                TrialStore(path).close()
        except sqlite3.Error:
            failed += 1
    failures.put(failed)


class TestFreshFileRace:
    """Several processes opening one fresh file at once all get WAL."""

    @pytest.mark.parametrize("kind", ["leases", "store"])
    def test_four_processes_open_fresh_files_together(self, tmp_path, kind):
        context = multiprocessing.get_context("fork")
        workers, rounds = 4, 400
        barrier = context.Barrier(workers)
        failures = context.Queue()
        procs = [
            context.Process(
                target=_open_fresh_files,
                args=(kind, str(tmp_path), rounds, barrier, worker, failures),
            )
            for worker in range(workers)
        ]
        for proc in procs:
            proc.start()
        failed = [failures.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        assert sum(failed) == 0
