"""The repository benchmark: one workload per call, checked and measured.

    python3 perfbench/run.py --workload pll-stabilize --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
interpreter (``workload.py``), so its peak memory and imports never
leak from one workload into the next.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and prints the per-layer metrics with the traced/untraced wall
ratio.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.

Correctness checks: every trial elects exactly one leader; the cached
re-run of ``e9-campaign`` executes nothing; every trial's deterministic
columns (steps, parallel time, leader count, distinct states) agree
with earlier runs of the same workload under the same source tree, so
``pll-stabilize``'s per-seed interaction counts are identical across
runs of one commit; and the merged ``e9-fabric`` store agrees row for
row with the ``e9-campaign`` store.  An ``e9-fabric`` call with no
earlier ``e9-campaign`` rows of this source tree runs ``e9-campaign``
itself, after its measurement, so that check never goes unmade.
Earlier rows are kept in ``.perfbench-state/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
STATE = ROOT / ".perfbench-state"

#: Fresh-interpreter set-ups timed at every checkpoint of a run.
PROBES_PER_PAUSE = 2

#: Workload processes still running this long after the call started
#: are killed, and the call fails.
DEADLINE_S = 170.0

#: Parallel time above which a PLL trial ended in the slow mode (the
#: slow mode runs ~290, the fast one 14-25).
SLOW_MODE_PARALLEL_TIME = 100.0

def calibrate() -> dict:
    """A fixed pure-Python loop and a fixed NumPy sort, timed.  A
    diagnostic of the host's speed regime; no metric is scaled by it."""
    import numpy

    began = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    python_s = time.perf_counter() - began
    data = numpy.random.default_rng(0).random(400_000)
    began = time.perf_counter()
    for _ in range(3):
        numpy.sort(data)
    numpy_s = time.perf_counter() - began
    return {"python_s": round(python_s, 4), "numpy_s": round(numpy_s, 4)}


def host_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def source_digest() -> str:
    """Hash of the program and benchmark sources: runs that share it
    must reproduce each other's deterministic columns."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever is left of a workload's process group (pool or
    fabric workers of a workload that failed) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    give_up = time.perf_counter() + timeout
    while time.perf_counter() < give_up:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Workload:
    """One ``workload.py`` process with its checkpoint handshake."""

    def __init__(self, args, workdir: Path, trace: int, probe: bool, deadline: float) -> None:
        self.args = args
        self.deadline = deadline
        self.workdir = workdir
        self.trace = trace
        self.probe = probe
        self.setup_samples: list[float] = []
        # Bytecode is cached inside the checkout whatever the caller's
        # environment says, so set-up is timed warm: the workload process
        # imports everything a set-up probe does before its first pause.
        self.env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PYTHONPYCACHEPREFIX": str(STATE / "pycache"),
        }
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.log = workdir / "stderr.log"

    def _command(self, mode: str, workdir: Path) -> list[str]:
        return [
            sys.executable,
            str(HERE / "workload.py"),
            "--mode",
            mode,
            "--workload",
            self.args.workload,
            "--trace",
            str(self.trace),
            "--workdir",
            str(workdir),
        ]

    def time_setup(self) -> None:
        probe_dir = self.workdir / f"setup-{len(self.setup_samples)}"
        probe_dir.mkdir()
        with open(self.log, "a") as log:
            began = time.perf_counter()
            process = subprocess.Popen(
                self._command("setup", probe_dir),
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
                env=self.env,
                text=True,
            )
            line = process.stdout.readline()
            elapsed = time.perf_counter() - began
            process.stdout.close()
            process.wait()
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError("set-up probe failed")
        self.setup_samples.append(elapsed)

    def run(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        run_dir = self.workdir / "run"
        run_dir.mkdir()
        with open(self.log, "a") as log:
            process = subprocess.Popen(
                self._command("run", run_dir),
                stdout=subprocess.PIPE,
                stdin=subprocess.PIPE,
                stderr=log,
                env=self.env,
                text=True,
                start_new_session=True,
            )
            remaining = max(0.0, self.deadline - time.perf_counter())
            timer = threading.Timer(remaining, os.killpg, (process.pid, signal.SIGKILL))
            timer.start()
            try:
                for line in process.stdout:
                    if line.startswith("pause"):
                        if self.probe:
                            for _ in range(PROBES_PER_PAUSE):
                                self.time_setup()
                        process.stdin.write("go\n")
                        process.stdin.flush()
            finally:
                timer.cancel()
                process.stdout.close()
                process.stdin.close()
                process.wait()
                stop_group(process.pid)
        if process.returncode != 0:
            raise RuntimeError(f"workload process exited {process.returncode}")
        return json.loads((run_dir / "result.json").read_text())


def load_state(digest: str) -> dict:
    """Rows of earlier runs under this source digest, by workload, then
    by spec hash."""
    try:
        state = json.loads((STATE / "rows.json").read_text())
    except FileNotFoundError:
        return {}
    return state.get(digest, {})


def save_state(digest: str, rows: dict) -> None:
    STATE.mkdir(exist_ok=True)
    tmp = STATE / f"rows.json.{os.getpid()}"
    tmp.write_text(json.dumps({digest: rows}))
    os.replace(tmp, STATE / "rows.json")


def row_values(row: dict) -> list:
    return [row[key] for key in catalog.TRIAL_COLUMNS]


def check_rows(rows: list[dict], known: dict) -> tuple[int, int]:
    """Compare every row with the earlier runs' rows of the same spec
    (recording new ones); return ``(compared, mismatched)``."""
    compared = mismatched = 0
    for row in rows:
        values = row_values(row)
        earlier = known.setdefault(row["spec_hash"], values)
        if earlier is not values:
            compared += 1
            mismatched += earlier != values
    return compared, mismatched


def compare_stores(rows: list[dict], reference: dict) -> tuple[int, int]:
    """Row-for-row comparison of one store's rows with another's:
    ``(differing, unmatched)``, where unmatched rows are in only one."""
    mine = {row["spec_hash"]: row_values(row) for row in rows}
    differing = sum(mine[key] != reference[key] for key in mine.keys() & reference.keys())
    return differing, len(mine.keys() ^ reference.keys())


def e2e_metrics(summary: dict, setup_samples: list[float], failed: int) -> dict:
    result = summary["result"]
    wall = result["wall_s"]
    return {
        "trials_per_s": len(result["rows"]) / wall,
        "interactions_per_s": sum(row["steps"] for row in result["rows"]) / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": summary["peak_rss_mb"],
        "success_ratio": 1.0 - failed / result["attempted"],
    }


def correctness(workload: str, result: dict, state: dict, reference_from: str) -> tuple[list, int]:
    """``(checks, failed)``: each check is ``(name, status, detail)``
    with status ``ok``, ``FAIL`` or ``skip``; ``failed`` counts every
    trial that failed to run or failed a check.  ``state`` holds the
    rows of earlier runs by workload and gains this run's rows."""
    attempted = result["attempted"]
    rows = result["rows"]
    program_failed = result["failed"]
    no_outcome = attempted - program_failed - len(rows)
    bad_leaders = sum(row["leader_count"] != 1 for row in rows)

    def status(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    checks = [
        ("no trial failed or was quarantined", status(program_failed == 0), f"{program_failed} failed"),
        ("every attempted trial has an outcome", status(no_outcome == 0), f"{no_outcome} missing"),
        ("every trial has leader_count == 1", status(bad_leaders == 0), f"{bad_leaders} of {len(rows)} differ"),
    ]
    rerun_failed = 0
    if workload == "e9-campaign":
        rerun = result["rerun"]
        rerun_failed = attempted - rerun["cached"] + rerun["executed"]
        checks.append(("cached re-run: all cached, none executed", status(rerun_failed == 0), json.dumps(rerun)))
    compared, mismatched = check_rows(rows, state.setdefault(workload, {}))
    name = "deterministic columns agree with earlier runs of this workload and source tree"
    if compared:
        checks.append((name, status(mismatched == 0), f"{mismatched} of {compared} rows differ"))
    else:
        checks.append((name, "skip", f"first run of this source tree here; {len(rows)} rows recorded"))
    cross_failed = 0
    other = {"e9-campaign": "e9-fabric", "e9-fabric": "e9-campaign"}.get(workload)
    if other in state:
        differing, unmatched = compare_stores(rows, state[other])
        cross_failed = differing + unmatched
        checks.append(
            (
                f"{workload} store agrees row for row with the {other} store",
                status(cross_failed == 0),
                f"{differing} of {len(rows)} rows differ, {unmatched} in one store only "
                f"({other} rows from {reference_from})",
            )
        )
    failed = min(attempted, program_failed + no_outcome + bad_leaders + rerun_failed + mismatched + cross_failed)
    return checks, failed


def layer_report(result: dict, untraced: dict) -> dict:
    """Per-layer metrics, each printed with its unit, the base of every
    ratio, its layer and what it is expected to move."""
    values = result["layer"]["values"]
    bases = result["layer"]["bases"]
    traced_wall = result["result"]["wall_s"]
    untraced_wall = untraced["result"]["wall_s"]
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    bases["trace.overhead_ratio"] = {
        "numerator": traced_wall,
        "base": untraced_wall,
        "base_name": "untraced wall seconds",
    }
    metrics = {}
    for metric in catalog.LAYER:
        value = float(values.get(metric.name, 0.0))
        metrics[metric.name] = {"value": value, "unit": metric.unit}
        base = bases.get(metric.name)
        base_text = (
            f" base={base['base_name']}={base['base']:.6g} numerator={base['numerator']:.6g}"
            if base
            else ""
        )
        print(f"layer {metric.name} = {value:.6g} {metric.unit}{base_text} | {metric.layer} | moves {metric.moves}")
    return metrics


def measure(args, workdir: Path) -> dict | None:
    """Run one workload and print its record; the result line's fields,
    or ``None`` when the workload could not run."""
    deadline = time.perf_counter() + DEADLINE_S
    host = host_context()
    calibration = {"before": calibrate()}
    digest = source_digest()
    state = load_state(digest)
    reference_from = "an earlier call"
    try:
        if args.trace:
            untraced = Workload(args, workdir / "untraced", 0, False, deadline).run()
            result = Workload(args, workdir / "traced", 1, False, deadline).run()
            setup_samples: list[float] = []
        else:
            workload = Workload(args, workdir / "untraced", 0, True, deadline)
            result = workload.run()
            setup_samples = workload.setup_samples
        calibration["after"] = calibrate()
        if args.workload == "e9-fabric" and "e9-campaign" not in state:
            # The row-for-row check needs the e9-campaign store; with no
            # earlier e9-campaign run of this source tree here, make one
            # now, after everything measured.
            campaign = argparse.Namespace(**{**vars(args), "workload": "e9-campaign"})
            reference = Workload(campaign, workdir / "reference", 0, False, deadline).run()
            state["e9-campaign"] = {
                row["spec_hash"]: row_values(row) for row in reference["result"]["rows"]
            }
            reference_from = "a reference run in this call"
    except (RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for log in sorted(workdir.rglob("stderr.log")):
            sys.stderr.write(log.read_text()[-4000:])
        return None
    run_result = result["result"]
    attempted = run_result["attempted"]
    checks, failed = correctness(args.workload, run_result, state, reference_from)
    save_state(digest, state)
    correct = all(status != "FAIL" for _name, status, _detail in checks)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} source={digest}")
    print(f"host {json.dumps(host)} calibration {json.dumps(calibration)}")
    if args.workload == "pll-stabilize":
        for row in run_result["rows"]:
            mode = "slow" if row["parallel_time"] > SLOW_MODE_PARALLEL_TIME else "fast"
            print(
                f"trial n={row['n']} seed={row['seed']} engine={row['engine']} "
                f"interactions={row['steps']} parallel_time={row['parallel_time']:.1f} mode={mode} "
                f"wall_s={row['wall_s']:.3f}"
            )
    for name, status, detail in checks:
        print(f"check {status:4s} {name}: {detail}")
    print(f"measured wall {run_result['wall_s']:.3f} s (--seconds {args.seconds})")
    if args.trace:
        metrics = layer_report(result, untraced)
    else:
        values = e2e_metrics(result, setup_samples, failed)
        metrics = {}
        for metric in catalog.E2E:
            metrics[metric.name] = {"value": values[metric.name], "unit": metric.unit}
            print(f"e2e {metric.name} = {values[metric.name]:.6g} {metric.unit}")
        print(f"e2e failure_ratio = {failed / attempted:.6g} ratio (base: {attempted} trials attempted)")
        print(f"setup samples (s): {[round(s, 4) for s in setup_samples]}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=catalog.WORKLOAD_NAMES + ("all",),
        required=True,
        help="one workload, or all of them one after another (metric names then carry the workload)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    names = catalog.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        workdir = WORK / f"{name}-{args.seed}-{args.trace}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result = measure(one, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        line = results[args.workload]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
