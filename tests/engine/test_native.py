"""The native block kernels agree exactly with the NumPy reference path.

The batch and superbatch engines run their blocks through
:mod:`repro.engine.native` when it builds, and through the NumPy code
under ``REPRO_NATIVE=0``.  Both draw the same random numbers from the
same generator through the same NumPy C routines, so every observable
must match exactly: steps, counts, interning, counters, phase series
and the final generator state.  A recording proxy around the kernel
module proves that each branch the equivalence rests on was exercised
(pair-table misses, fresh and touched collision agents, truncation,
the wide fallbacks).
"""

from collections import Counter

import pytest

from repro.core.pll import PLLProtocol
from repro.engine import native
from repro.engine.batch import COUNT_DRAW_LIMIT, BatchSimulator
from repro.engine.superbatch import SuperBatchSimulator
from repro.errors import ExperimentError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.orchestration.spec import TrialSpec, trial_specs
from repro.protocols.angluin import AngluinProtocol
from repro.protocols.majority import ApproximateMajority

ENGINES = {"batch": BatchSimulator, "superbatch": SuperBatchSimulator}

needs_native = pytest.mark.skipif(
    native.load() is None, reason="native block kernels unavailable"
)


class Recorder:
    """Forward calls to the kernel module, counting the branches taken."""

    def __init__(self, module):
        self._module = module
        self.events = Counter()

    def __getattr__(self, name):
        function = getattr(self._module, name)

        def call(*args):
            result = function(*args)
            self.events[name] += 1
            if name == "gather" and result is None:
                self.events["gather-miss"] += 1
            elif name == "batch_collision":
                fresh = (args[1] < 0) + (args[2] < 0)
                self.events[f"collision-fresh-{fresh}"] += 1
            elif name == "run_pairs" and result is None:
                self.events["run-pairs-wide"] += 1
            elif name == "run_pairs" and result[3]:
                self.events["run-pairs-residual"] += 1
            elif name == "run_deltas" and result is not None:
                self.events["truncation-range"] += 1
            return result

        return call


def build(monkeypatch, engine, protocol, n, seed, native_on, recorder=None):
    """A simulator on the requested path (``recorder`` wraps native)."""
    monkeypatch.setenv(native.NATIVE_ENV, "1" if native_on else "0")
    sim = ENGINES[engine](protocol, n, seed=seed)
    assert (sim._blocks is not None) == native_on
    if native_on and recorder is not None:
        sim._blocks = recorder
        sim.cache.blocks = recorder
    return sim


def fingerprint(sim):
    """Everything a trial exposes to the store, plus the RNG state."""
    return (
        sim.steps,
        sim.leader_count,
        sorted(sim.state_id_counts().items()),
        sim.distinct_states_seen(),
        sim.telemetry_summary(),
        sim.phases_json(),
        sim._rng.bit_generator.state,
    )


def chain(sim):
    """The fingerprint minus the transition-cache counters."""
    steps, lead, counts, distinct, summary, phases, rng = fingerprint(sim)
    return steps, lead, counts, distinct, summary["stats"], phases, rng


def protocol_for(name, n):
    if name == "pll":
        return PLLProtocol.for_population(n)
    return AngluinProtocol()


@pytest.fixture(scope="module")
def coverage():
    """Branch counts accumulated over the stabilization trials below."""
    return {engine: Counter() for engine in ENGINES}


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("protocol,n", [("pll", 1500), ("pll", 300), ("angluin", 200)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stabilization_trials_match(monkeypatch, coverage, engine, protocol, n, seed):
    recorder = Recorder(native.load())
    fast = build(
        monkeypatch, engine, protocol_for(protocol, n), n, seed, True, recorder
    )
    fast.run_until_stabilized()
    reference = build(
        monkeypatch, engine, protocol_for(protocol, n), n, seed, False
    )
    reference.run_until_stabilized()
    assert fingerprint(fast) == fingerprint(reference)
    coverage[engine].update(recorder.events)
    stats = fast.stats
    coverage[engine]["truncated"] += (
        stats.truncated_blocks + getattr(stats, "truncated_runs", 0)
    )
    coverage[engine]["null-events"] += stats.null_events


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_trials_exercised_every_branch(coverage, engine):
    """Runs after the parametrized trials (file order) and checks that
    they went through each branch the equivalence has to cover."""
    seen = coverage[engine]
    if not seen:
        pytest.skip("stabilization trials were deselected")
    assert seen["gather-miss"] > 0  # blocks that discovered new states
    assert seen["truncated"] > 0  # prefix cut at the leader target
    assert seen["null-events"] > 0  # the geometric null path
    if engine == "batch":
        assert seen["collision-fresh-0"] > 0  # both agents touched
        assert seen["collision-fresh-1"] > 0  # one touched, one fresh
    else:
        assert seen["replay_draws"] > 0
        assert seen["run-pairs-residual"] > 0  # the permuted matching
        assert seen["truncation-range"] > 0


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_null_skip_entry_and_exit(monkeypatch, engine):
    """One opinionated agent among blanks: the epidemic starts on the
    geometric null path and leaves it as the opinion spreads — at the
    same steps on both paths."""
    runs = {}
    for native_on in (True, False):
        sim = build(monkeypatch, engine, ApproximateMajority(), 4000, 5, native_on)
        sim.load_counts({"x": 1, "b": 3999})
        sim._null_mode = True
        log = []
        original = sim._null_skip

        def null_skip(budget, target, original=original, log=log, sim=sim):
            result = original(budget, target)
            log.append((sim.steps, result is None))
            return result

        sim._null_skip = null_skip
        sim.run(10**6, until=lambda s: s.output_counts["x"] == s.n)
        runs[native_on] = (log, fingerprint(sim))
    log, _ = runs[True]
    assert any(not exited for _, exited in log)  # skipped on it
    assert any(exited for _, exited in log)  # and left it
    assert runs[True] == runs[False]


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_majority_run_until(monkeypatch, engine):
    def decided(sim):
        outputs = sim.output_counts
        return outputs["x"] == sim.n or outputs["y"] == sim.n

    prints = []
    for native_on in (True, False):
        sim = build(monkeypatch, engine, ApproximateMajority(), 600, 4, native_on)
        sim.load_counts({"x": 330, "y": 270})
        sim.run(10**6, until=decided)
        assert decided(sim)
        prints.append((fingerprint(sim), dict(sim.output_counts)))
    assert prints[0] == prints[1]


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_wide_pair_tables(monkeypatch, engine):
    """Past the kernel's pair bound the id tables are dropped
    (``_post0 is None``): every block resolves in Python."""
    prints = []
    for native_on in (True, False):
        sim = build(
            monkeypatch, engine, PLLProtocol.for_population(500), 500, 1,
            native_on,
        )
        sim.cache._pair_bound = 6
        sim.run_until_stabilized()
        assert not sim.cache.dense_enabled
        prints.append(fingerprint(sim))
    assert prints[0] == prints[1]


@needs_native
def test_superbatch_wide_support_falls_back(monkeypatch):
    """Above the grid bound the native sampler declines before drawing
    and the reference's unaggregated wide assembly runs instead."""
    import repro.engine.superbatch.sampling as sampling
    import repro.engine.superbatch.simulator as simulator

    monkeypatch.setattr(sampling, "GRID_WIDTH_BOUND", 3)
    monkeypatch.setattr(simulator, "GRID_WIDTH_BOUND", 3)
    recorder = Recorder(native.load())
    fast = build(
        monkeypatch, "superbatch", PLLProtocol.for_population(800), 800, 2,
        True, recorder,
    )
    fast.run_until_stabilized()
    reference = build(
        monkeypatch, "superbatch", PLLProtocol.for_population(800), 800, 2,
        False,
    )
    reference.run_until_stabilized()
    assert recorder.events["run-pairs-wide"] > 0
    assert fingerprint(fast) == fingerprint(reference)


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_checkpoint_restores_across_paths(monkeypatch, engine):
    """A snapshot taken mid-trial on one path continues bit-identically
    on the other."""
    n, seed = 2000, 3
    whole = build(
        monkeypatch, engine, PLLProtocol.for_population(n), n, seed, True
    )
    whole.run(15_000)
    whole.run_until_stabilized()
    for first, second in ((True, False), (False, True)):
        sim = build(
            monkeypatch, engine, PLLProtocol.for_population(n), n, seed, first
        )
        sim.run(15_000)
        payload = sim.checkpoint_state()
        resumed = build(
            monkeypatch, engine, PLLProtocol.for_population(n), n, seed, second
        )
        resumed.restore_state(payload)
        resumed.run_until_stabilized()
        # Cache counters restart with the process; everything else
        # continues exactly.
        assert chain(resumed) == chain(whole)


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_fault_injector_segments(monkeypatch, engine):
    plan = FaultPlan.create(
        [
            {"kind": "churn", "at_step": 30_000, "count": 40},
            {"kind": "corrupt", "at_step": 60_000, "count": 25},
        ]
    )
    results = []
    for native_on in (True, False):
        sim = build(
            monkeypatch, engine, PLLProtocol.for_population(1000), 1000, 7,
            native_on,
        )
        injector = FaultInjector(plan, 1000, 7)
        injector.drive(sim)
        results.append((fingerprint(sim), injector.to_json()))
    assert results[0] == results[1]


def test_build_failure_falls_back_with_one_warning(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv(native.CACHE_ENV, str(tmp_path / "cache"))
    monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
    monkeypatch.setenv(native.NATIVE_ENV, "1")
    with pytest.warns(native.NativeBuildWarning) as caught:
        first = BatchSimulator(PLLProtocol.for_population(300), 300, seed=0)
        second = SuperBatchSimulator(PLLProtocol.for_population(300), 300, seed=0)
    assert len(caught) == 1
    assert first._blocks is None and second._blocks is None
    for sim in (first, second):
        sim.run_until_stabilized()
    monkeypatch.setenv(native.NATIVE_ENV, "0")
    for sim in (first, second):
        reference = type(sim)(PLLProtocol.for_population(300), 300, seed=0)
        reference.run_until_stabilized()
        assert fingerprint(sim) == fingerprint(reference)


class TestPopulationEnvelope:
    """The count engines' draws are exact only for n < 10^9."""

    @needs_native
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_largest_supported_population_runs(self, monkeypatch, engine):
        n = COUNT_DRAW_LIMIT - 1
        prints = []
        for native_on in (True, False):
            sim = build(
                monkeypatch, engine, PLLProtocol.for_population(n), n, 0,
                native_on,
            )
            sim.run(200_000)
            assert sim.steps == 200_000
            assert sim.stats.blocks >= 3
            prints.append(fingerprint(sim))
        assert prints[0] == prints[1]

    @pytest.mark.parametrize("engine", ["auto", "batch", "superbatch"])
    def test_larger_populations_rejected_at_spec_time(self, engine):
        with pytest.raises(ExperimentError, match="n < 1,000,000,000"):
            trial_specs("pll", 2 * 10**9, 1, engine=engine)

    def test_fault_count_draws_rejected_at_spec_time(self):
        with pytest.raises(ExperimentError, match="fault events"):
            TrialSpec.create(
                "angluin",
                COUNT_DRAW_LIMIT,
                0,
                engine="multiset",
                fault_plan=[{"kind": "churn", "at_step": 10, "count": 5}],
            )
        # Without count draws the multiset engine has no such bound.
        TrialSpec.create("angluin", COUNT_DRAW_LIMIT, 0, engine="multiset")

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_engines_refuse_direct_construction(self, engine):
        with pytest.raises(SimulationError, match="n < "):
            ENGINES[engine](AngluinProtocol(), COUNT_DRAW_LIMIT)
