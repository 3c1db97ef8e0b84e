import numpy as np
import pytest
from oracles import falsify_oracle

from cpsguard import plants, pmc, stl
from cpsguard.abstraction import AbstractionConfig, build_abstraction
from cpsguard.falsify import (
    GUIDED,
    GUIDED_RAND,
    OPT_ONLY,
    RANDOM,
    FalsifyConfig,
    hill_climb,
    run_baseline,
    trial_stats,
)
from cpsguard.signals import InputSpec, Trace, make_input, random_signal

QUERY = pmc.parse_pctl('P>0.8 [ F<=10 "rob=-1" ]')
SPEC = stl.parse_stl("x >= 0")


def unit_spec(n=1):
    return InputSpec(dims=1, ranges=((0.0, 1.0),), num_control_points=n, duration=10.0)


class StubSystem:
    """Maps the first control value straight into a constant trace."""

    def __init__(self, value_fn, spec=None):
        self.value_fn = value_fn
        self.input_spec = spec or unit_spec()
        self.runs = 0

    def run(self, signal):
        self.runs += 1
        x = self.value_fn(float(signal.control_values[0, 0]))
        states = np.full((4, 1), x)
        return Trace(dt=1.0, channels=("x",), states=states,
                     actions=np.zeros(4), inputs=np.zeros((4, 1)))


def stub_model(label_rob):
    """One-cell model whose states carry the given robustness label."""
    trace = Trace(dt=1.0, channels=("x",), states=np.full((3, 1), 0.5),
                  actions=np.zeros(3), inputs=np.zeros((3, 1)))
    with pytest.warns(UserWarning):
        return build_abstraction([(trace, np.full(3, label_rob))], AbstractionConfig(k=1, c=2))


def base_cfg(**kw):
    defaults = dict(stl_spec=SPEC, safety_query=QUERY, queue_seed_count=2,
                    global_budget=3, local_budget=4, checkpoint_time=1.0, seed=0)
    defaults.update(kw)
    return FalsifyConfig(**defaults)


class TestHillClimb:
    def test_convex_objective_converges(self):
        spec = unit_spec()
        spec = InputSpec(dims=1, ranges=((0.0, 10.0),), num_control_points=1, duration=1.0)
        start = make_input(spec, [[9.0]])
        rng = np.random.default_rng(0)
        best, val, evals = hill_climb(lambda s: abs(float(s.control_values[0, 0]) - 3.0),
                                      start, budget=200, rng=rng)
        assert val < 0.1
        assert evals == 200

    def test_budget_one_returns_start(self):
        start = make_input(unit_spec(), [[0.7]])
        best, val, evals = hill_climb(lambda s: 42.0, start, budget=1, rng=np.random.default_rng(1))
        assert evals == 1
        assert val == 42.0
        np.testing.assert_array_equal(best.control_values, start.control_values)

    def test_constant_objective_keeps_start_and_decays_step(self):
        seen = []

        def objective(sig):
            seen.append(float(sig.control_values[0, 0]))
            return 1.0

        start = make_input(unit_spec(), [[0.5]])
        best, val, _ = hill_climb(objective, start, budget=60, rng=np.random.default_rng(2))
        assert val == 1.0
        np.testing.assert_array_equal(best.control_values, start.control_values)
        deltas = [abs(v - 0.5) for v in seen[1:]]
        assert np.mean(deltas[-5:]) < np.mean(deltas[:5])

    def test_proposals_respect_ranges(self):
        vals = []

        def objective(sig):
            v = float(sig.control_values[0, 0])
            vals.append(v)
            return -v

        hill_climb(objective, make_input(unit_spec(), [[0.5]]), budget=100,
                   rng=np.random.default_rng(3), step_init=0.9)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_stop_below_short_circuits(self):
        count = [0]

        def objective(sig):
            count[0] += 1
            return -1.0

        _, val, evals = hill_climb(objective, make_input(unit_spec(), [[0.5]]), budget=50,
                                   rng=np.random.default_rng(4), stop_below=0.0)
        assert evals == 1 and count[0] == 1


class TestModelGuided:
    def test_always_violating_returns_first_simulation(self):
        system = StubSystem(lambda v: -1.0)
        outcome = run_baseline(GUIDED, system, stub_model(1.0), base_cfg())
        assert outcome.success
        assert outcome.simulations == 1
        assert outcome.robustness_history == [-1.0]

    def test_unfalsifiable_exhausts_exact_budget(self):
        system = StubSystem(lambda v: 1.0)
        cfg = base_cfg(global_budget=3, local_budget=4)
        outcome = run_baseline(GUIDED, system, stub_model(1.0), cfg)
        assert not outcome.success
        assert outcome.simulations == 12
        assert outcome.falsifying_input is None

    def test_fifo_queue_discipline(self):
        system = StubSystem(lambda v: 0.1)  # never falsifies, always enqueued
        model = stub_model(-1.0)  # query holds everywhere
        log: list = []
        cfg = base_cfg(queue_seed_count=2, global_budget=3, local_budget=2)
        run_baseline(GUIDED, system, model, cfg, event_log=log)
        enqueued = [i for kind, i in log if kind == "enqueue"]
        dequeued = [i for kind, i in log if kind == "dequeue"]
        assert dequeued == sorted(dequeued)
        assert dequeued == enqueued[: len(dequeued)]

    def test_unknown_checkpoint_not_enqueued(self):
        system = StubSystem(lambda v: 99.0)  # far outside the model's grid
        model = stub_model(-1.0)
        log: list = []
        cfg = base_cfg(queue_seed_count=1, global_budget=2, local_budget=2)
        outcome = run_baseline(GUIDED, system, model, cfg, event_log=log)
        assert not outcome.success
        enqueues_after_init = [e for e in log if e[0] == "enqueue"][cfg.queue_seed_count:]
        assert enqueues_after_init == []

    def test_early_exit_reproduces_violation(self):
        system = StubSystem(lambda v: v - 0.3)  # falsified when v < 0.3
        cfg = base_cfg(global_budget=5, local_budget=6, seed=11)
        outcome = run_baseline(GUIDED, system, stub_model(1.0), cfg)
        assert outcome.success
        trace = system.run(outcome.falsifying_input)
        assert stl.robustness(trace, cfg.stl_spec, 0.0) < 0.0


class TestBaselines:
    def test_random_on_always_violating(self):
        outcome = run_baseline(RANDOM, StubSystem(lambda v: -1.0), None, base_cfg())
        assert outcome.success and outcome.simulations == 1

    def test_opt_only_succeeds_on_smooth_objective(self):
        system = StubSystem(lambda v: abs(v - 0.8) - 0.05)
        cfg = base_cfg(global_budget=4, local_budget=25, seed=6)
        outcome = run_baseline(OPT_ONLY, system, None, cfg)
        assert outcome.success
        assert stl.robustness(system.run(outcome.falsifying_input), SPEC, 0.0) < 0.0

    def test_guided_rand_budget_matches_guided_on_unfalsifiable(self):
        cfg = base_cfg(global_budget=2, local_budget=5)
        guided = run_baseline(GUIDED, StubSystem(lambda v: 1.0), stub_model(1.0), cfg)
        rand = run_baseline(GUIDED_RAND, StubSystem(lambda v: 1.0), None, cfg)
        assert guided.simulations == rand.simulations == 10

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown falsification algorithm"):
            run_baseline("cmaes", StubSystem(lambda v: 1.0), None, base_cfg())

    def test_determinism_per_seed(self):
        model = stub_model(1.0)
        for kind in (GUIDED, GUIDED_RAND, RANDOM, OPT_ONLY):
            a = run_baseline(kind, StubSystem(lambda v: v - 0.25), model, base_cfg(seed=9))
            b = run_baseline(kind, StubSystem(lambda v: v - 0.25), model, base_cfg(seed=9))
            assert a.success == b.success, kind
            assert a.simulations == b.simulations, kind
            assert a.robustness_history == b.robustness_history, kind


@pytest.fixture(scope="module")
def watertank_world():
    """A watertank under its PID and a model built from 12 of its traces."""
    plant = plants.make_plant("watertank")
    simcfg = plants.SimConfig(dt=0.05, horizon=5.0, control_period=0.05)
    spec = plants.default_input_spec(plant, num_control_points=4, duration=5.0)
    system = plants.ClosedLoopSystem(plant, plants.default_pid(plant), simcfg, spec)
    label = stl.parse_stl("G[0,5](1.2 - level >= 0)")
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(12):
        trace = system.run(random_signal(spec, rng))
        pairs.append((trace, stl.labeling_robustness(trace, label)))
    return system, build_abstraction(pairs, AbstractionConfig(k=2, c=4))


class TestOracle:
    """`run_baseline` against the separate loops of `oracles.falsify_oracle`."""

    @pytest.mark.parametrize("kind", [GUIDED, GUIDED_RAND, RANDOM, OPT_ONLY])
    @pytest.mark.parametrize("spec, shape", [
        ("G[0,5](1.25 - level >= 0)", dict(queue_seed_count=2, global_budget=3, local_budget=4)),
        ("G[0,5](1.25 - level >= 0)", dict(queue_seed_count=2, global_budget=6, local_budget=1)),
        ("G[0,5](1.25 - level >= 0)", dict(queue_seed_count=4, global_budget=2, local_budget=3)),
        ("G[0,1](level >= 100)", dict(queue_seed_count=2, global_budget=3, local_budget=4)),  # first candidate
    ])
    def test_matches_separate_loops(self, watertank_world, kind, spec, shape):
        system, model = watertank_world
        for seed in range(5):
            cfg = FalsifyConfig(stl_spec=stl.parse_stl(spec), safety_query=QUERY, checkpoint_time=2.0,
                                seed=seed, **shape)
            log, oracle_log = [], []
            got = run_baseline(kind, system, model, cfg, event_log=log)
            want = falsify_oracle(kind, system, model, cfg, event_log=oracle_log)
            assert (got.success, got.simulations, got.robustness_history) == \
                (want.success, want.simulations, want.robustness_history), (kind, seed)
            assert log == oracle_log, (kind, seed)
            if want.success:
                np.testing.assert_array_equal(got.falsifying_input.control_values,
                                              want.falsifying_input.control_values)
            else:
                assert got.falsifying_input is None


class TestTrialStats:
    def test_all_failures(self):
        outcomes = [run_baseline(RANDOM, StubSystem(lambda v: 1.0), None, base_cfg(seed=s))
                    for s in range(3)]
        stats = trial_stats(outcomes)
        assert stats["fsr"] == 0
        assert stats["mean_time_success"] is None
        assert stats["mean_sims_success"] is None

    def test_mean_sims_over_successes(self):
        from cpsguard.falsify import FalsificationOutcome

        outcomes = [
            FalsificationOutcome(True, None, [], 10, 1.0),
            FalsificationOutcome(True, None, [], 20, 2.0),
            FalsificationOutcome(True, None, [], 30, 3.0),
            FalsificationOutcome(False, None, [], 99, 4.0),
        ]
        stats = trial_stats(outcomes)
        assert stats["fsr"] == 3
        assert stats["mean_sims_success"] == 20
        assert stats["mean_time_success"] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trial_stats([])
