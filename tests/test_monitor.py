import numpy as np
import pytest
from oracles import model_from_dicts

from cpsguard import pmc
from cpsguard.abstraction import AbstractionConfig, build_abstraction
from cpsguard.controllers import init_mlp
from cpsguard.monitor import (
    AI_TAG,
    SAFE,
    SAFE_TAG,
    UNSAFE,
    MonitorConfig,
    eval_metrics,
    monitor_step,
    run_monitored,
)
from cpsguard.plants import default_input_spec, default_pid, default_sim_config, make_plant, simulate
from cpsguard.signals import make_input
from cpsguard.stl import parse_stl

QUERY = pmc.parse_pctl('P>0.8 [ F<=10 "rob=-1" ]')


def tank_setup():
    plant = make_plant("watertank")
    cfg = default_sim_config(plant)
    spec = default_input_spec(plant, num_control_points=4, duration=cfg.horizon)
    sig = make_input(spec, [[1.0, 1.2, 0.8, 1.0]])
    ai = init_mlp(2, (8,), plant.control_range, seed=5)
    return plant, cfg, sig, ai


def model_from_trace(trace, rob_value):
    robs = np.full(len(trace), float(rob_value))
    return build_abstraction([(trace, robs)], AbstractionConfig(k=2, c=3))


class TestMonitorStep:
    def test_bad_cell_is_unsafe(self):
        plant, cfg, sig, ai = tank_setup()
        trace = simulate(plant, ai, sig, cfg)
        model = model_from_trace(trace, rob_value=-1.0)
        record = monitor_step(model, MonitorConfig(QUERY), trace.states[0])
        assert record.verdict == UNSAFE
        assert record.probability == 1.0

    def test_unreachable_bad_region_is_safe(self):
        plant, cfg, sig, ai = tank_setup()
        trace = simulate(plant, ai, sig, cfg)
        model = model_from_trace(trace, rob_value=1.0)
        record = monitor_step(model, MonitorConfig(QUERY), trace.states[0])
        assert record.verdict == SAFE
        assert record.probability == 0.0

    def test_unknown_policy_forces_switch(self):
        plant, cfg, sig, ai = tank_setup()
        trace = simulate(plant, ai, sig, cfg)
        model = model_from_trace(trace, rob_value=1.0)
        far = np.array([99.0, 99.0])
        conservative = monitor_step(model, MonitorConfig(QUERY, unknown_policy="SAFE"), far)
        assert conservative.verdict == UNSAFE and conservative.raw_unknown
        optimistic = monitor_step(model, MonitorConfig(QUERY, unknown_policy="AI"), far)
        assert optimistic.verdict == SAFE and optimistic.raw_unknown


class TestRunMonitored:
    def test_all_safe_model_matches_ai_only(self):
        plant, cfg, sig, ai = tank_setup()
        ai_trace = simulate(plant, ai, sig, cfg)
        model = model_from_trace(ai_trace, rob_value=1.0)
        mcfg = MonitorConfig(QUERY, period=5.0, unknown_policy="AI")
        mt = run_monitored(plant, ai, default_pid(plant), model, mcfg, sig, cfg)
        np.testing.assert_array_equal(mt.trace.states, ai_trace.states)
        np.testing.assert_array_equal(mt.trace.actions, ai_trace.actions)
        assert np.all(mt.controller_tags == AI_TAG)

    def test_all_unsafe_model_matches_safety_only(self):
        plant, cfg, sig, ai = tank_setup()
        pid = default_pid(plant)
        pid_trace = simulate(plant, pid, sig, cfg)
        model = model_from_trace(simulate(plant, ai, sig, cfg), rob_value=-1.0)
        mcfg = MonitorConfig(QUERY, period=5.0, unknown_policy="SAFE")
        mt = run_monitored(plant, ai, pid, model, mcfg, sig, cfg)
        np.testing.assert_array_equal(mt.trace.states, pid_trace.states)
        assert np.all(mt.controller_tags == SAFE_TAG)

    def test_zero_state_model_uses_safety_controller_everywhere(self):
        plant, cfg, sig, ai = tank_setup()
        trace = simulate(plant, ai, sig, cfg)
        model = model_from_trace(trace, rob_value=1.0)
        empty = model_from_dicts(model.pca, model.config, {}, model.initial)
        mcfg = MonitorConfig(QUERY, period=5.0, unknown_policy="SAFE")
        mt = run_monitored(plant, ai, default_pid(plant), empty, mcfg, sig, cfg)
        assert np.all(mt.controller_tags == SAFE_TAG)
        assert all(q.raw_unknown for q in mt.queries)

    def test_tags_constant_within_period_and_queries_counted(self):
        plant, cfg, sig, ai = tank_setup()
        trace = simulate(plant, ai, sig, cfg)
        model = model_from_trace(trace, rob_value=1.0)
        mcfg = MonitorConfig(QUERY, period=5.0, unknown_policy="SAFE")
        mt = run_monitored(plant, ai, default_pid(plant), model, mcfg, sig, cfg)
        period_steps = int(round(mcfg.period / cfg.dt))
        expected_queries = (cfg.n_steps + period_steps - 1) // period_steps
        assert len(mt.queries) == expected_queries
        tags = mt.controller_tags
        for start in range(0, len(tags) - 1, period_steps):
            window = tags[start : min(start + period_steps, len(tags) - 1)]
            assert np.all(window == window[0])
        assert all(q.wall_time >= 0.0 for q in mt.queries)

    def test_period_must_be_multiple_of_control_period(self):
        plant, cfg, sig, ai = tank_setup()
        model = model_from_trace(simulate(plant, ai, sig, cfg), 1.0)
        with pytest.raises(ValueError, match="multiple"):
            run_monitored(plant, ai, default_pid(plant), model,
                          MonitorConfig(QUERY, period=5.03), sig, cfg)

    def test_deterministic_given_same_inputs(self):
        plant, cfg, sig, ai = tank_setup()
        model = model_from_trace(simulate(plant, ai, sig, cfg), -1.0)
        mcfg = MonitorConfig(QUERY, period=5.0)
        a = run_monitored(plant, ai, default_pid(plant), model, mcfg, sig, cfg)
        b = run_monitored(plant, ai, default_pid(plant), model, mcfg, sig, cfg)
        np.testing.assert_array_equal(a.trace.states, b.trace.states)
        np.testing.assert_array_equal(a.controller_tags, b.controller_tags)
        assert [q.verdict for q in a.queries] == [q.verdict for q in b.queries]

    def test_pid_ai_controller_starts_fresh_each_run(self):
        plant, cfg, sig, _ = tank_setup()
        pid = default_pid(plant)
        model = model_from_trace(simulate(plant, pid, sig, cfg), 1.0)
        mcfg = MonitorConfig(QUERY, period=5.0, unknown_policy="AI")
        a = run_monitored(plant, pid, default_pid(plant), model, mcfg, sig, cfg)
        b = run_monitored(plant, pid, default_pid(plant), model, mcfg, sig, cfg)
        assert np.all(a.controller_tags == AI_TAG)
        np.testing.assert_array_equal(a.trace.states, b.trace.states)
        np.testing.assert_array_equal(a.trace.actions, b.trace.actions)
        assert pid == default_pid(plant)  # a run binds its own PID state and leaves the controller as it was

    def test_switch_back_disabled_is_one_way(self):
        plant, cfg, sig, ai = tank_setup()
        trace = simulate(plant, ai, sig, cfg)
        # first query unsafe, later ones safe: label by robustness sign per step
        robs = np.full(len(trace), 1.0)
        robs[0] = -1.0  # the start cell is bad
        model = build_abstraction([(trace, robs)], AbstractionConfig(k=2, c=3))
        mcfg = MonitorConfig(QUERY, period=5.0, unknown_policy="AI", switch_back=False)
        mt = run_monitored(plant, ai, default_pid(plant), model, mcfg, sig, cfg)
        first_unsafe = next(i for i, q in enumerate(mt.queries) if q.verdict == UNSAFE)
        assert np.all(mt.controller_tags[int(first_unsafe * 5.0 / cfg.dt):] == SAFE_TAG)


class TestEvalMetrics:
    def test_fully_satisfying_trace(self):
        plant, cfg, sig, ai = tank_setup()
        tr = simulate(plant, default_pid(plant), sig, cfg)
        safety = parse_stl("G[0,20](level >= -1)")
        perf = parse_stl("G[0,20](level <= 100)")
        assert eval_metrics(tr, safety, perf) == (1.0, 1.0)

    def test_half_satisfying_interval(self):
        from cpsguard.signals import Trace

        values = np.concatenate([np.ones(10), -np.ones(10)]).reshape(-1, 1)
        tr = Trace(dt=1.0, channels=("x",), states=values, actions=np.zeros(20), inputs=np.zeros((20, 1)))
        frac, _ = eval_metrics(tr, parse_stl("G[0,19](x >= 0)"), parse_stl("G[0,19](x <= 2)"))
        assert frac == 0.5

    def test_acc_safety_fraction_matches_hand_count(self):
        plant = make_plant("acc")
        cfg = default_sim_config(plant)
        spec = default_input_spec(plant, num_control_points=2, duration=cfg.horizon)
        sig = make_input(spec, [[-1.5, 1.0]])
        tr = simulate(plant, default_pid(plant), sig, cfg)
        frac, _ = eval_metrics(tr, parse_stl("G[0,50](d_rel - d_safe >= 0)"),
                               parse_stl("G[0,50](abs(v_ego - v_target) <= 0.2)"))
        margins = tr.column("d_rel") - tr.column("d_safe")
        assert frac == np.mean(margins >= 0.0)

    def test_non_always_pattern_rejected(self):
        plant, cfg, sig, ai = tank_setup()
        tr = simulate(plant, default_pid(plant), sig, cfg)
        with pytest.raises(ValueError, match="always"):
            eval_metrics(tr, parse_stl("F[0,5](level >= 0)"), parse_stl("G[0,5](level >= 0)"))

    def test_temporal_body_rejected(self):
        plant, cfg, sig, ai = tank_setup()
        tr = simulate(plant, default_pid(plant), sig, cfg)
        with pytest.raises(ValueError, match="temporal-free"):
            eval_metrics(tr, parse_stl("G[0,5](F[0,1](level >= 0))"), parse_stl("G[0,5](level >= 0)"))
