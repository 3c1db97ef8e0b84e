import math
from pathlib import Path

import numpy as np
import pytest
from oracles import fresh_oracle, simulate_oracle

from cpsguard.abstraction import AbstractionConfig, build_abstraction
from cpsguard.controllers import init_mlp, load_mlp
from cpsguard.monitor import SAFE_TAG, MonitorConfig, run_monitored
from cpsguard.plants import (
    _PLANTS,
    SimConfig,
    SimulationBlowup,
    default_input_spec,
    default_pid,
    default_sim_config,
    initial_state,
    make_plant,
    simulate,
)
from cpsguard.pmc import parse_pctl
from cpsguard.signals import make_input, random_signal
from cpsguard.stl import parse_stl, satisfied

ACC_SPEC = "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)"
UNSAFE_MLP = Path(__file__).resolve().parent.parent / "bench" / "data" / "acc_unsafe.txt"


def derivative(plant, state, control, exo):
    """The plant's derivative kernel on an array state."""
    return np.array(_PLANTS[plant.name].derivative(plant.params, tuple(state), control, exo))


def rk4_step(plant, state, control, exo, dt):
    """One step of the plant's RK4 kernel on an array state."""
    kind = _PLANTS[plant.name]
    return np.array(kind.rk4(kind.derivative, plant.params, tuple(state), control, exo, dt))


def constant_input(plant, value, duration=50.0):
    spec = default_input_spec(plant, num_control_points=1, duration=duration)
    return make_input(spec, [[value]])


class TestDerivative:
    def test_watertank_equilibrium(self):
        plant = make_plant("watertank")
        a = plant.params["outflow_coeff"]
        h = 1.21
        u = a * math.sqrt(h)
        d = derivative(plant, np.array([h]), u, np.array([1.0]))
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_acc_equal_velocities_keep_distance(self):
        plant = make_plant("acc")
        state = np.array([100.0, 20.0, 40.0, 20.0])
        d = derivative(plant, state, 0.0, np.array([0.0]))
        d_rel_rate = d[0] - d[2]
        assert d_rel_rate == pytest.approx(0.0)

    def test_cstr_matches_hand_computed_rhs(self):
        # direct arithmetic evaluation of the stated equations
        plant = make_plant("cstr")
        p = plant.params
        conc, temp, u, cf = 0.6, 310.0, 300.0, 1.1
        rate = p["k0"] * math.exp(-p["e_act"] / temp) * conc
        want_dc = (cf - conc) / p["theta"] - rate
        want_dt = (p["t_feed"] - temp) / p["theta"] + p["k1"] * rate + p["k2"] * (u - temp)
        got = derivative(plant, np.array([conc, temp]), u, np.array([cf]))
        assert got[0] == pytest.approx(want_dc, rel=1e-12)
        assert got[1] == pytest.approx(want_dt, rel=1e-12)

    def test_acc_clamps_exogenous_and_control(self):
        plant = make_plant("acc")
        state = np.array([100.0, 20.0, 40.0, 20.0])
        d = derivative(plant, state, 99.0, np.array([-99.0]))
        assert d[1] == plant.params["lead_accel_min"]
        assert d[3] == plant.params["accel_max"]

    def test_non_finite_state_raises(self):
        plant = make_plant("watertank")
        with pytest.raises(FloatingPointError):
            derivative(plant, np.array([float("nan")]), 1.0, np.array([1.0]))


class TestRk4:
    def test_equilibrium_fixed_point(self):
        plant = make_plant("watertank")
        h = 0.81
        u = plant.params["outflow_coeff"] * math.sqrt(h)
        out = rk4_step(plant, np.array([h]), u, np.array([1.0]), 0.05)
        assert out[0] == pytest.approx(h, abs=1e-12)

    def test_linear_decay_matches_exponential(self):
        # dh/dt = -h is emulated with a watertank override: sqrt disabled,
        # so use the generic integrator on a hand plant instead; simplest is
        # the ACC velocity channel with constant accel, checked below, plus
        # this direct check against exp on a synthetic one-step map.
        plant = make_plant("watertank", {"outflow_coeff": 0.0, "area": 1.0})
        # with outflow 0 and inflow clamped to 0 the level is constant
        out = rk4_step(plant, np.array([2.0]), 0.0, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(2.0)

    def test_pure_integrator_exact(self):
        plant = make_plant("acc")
        state = np.array([0.0, 10.0, 0.0, 10.0])
        out = rk4_step(plant, state, 1.0, np.array([1.0]), 0.1)
        assert out[1] == pytest.approx(10.0 + 0.1)  # lead velocity
        assert out[3] == pytest.approx(10.0 + 0.1)  # ego velocity

    def test_fourth_order_on_exponential(self):
        # classical RK4 on dx/dt = -x over one step matches exp(-dt) to 1e-7
        plant = make_plant("cstr")

        def rk4_generic(f, x, dt):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        # sanity-pin the scheme itself, then trust rk4_step's shared shape
        x = rk4_generic(lambda v: -v, np.array([1.0]), 0.1)
        assert x[0] == pytest.approx(math.exp(-0.1), abs=1e-7)
        # and the plant integrator agrees with an independent generic RK4
        state = initial_state(plant)
        f = lambda s: derivative(plant, s, 300.0, np.array([1.0]))
        np.testing.assert_allclose(
            rk4_step(plant, state, 300.0, np.array([1.0]), 0.05),
            rk4_generic(f, state, 0.05),
            rtol=1e-12,
        )


class TestSimulate:
    def test_trace_length_arithmetic(self):
        plant = make_plant("watertank")
        cfg = SimConfig(dt=0.05, horizon=0.25, control_period=0.25)
        tr = simulate(plant, default_pid(plant), constant_input(plant, 1.0, duration=0.25), cfg)
        assert len(tr) == 6  # control_period/dt + 1

    def test_acc_pid_benign_lead_satisfies_spec(self):
        plant = make_plant("acc")
        tr = simulate(plant, default_pid(plant), constant_input(plant, 0.0), default_sim_config(plant))
        assert satisfied(tr, parse_stl(ACC_SPEC))

    def test_determinism_bit_identical(self):
        plant = make_plant("acc")
        cfg = default_sim_config(plant)
        sig = constant_input(plant, 0.5)
        t1 = simulate(plant, default_pid(plant), sig, cfg)
        t2 = simulate(plant, default_pid(plant), sig, cfg)
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.actions, t2.actions)

    def test_input_must_cover_horizon(self):
        plant = make_plant("acc")
        with pytest.raises(ValueError, match="duration"):
            simulate(plant, default_pid(plant), constant_input(plant, 0.0, duration=10.0),
                     default_sim_config(plant))

    def test_control_period_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(dt=0.1, horizon=10.0, control_period=0.25)

    def test_acc_kinematic_consistency(self):
        # d_rel increments equal the integrated velocity difference; with
        # piecewise-constant accelerations the integral is exact quadrature
        plant = make_plant("acc")
        cfg = default_sim_config(plant)
        tr = simulate(plant, default_pid(plant), constant_input(plant, 0.3), cfg)
        d_rel = tr.column("d_rel")
        v_l = tr.column("v_lead")
        v_e = tr.column("v_ego")
        for i in range(len(tr) - 1):
            inc = d_rel[i + 1] - d_rel[i]
            quad = 0.5 * cfg.dt * ((v_l[i] - v_e[i]) + (v_l[i + 1] - v_e[i + 1]))
            assert abs(inc - quad) < 1e-6

    def test_watertank_level_never_negative(self):
        plant = make_plant("watertank")
        cfg = default_sim_config(plant)
        spec = default_input_spec(plant, num_control_points=4, duration=20.0)
        sig = make_input(spec, [[0.5, 1.5, 0.5, 1.5]])
        # zero-inflow controller drains the tank toward the sqrt guard
        pid = default_pid(plant)
        pid.kp = pid.ki = pid.kd = 0.0
        tr = simulate(plant, pid, sig, cfg)
        assert np.all(tr.column("level") >= 0.0)

    def test_halving_dt_barely_moves_final_state(self):
        for name in ("acc", "cstr", "watertank"):
            plant = make_plant(name)
            cfg = default_sim_config(plant)
            fine = SimConfig(dt=cfg.dt / 2, horizon=cfg.horizon, control_period=cfg.control_period)
            sig = constant_input(plant, {"acc": 0.2, "cstr": 1.0, "watertank": 1.1}[name],
                                 duration=cfg.horizon)
            coarse_tr = simulate(plant, default_pid(plant), sig, cfg)
            fine_tr = simulate(plant, default_pid(plant), sig, fine)
            a = coarse_tr.states[-1]
            b = fine_tr.states[-1]
            rel = np.abs(a - b) / np.maximum(np.abs(b), 1.0)
            assert np.max(rel) < 1e-4, name


def assert_same_run(got, want):
    for name in ("states", "actions", "inputs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


class TestSimulatorOracle:
    """The float-kernel loop against the array loop in oracles.py: states,
    actions and inputs equal bit for bit."""

    @pytest.mark.parametrize("name,kind", [("acc", "mlp"), ("acc", "pid"), ("cstr", "pid"),
                                           ("watertank", "pid")])
    @pytest.mark.parametrize("interpolation", ["pconst", "plinear"])
    def test_bit_identical(self, name, kind, interpolation):
        plant = make_plant(name)
        cfg = default_sim_config(plant)
        controller = load_mlp(UNSAFE_MLP) if kind == "mlp" else default_pid(plant)
        spec = default_input_spec(plant, num_control_points=6, duration=cfg.horizon,
                                  interpolation=interpolation)
        for seed in range(3):
            sig = random_signal(spec, np.random.default_rng(seed))
            assert_same_run(simulate(plant, controller, sig, cfg),
                            simulate_oracle(plant, controller, sig, cfg))

    def test_monitored_run_with_switching(self):
        plant = make_plant("watertank")
        cfg = default_sim_config(plant)
        spec = default_input_spec(plant, num_control_points=4, duration=cfg.horizon)
        sig = make_input(spec, [[1.0, 1.2, 0.8, 1.0]])
        ai = init_mlp(2, (8,), plant.control_range, seed=5)
        safe = default_pid(plant)
        trace = simulate(plant, ai, sig, cfg)
        robs = np.full(len(trace), 1.0)
        robs[0] = -1.0  # the start cell is bad, so the first period runs the PID
        model = build_abstraction([(trace, robs)], AbstractionConfig(k=2, c=3))
        mcfg = MonitorConfig(parse_pctl('P>0.8 [ F<=10 "rob=-1" ]'), period=5.0, unknown_policy="AI")
        mt = run_monitored(plant, ai, safe, model, mcfg, sig, cfg)
        tags = mt.controller_tags
        assert len(set(tags.tolist())) == 2  # it did switch, both ways
        active, last = None, None

        def replay(i, t, row):
            nonlocal active, last
            if tags[i] != last:
                active = fresh_oracle(safe) if tags[i] == SAFE_TAG else ai
                last = tags[i]
            return active

        assert_same_run(mt.trace, simulate_oracle(plant, ai, sig, cfg, replay))


class TestBlowup:
    @pytest.mark.parametrize("dt,seed,error", [(0.5, None, FloatingPointError), (0.75, 94, OverflowError)])
    def test_blowup_in_rk4_stage_becomes_simulation_blowup(self, dt, seed, error):
        # with these coarse steps the CSTR state leaves the finite range,
        # or exp overflows, inside an RK4 stage, where the array loop
        # stopped with a bare error
        plant = make_plant("cstr")
        cfg = SimConfig(dt=dt, horizon=30.0, control_period=dt)
        if seed is None:
            sig = make_input(default_input_spec(plant, num_control_points=1, duration=30.0), [[1.25]])
        else:
            spec = default_input_spec(plant, num_control_points=2, duration=30.0)
            sig = random_signal(spec, np.random.default_rng(seed))
        with pytest.raises(SimulationBlowup, match="diverged") as info:
            simulate(plant, default_pid(plant), sig, cfg)
        with np.errstate(over="ignore"), pytest.raises(error):
            simulate_oracle(plant, default_pid(plant), sig, cfg)
        partial = info.value.trace
        n = len(partial)
        assert str(info.value).endswith(f"t={n * dt:.3f}")
        head = simulate_oracle(plant, default_pid(plant), sig, SimConfig(dt, (n - 1) * dt, dt))
        assert np.array_equal(partial.states, head.states)
        assert np.array_equal(partial.inputs, head.inputs)
        # the last row's action was computed for the step that blew up
        assert np.array_equal(partial.actions[:-1], head.actions[:-1])

    def test_rk4_kernel_raises_on_non_finite_state(self):
        plant = make_plant("acc")
        state = np.array([100.0, float("inf"), 40.0, 20.0])
        with pytest.raises(FloatingPointError):
            rk4_step(plant, state, 0.0, np.array([0.0]), 0.1)
