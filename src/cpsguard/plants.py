"""Desk-scale plant dynamics and the closed-loop simulator.

The loop mirrors the usual sampled control architecture: at every
control instant the active controller reads the plant observation and
emits one action, the action is held for control_period seconds, and
the continuous state is advanced with classical RK4 at the dt grid.
Exogenous inputs come from an `signals.InputSignal` sampled at each
step. `simulate` is the only step loop: collection and falsification
run it with one controller, and the online monitor (`monitor`) runs it
with a per-step hook that picks the controller.

Three plants ship with documented channels, observations, and PID error
maps (the observation is what learned controllers see; the error map is
how the fallback PID reads the same observation):

acc: two-car following. Integration state [x_lead, v_lead, x_ego,
    v_ego]; the exogenous channel is the lead acceleration, clamped to
    [-2, 2]; the control is the ego acceleration, clamped to [-3, 2].
    Velocities are projected to >= 0 after each step (cars do not
    reverse). Recorded channels add d_rel = x_lead - x_ego,
    d_safe = d_default + t_gap*v_ego (10 + 1.4 v), and the constant
    v_target. Observation [d_rel, v_ego, v_lead, v_target - v_ego];
    PID error min(v_target - v_ego, (d_rel - d_safe)/t_gap), i.e. track
    the cruise speed but never faster than the spacing allows.

cstr: two-state exothermic reactor,
        dC/dt = (C_f - C)/theta - k0*exp(-e_act/T)*C
        dT/dt = (T_f - T)/theta + k1*exp(-e_act/T)*C + k2*(u - T)
    with u the coolant temperature (the control) and C_f the feed
    concentration (the exogenous channel). The reference conc_ref(t)
    ramps from ref_start to ref_end over [ramp_start, ramp_end].
    Channels [conc, temp, conc_ref, error] with error = conc -
    conc_ref. Observation [conc, temp, conc_ref]; PID error
    conc - conc_ref (excess concentration calls for hotter coolant).

watertank: dh/dt = (u - outflow_coeff*sqrt(max(h, 0)))/area, u the
    inflow (control) and the exogenous channel a level reference that
    only enters the observation. Channels [level, level_ref].
    Observation [level, level_ref]; PID error level_ref - level.

Each plant is one entry of the `_PLANTS` table: names, defaults
(overridable via `make_plant(name, params)`) and float kernels that
step a tuple of Python floats with the same float operations, in the
same order, as numpy on arrays; `simulate` steps through them, and
`observe` gives a controller's observation as an array. Simulations are
pure functions of (plant, controller parameters, input, cfg), so
identical inputs give bit-identical traces.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from math import exp, isfinite, sqrt

import numpy as np

from .controllers import MlpNet, PidController, mlp_forward, pid_act
from .signals import InputSignal, InputSpec, Trace, sample


@dataclass(frozen=True)
class _PlantDef:
    """One plant: names, defaults and float kernels. A kernel reads p (params), s (state, a
    tuple of floats), u (control), e (exogenous values) and t (time)."""

    state_names: tuple[str, ...]  # integration state vector
    channels: tuple[str, ...]  # recorded trace channels
    defaults: dict  # params; the initial state is the params named <state name>0
    control: tuple[str, str]  # params bounding the control
    exogenous: tuple[str, str]  # params bounding the exogenous channel
    sim: tuple[float, float, float]  # default dt, horizon, control_period
    pid: tuple[float, float, float, float]  # default kp, ki, kd, integral_limit
    derivative: Callable  # (p, s, u, e) -> ds/dt; raises FloatingPointError on non-finite s
    rk4: Callable  # (derivative, p, s, u, e, dt) -> next s
    project: Callable  # s -> s clipped to the physical domain
    row: Callable  # (p, s, e, t) -> recorded channel values
    observe: Callable  # (p, s, e, t) -> controller observation
    error: Callable  # (p, observation) -> PID error


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _rk4_1(f, p, s, u, e, dt):
    """Classical RK4, s + dt/6*(k1 + 2*k2 + 2*k3 + k4), for 1 state (_rk4_2, _rk4_4: 2 and 4)."""
    h, w = 0.5 * dt, dt / 6.0
    (x,) = s
    (a,) = f(p, s, u, e)
    (b,) = f(p, (x + h * a,), u, e)
    (c,) = f(p, (x + h * b,), u, e)
    (d,) = f(p, (x + dt * c,), u, e)
    return (x + w * (a + 2.0 * b + 2.0 * c + d),)


def _rk4_2(f, p, s, u, e, dt):
    h, w = 0.5 * dt, dt / 6.0
    x0, x1 = s
    a0, a1 = f(p, s, u, e)
    b0, b1 = f(p, (x0 + h * a0, x1 + h * a1), u, e)
    c0, c1 = f(p, (x0 + h * b0, x1 + h * b1), u, e)
    d0, d1 = f(p, (x0 + dt * c0, x1 + dt * c1), u, e)
    return (x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1))


def _rk4_4(f, p, s, u, e, dt):
    h, w = 0.5 * dt, dt / 6.0
    x0, x1, x2, x3 = s
    a0, a1, a2, a3 = f(p, s, u, e)
    b0, b1, b2, b3 = f(p, (x0 + h * a0, x1 + h * a1, x2 + h * a2, x3 + h * a3), u, e)
    c0, c1, c2, c3 = f(p, (x0 + h * b0, x1 + h * b1, x2 + h * b2, x3 + h * b3), u, e)
    d0, d1, d2, d3 = f(p, (x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3), u, e)
    return (x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2), x3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))


def _acc_derivative(p, s, u, e):
    x_l, v_l, x_e, v_e = s
    if not (isfinite(x_l) and isfinite(v_l) and isfinite(x_e) and isfinite(v_e)):
        raise FloatingPointError(f"acc: non-finite state {s}")
    a_l = _clamp(e[0], p["lead_accel_min"], p["lead_accel_max"])
    a_e = _clamp(u, p["accel_min"], p["accel_max"])
    if v_l <= 0.0 and a_l < 0.0:
        a_l = 0.0
    if v_e <= 0.0 and a_e < 0.0:
        a_e = 0.0
    return v_l, a_l, v_e, a_e


def _acc_error(p, obs):
    d_rel, v_e, v_l, _dv = obs
    d_aim = p["d_default"] + p["pid_headway_factor"] * p["t_gap"] * v_e
    # spacing error includes the closing speed so braking starts
    # while the gap is still comfortable
    gap_term = (d_rel - d_aim) / p["t_gap"] + (v_l - v_e)
    return min(p["v_target"] - v_e, gap_term)


def _conc_ref(p, t):
    """CSTR concentration setpoint: hold, ramp, hold."""
    if t <= p["ramp_start"]:
        return p["ref_start"]
    if t >= p["ramp_end"]:
        return p["ref_end"]
    frac = (t - p["ramp_start"]) / (p["ramp_end"] - p["ramp_start"])
    return p["ref_start"] + frac * (p["ref_end"] - p["ref_start"])


def _cstr_derivative(p, s, u, e):
    conc, temp = s
    if not (isfinite(conc) and isfinite(temp)):
        raise FloatingPointError(f"cstr: non-finite state {s}")
    u = _clamp(u, p["u_min"], p["u_max"])
    rate = p["k0"] * exp(-p["e_act"] / temp) * conc
    dc = (e[0] - conc) / p["theta"] - rate
    dT = (p["t_feed"] - temp) / p["theta"] + p["k1"] * rate + p["k2"] * (u - temp)
    return dc, dT


def _cstr_row(p, s, e, t):
    ref = _conc_ref(p, t)
    return s[0], s[1], ref, s[0] - ref


def _tank_derivative(p, s, u, e):
    if not isfinite(s[0]):
        raise FloatingPointError(f"watertank: non-finite state {s}")
    u = _clamp(u, p["inflow_min"], p["inflow_max"])
    return ((u - p["outflow_coeff"] * sqrt(max(s[0], 0.0))) / p["area"],)


_PLANTS = {
    "acc": _PlantDef(
        state_names=("x_lead", "v_lead", "x_ego", "v_ego"),
        channels=("x_lead", "v_lead", "x_ego", "v_ego", "d_rel", "d_safe", "v_target"),
        defaults={
            "t_gap": 1.4, "d_default": 10.0, "v_target": 24.0,
            "x_lead0": 120.0, "v_lead0": 25.0, "x_ego0": 0.0, "v_ego0": 20.0,
            "lead_accel_min": -2.0, "lead_accel_max": 2.0, "accel_min": -3.0, "accel_max": 2.0,
            # spacing the fallback controller aims for, in units of t_gap*v_ego;
            # above 1.0 so the regulator holds margin beyond the d_safe channel
            "pid_headway_factor": 2.4,
        },
        control=("accel_min", "accel_max"), exogenous=("lead_accel_min", "lead_accel_max"), sim=(0.1, 50.0, 0.1),
        # kd stays 0: the closing-speed term in the error already
        # anticipates, and a memoryless law is what behavior cloning
        # can actually reproduce from single observations
        pid=(1.5, 0.02, 0.0, 50.0),
        derivative=_acc_derivative, rk4=_rk4_4, error=_acc_error,
        project=lambda s: (s[0], max(s[1], 0.0), s[2], max(s[3], 0.0)),
        row=lambda p, s, e, t: (*s, s[0] - s[2], p["d_default"] + p["t_gap"] * s[3], p["v_target"]),
        observe=lambda p, s, e, t: (s[0] - s[2], s[3], s[1], p["v_target"] - s[3]),
    ),
    "cstr": _PlantDef(
        state_names=("conc", "temp"), channels=("conc", "temp", "conc_ref", "error"),
        defaults={
            "theta": 2.0, "c_feed": 1.0, "t_feed": 300.0, "k0": 5.0e7, "e_act": 6000.0, "k1": 150.0, "k2": 1.0,
            "conc0": 0.80, "temp0": 302.0, "ref_start": 0.80, "ref_end": 0.45, "ramp_start": 5.0, "ramp_end": 25.0,
            "u_min": 280.0, "u_max": 330.0, "feed_min": 0.7, "feed_max": 1.3,
        },
        control=("u_min", "u_max"), exogenous=("feed_min", "feed_max"),
        sim=(0.05, 30.0, 0.05), pid=(400.0, 60.0, 40.0, 10.0),
        derivative=_cstr_derivative, rk4=_rk4_2, project=lambda s: (max(s[0], 0.0), s[1]), row=_cstr_row,
        observe=lambda p, s, e, t: (s[0], s[1], _conc_ref(p, t)), error=lambda p, o: o[0] - o[2],
    ),
    "watertank": _PlantDef(
        state_names=("level",), channels=("level", "level_ref"),
        defaults={
            "outflow_coeff": 1.0, "area": 2.0, "level0": 1.0,
            "inflow_min": 0.0, "inflow_max": 3.0, "ref_min": 0.5, "ref_max": 1.5,
        },
        control=("inflow_min", "inflow_max"), exogenous=("ref_min", "ref_max"),
        sim=(0.05, 20.0, 0.05), pid=(4.0, 0.5, 0.2, 10.0),
        derivative=_tank_derivative, rk4=_rk4_1, error=lambda p, o: o[1] - o[0],
        # as np.maximum(s, 0.0): NaN stays NaN, -0.0 becomes 0.0
        project=lambda s: (0.0 if s[0] <= 0.0 else s[0],),
        row=lambda p, s, e, t: (s[0], e[0]), observe=lambda p, s, e, t: (s[0], e[0]),
    ),
}


@dataclass(frozen=True)
class PlantModel:
    name: str
    state_names: tuple[str, ...]  # integration state vector
    channels: tuple[str, ...]  # recorded trace channels
    control_range: tuple[float, float]
    exogenous_dim: int
    params: dict

    @property
    def state_dim(self) -> int:
        return len(self.state_names)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    control_period: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        per = self.control_period / self.dt
        if abs(per - round(per)) > 1e-9 or round(per) < 1:
            raise ValueError(f"control_period {self.control_period} is not a multiple of dt {self.dt}")
        if self.horizon < self.control_period:
            raise ValueError("horizon must cover at least one control period")

    @property
    def steps_per_control(self) -> int:
        return int(round(self.control_period / self.dt))

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def make_plant(name: str, params: dict | None = None) -> PlantModel:
    if name not in _PLANTS:
        raise ValueError(f"unknown plant {name!r}, expected one of {sorted(_PLANTS)}")
    kind = _PLANTS[name]
    p = dict(kind.defaults)
    for key, value in (params or {}).items():
        if key not in p:
            raise ValueError(f"unknown {name} parameter {key!r}")
        p[key] = float(value)
    lo, hi = kind.control
    return PlantModel(name=name, state_names=kind.state_names, channels=kind.channels,
                      control_range=(p[lo], p[hi]), exogenous_dim=1, params=p)


def default_input_spec(plant: PlantModel, num_control_points: int = 6, duration: float = 50.0,
                       interpolation: str = "pconst") -> InputSpec:
    """Search space for the plant's exogenous channel."""
    lo, hi = _PLANTS[plant.name].exogenous
    return InputSpec(dims=1, ranges=((plant.params[lo], plant.params[hi]),), num_control_points=num_control_points,
                     duration=duration, interpolation=interpolation)


def default_sim_config(plant: PlantModel) -> SimConfig:
    return SimConfig(*_PLANTS[plant.name].sim)


def default_pid(plant: PlantModel) -> PidController:
    kp, ki, kd, integral_limit = _PLANTS[plant.name].pid
    lo, hi = plant.control_range
    return PidController(kp=kp, ki=ki, kd=kd, out_lo=lo, out_hi=hi, integral_limit=integral_limit)


def initial_state(plant: PlantModel) -> np.ndarray:
    return np.array([plant.params[name + "0"] for name in plant.state_names])


def observe(plant: PlantModel, state: np.ndarray, exo: np.ndarray, t: float) -> np.ndarray:
    """Observation vector fed to controllers."""
    return np.array(_PLANTS[plant.name].observe(plant.params, tuple(state), exo, t))


class SimulationBlowup(RuntimeError):
    """Numeric blow-up during simulation; carries the truncated trace."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace


def _fresh_controller(controller):
    if isinstance(controller, PidController):
        pid = dataclasses.replace(controller)
        pid.reset()
        return pid
    return controller


def controller_action(controller, plant: PlantModel, obs, dt: float) -> float:
    """One action for an observation (array or tuple of floats)."""
    if isinstance(controller, MlpNet):
        return mlp_forward(controller, obs)
    if isinstance(controller, PidController):
        return pid_act(controller, _PLANTS[plant.name].error(plant.params, obs), dt)
    raise TypeError(f"not a controller: {controller!r}")


def simulate(plant: PlantModel, controller, input_signal: InputSignal, cfg: SimConfig,
             step_hook=None) -> Trace:
    """Run the closed loop and record one trace.

    The controller acts every control_period seconds on the current
    observation; its output is held between control instants. PID
    controllers get a fresh copy with cleared state, so a shared
    instance can be reused across runs.

    step_hook, when given, is called at every step i (time t) with
    (i, t, row), row being the channel vector recorded for that step,
    before the controller acts; it returns the controller to act from
    that step on, in place of `controller`. The online monitor uses it
    to switch controllers at its period boundaries.

    The state steps through the plant's float kernels. A step that
    overflows or leaves a non-finite state, in an RK4 stage or after
    projection, raises `SimulationBlowup` with the trace up to it.
    """
    if input_signal.spec.duration + 1e-9 < cfg.horizon:
        raise ValueError(f"input duration {input_signal.spec.duration} shorter than horizon {cfg.horizon}")
    controller = _fresh_controller(controller)
    kind = _PLANTS[plant.name]
    f, rk4, project, row_of, observe_of = kind.derivative, kind.rk4, kind.project, kind.row, kind.observe
    p, dt, per, n_steps = plant.params, cfg.dt, cfg.steps_per_control, cfg.n_steps
    inputs = sample(input_signal, np.arange(n_steps + 1) * dt)
    state = tuple(initial_state(plant).tolist())
    rows, actions = [], []
    action = 0.0
    for i, exo in enumerate(inputs.tolist()):
        t = i * dt
        row = row_of(p, state, exo, t)
        if step_hook is not None:
            controller = step_hook(i, t, np.array(row))
        if i % per == 0 and i < n_steps:
            action = controller_action(controller, plant, observe_of(p, state, exo, t), cfg.control_period)
        rows.append(row)
        actions.append(action)
        if i < n_steps:
            try:
                state = project(rk4(f, p, state, action, exo, dt))
                finite = all(map(isfinite, state))
            except (FloatingPointError, OverflowError):
                finite = False
            if not finite:
                partial = Trace(dt, plant.channels, rows, actions, inputs[: i + 1])
                raise SimulationBlowup(f"{plant.name}: state diverged at t={t + dt:.3f}", partial)
    return Trace(dt, plant.channels, rows, actions, inputs)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """A plant bound to one controller, sim config, and input space."""

    plant: PlantModel
    controller: object
    simcfg: SimConfig
    input_spec: InputSpec

    def run(self, input_signal: InputSignal) -> Trace:
        return simulate(self.plant, self.controller, input_signal, self.simcfg)
