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

All plant constants live in the defaults tables below and can be
overridden via `make_plant(name, params)`. Simulations are pure
functions of (plant, controller parameters, input, cfg): no hidden
randomness, so identical inputs give bit-identical traces.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .controllers import MlpNet, PidController, mlp_forward, pid_act
from .signals import InputSignal, InputSpec, Trace, sample

ACC_DEFAULTS = {
    "t_gap": 1.4,
    "d_default": 10.0,
    "v_target": 24.0,
    "x_lead0": 120.0,
    "v_lead0": 25.0,
    "x_ego0": 0.0,
    "v_ego0": 20.0,
    "lead_accel_min": -2.0,
    "lead_accel_max": 2.0,
    "accel_min": -3.0,
    "accel_max": 2.0,
    # spacing the fallback controller aims for, in units of t_gap*v_ego;
    # above 1.0 so the regulator holds margin beyond the d_safe channel
    "pid_headway_factor": 2.4,
}

CSTR_DEFAULTS = {
    "theta": 2.0,
    "c_feed": 1.0,
    "t_feed": 300.0,
    "k0": 5.0e7,
    "e_act": 6000.0,
    "k1": 150.0,
    "k2": 1.0,
    "conc0": 0.80,
    "temp0": 302.0,
    "ref_start": 0.80,
    "ref_end": 0.45,
    "ramp_start": 5.0,
    "ramp_end": 25.0,
    "u_min": 280.0,
    "u_max": 330.0,
    "feed_min": 0.7,
    "feed_max": 1.3,
}

TANK_DEFAULTS = {
    "outflow_coeff": 1.0,
    "area": 2.0,
    "level0": 1.0,
    "inflow_min": 0.0,
    "inflow_max": 3.0,
    "ref_min": 0.5,
    "ref_max": 1.5,
}

_DEFAULTS = {"acc": ACC_DEFAULTS, "cstr": CSTR_DEFAULTS, "watertank": TANK_DEFAULTS}


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
    if name not in _DEFAULTS:
        raise ValueError(f"unknown plant {name!r}, expected one of {sorted(_DEFAULTS)}")
    p = dict(_DEFAULTS[name])
    for key, value in (params or {}).items():
        if key not in p:
            raise ValueError(f"unknown {name} parameter {key!r}")
        p[key] = float(value)
    if name == "acc":
        return PlantModel(
            name="acc",
            state_names=("x_lead", "v_lead", "x_ego", "v_ego"),
            channels=("x_lead", "v_lead", "x_ego", "v_ego", "d_rel", "d_safe", "v_target"),
            control_range=(p["accel_min"], p["accel_max"]),
            exogenous_dim=1,
            params=p,
        )
    if name == "cstr":
        return PlantModel(
            name="cstr",
            state_names=("conc", "temp"),
            channels=("conc", "temp", "conc_ref", "error"),
            control_range=(p["u_min"], p["u_max"]),
            exogenous_dim=1,
            params=p,
        )
    return PlantModel(
        name="watertank",
        state_names=("level",),
        channels=("level", "level_ref"),
        control_range=(p["inflow_min"], p["inflow_max"]),
        exogenous_dim=1,
        params=p,
    )


def default_input_spec(plant: PlantModel, num_control_points: int = 6, duration: float = 50.0,
                       interpolation: str = "pconst") -> InputSpec:
    """Search space for the plant's exogenous channel."""
    p = plant.params
    if plant.name == "acc":
        ranges = ((p["lead_accel_min"], p["lead_accel_max"]),)
    elif plant.name == "cstr":
        ranges = ((p["feed_min"], p["feed_max"]),)
    else:
        ranges = ((p["ref_min"], p["ref_max"]),)
    return InputSpec(dims=1, ranges=ranges, num_control_points=num_control_points,
                     duration=duration, interpolation=interpolation)


def default_sim_config(plant: PlantModel) -> SimConfig:
    if plant.name == "acc":
        return SimConfig(dt=0.1, horizon=50.0, control_period=0.1)
    if plant.name == "cstr":
        return SimConfig(dt=0.05, horizon=30.0, control_period=0.05)
    return SimConfig(dt=0.05, horizon=20.0, control_period=0.05)


def default_pid(plant: PlantModel) -> PidController:
    lo, hi = plant.control_range
    if plant.name == "acc":
        # kd stays 0: the closing-speed term in the error already
        # anticipates, and a memoryless law is what behavior cloning
        # can actually reproduce from single observations
        return PidController(kp=1.5, ki=0.02, kd=0.0, out_lo=lo, out_hi=hi, integral_limit=50.0)
    if plant.name == "cstr":
        return PidController(kp=400.0, ki=60.0, kd=40.0, out_lo=lo, out_hi=hi, integral_limit=10.0)
    return PidController(kp=4.0, ki=0.5, kd=0.2, out_lo=lo, out_hi=hi, integral_limit=10.0)


def initial_state(plant: PlantModel) -> np.ndarray:
    p = plant.params
    if plant.name == "acc":
        return np.array([p["x_lead0"], p["v_lead0"], p["x_ego0"], p["v_ego0"]])
    if plant.name == "cstr":
        return np.array([p["conc0"], p["temp0"]])
    return np.array([p["level0"]])


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def conc_ref(plant: PlantModel, t: float) -> float:
    """CSTR concentration setpoint: hold, ramp, hold."""
    p = plant.params
    if t <= p["ramp_start"]:
        return p["ref_start"]
    if t >= p["ramp_end"]:
        return p["ref_end"]
    frac = (t - p["ramp_start"]) / (p["ramp_end"] - p["ramp_start"])
    return p["ref_start"] + frac * (p["ref_end"] - p["ref_start"])


def derivative(plant: PlantModel, state: np.ndarray, control: float, exo: np.ndarray) -> np.ndarray:
    """Right-hand side of the plant ODE; raises on non-finite state."""
    if not np.all(np.isfinite(state)):
        raise FloatingPointError(f"{plant.name}: non-finite state {state}")
    p = plant.params
    if plant.name == "acc":
        x_l, v_l, x_e, v_e = state
        a_l = _clamp(float(exo[0]), p["lead_accel_min"], p["lead_accel_max"])
        a_e = _clamp(float(control), p["accel_min"], p["accel_max"])
        if v_l <= 0.0 and a_l < 0.0:
            a_l = 0.0
        if v_e <= 0.0 and a_e < 0.0:
            a_e = 0.0
        return np.array([v_l, a_l, v_e, a_e])
    if plant.name == "cstr":
        conc, temp = state
        u = _clamp(float(control), p["u_min"], p["u_max"])
        c_f = float(exo[0])
        rate = p["k0"] * math.exp(-p["e_act"] / temp) * conc
        dc = (c_f - conc) / p["theta"] - rate
        dT = (p["t_feed"] - temp) / p["theta"] + p["k1"] * rate + p["k2"] * (u - temp)
        return np.array([dc, dT])
    level = state[0]
    u = _clamp(float(control), p["inflow_min"], p["inflow_max"])
    dh = (u - p["outflow_coeff"] * math.sqrt(max(level, 0.0))) / p["area"]
    return np.array([dh])


def rk4_step(plant: PlantModel, state: np.ndarray, control: float, exo: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta update."""
    k1 = derivative(plant, state, control, exo)
    k2 = derivative(plant, state + 0.5 * dt * k1, control, exo)
    k3 = derivative(plant, state + 0.5 * dt * k2, control, exo)
    k4 = derivative(plant, state + dt * k3, control, exo)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def project_state(plant: PlantModel, state: np.ndarray) -> np.ndarray:
    """Clip integrator output back to the physical domain."""
    if plant.name == "acc":
        out = state.copy()
        out[1] = max(out[1], 0.0)
        out[3] = max(out[3], 0.0)
        return out
    if plant.name == "cstr":
        out = state.copy()
        out[0] = max(out[0], 0.0)
        return out
    return np.maximum(state, 0.0)


def channel_row(plant: PlantModel, state: np.ndarray, exo: np.ndarray, t: float) -> np.ndarray:
    """Recorded channel vector (the concrete state seen by the abstraction)."""
    p = plant.params
    if plant.name == "acc":
        x_l, v_l, x_e, v_e = state
        d_rel = x_l - x_e
        d_safe = p["d_default"] + p["t_gap"] * v_e
        return np.array([x_l, v_l, x_e, v_e, d_rel, d_safe, p["v_target"]])
    if plant.name == "cstr":
        conc, temp = state
        ref = conc_ref(plant, t)
        return np.array([conc, temp, ref, conc - ref])
    return np.array([state[0], float(exo[0])])


def observe(plant: PlantModel, state: np.ndarray, exo: np.ndarray, t: float) -> np.ndarray:
    """Observation vector fed to controllers."""
    p = plant.params
    if plant.name == "acc":
        x_l, v_l, x_e, v_e = state
        d_rel = x_l - x_e
        return np.array([d_rel, v_e, v_l, p["v_target"] - v_e])
    if plant.name == "cstr":
        return np.array([state[0], state[1], conc_ref(plant, t)])
    return np.array([state[0], float(exo[0])])


def pid_error(plant: PlantModel, obs: np.ndarray) -> float:
    """Scalar error the fallback PID regulates, per plant docs above."""
    p = plant.params
    if plant.name == "acc":
        d_rel, v_e, v_l, _dv = obs
        d_aim = p["d_default"] + p["pid_headway_factor"] * p["t_gap"] * v_e
        # spacing error includes the closing speed so braking starts
        # while the gap is still comfortable
        gap_term = (d_rel - d_aim) / p["t_gap"] + (v_l - v_e)
        return min(p["v_target"] - v_e, gap_term)
    if plant.name == "cstr":
        return float(obs[0] - obs[2])
    return float(obs[1] - obs[0])


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


def controller_action(controller, plant: PlantModel, obs: np.ndarray, dt: float) -> float:
    if isinstance(controller, MlpNet):
        return mlp_forward(controller, obs)
    if isinstance(controller, PidController):
        return pid_act(controller, pid_error(plant, obs), dt)
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
    """
    if input_signal.spec.duration + 1e-9 < cfg.horizon:
        raise ValueError(
            f"input duration {input_signal.spec.duration} shorter than horizon {cfg.horizon}"
        )
    controller = _fresh_controller(controller)
    per = cfg.steps_per_control
    n_steps = cfg.n_steps
    state = initial_state(plant)
    rows, acts, exos = [], [], []
    action = 0.0
    for i in range(n_steps + 1):
        t = i * cfg.dt
        exo = sample(input_signal, t)
        row = channel_row(plant, state, exo, t)
        if step_hook is not None:
            controller = step_hook(i, t, row)
        if i % per == 0 and i < n_steps:
            obs = observe(plant, state, exo, t)
            action = controller_action(controller, plant, obs, cfg.control_period)
        rows.append(row)
        acts.append(action)
        exos.append(exo)
        if i < n_steps:
            state = project_state(plant, rk4_step(plant, state, action, exo, cfg.dt))
            if not np.all(np.isfinite(state)):
                partial = Trace(cfg.dt, plant.channels, np.array(rows), np.array(acts), np.array(exos))
                raise SimulationBlowup(f"{plant.name}: state diverged at t={t + cfg.dt:.3f}", partial)
    return Trace(cfg.dt, plant.channels, np.array(rows), np.array(acts), np.array(exos))


@dataclass(frozen=True)
class ClosedLoopSystem:
    """A plant bound to one controller, sim config, and input space."""

    plant: PlantModel
    controller: object
    simcfg: SimConfig
    input_spec: InputSpec

    def run(self, input_signal: InputSignal) -> Trace:
        return simulate(self.plant, self.controller, input_signal, self.simcfg)
