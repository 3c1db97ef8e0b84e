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
(overridable via `make_plant(name, params)`) and float kernels over
tuples of Python floats, with the same float operations, in the same
order, as numpy on arrays. Its kernel factory `step(p, dt)` reads the
params once per run and returns the step (s, u, e) -> next state: the
control and exogenous input clamped once, classical RK4, then the
projection; a non-finite stage state or result raises FloatingPointError.
Its row factory `row(p, times)` reads the params, and the CSTR's
reference ramp at each time of the run's grid, once per run and returns
(s, e, i) -> the channel values recorded at step i; the observation is
read off that row. `simulate` binds both once per run, and `policy`
binds a controller to a fresh run, a PID with its error map `error(p)`;
`observe` gives a controller's observation as an array. Controllers
are immutable, so simulations are pure functions of (plant, controller,
input, cfg): identical inputs give bit-identical traces, and one
controller can drive any number of runs at once.
"""

from __future__ import annotations

from math import exp, isfinite, sqrt

import numpy as np

from .controllers import MlpNet, PidController, mlp_policy, pid_policy
from .signals import InputSignal, InputSpec, Trace, sample
from .stl import Record


class _PlantDef(Record):
    """One plant: names, defaults and float kernels. A kernel reads p (params), s (state, a
    tuple of floats), u (control), e (exogenous values) and i (step index)."""

    __slots__ = (
        "state_names",  # integration state vector
        "channels",  # recorded trace channels
        "defaults",  # params; the initial state is the params named <state name>0
        "divisors",  # params the kernels divide by, so `make_plant` takes only positive values
        "control",  # params bounding the control
        "exogenous",  # params bounding the exogenous channel
        "sim",  # default dt, horizon, control_period
        "pid",  # default kp, ki, kd, integral_limit
        "step",  # (p, dt) -> (s, u, e) -> next s, projected
        "row",  # (p, times) -> (s, e, i) -> recorded channel values at step i, time times[i]
        "observe",  # recorded channel values -> controller observation
        "error",  # p -> observation -> PID error
    )


def _acc_step(p, dt):
    """RK4, s + dt/6*(k1 + 2*k2 + 2*k3 + k4), over the derivative f; the inputs are clamped
    before it, as the clamp does not depend on the stage state. A non-finite stage state or
    projected result raises FloatingPointError (in every plant)."""
    e_lo, e_hi, u_lo, u_hi = p["lead_accel_min"], p["lead_accel_max"], p["accel_min"], p["accel_max"]
    h, w = 0.5 * dt, dt / 6.0

    def f(s, a_l, a_e):
        x_l, v_l, x_e, v_e = s
        if not (isfinite(x_l) and isfinite(v_l) and isfinite(x_e) and isfinite(v_e)):
            raise FloatingPointError(f"acc: non-finite state {s}")
        return v_l, 0.0 if v_l <= 0.0 and a_l < 0.0 else a_l, v_e, 0.0 if v_e <= 0.0 and a_e < 0.0 else a_e

    def step(s, u, e):
        a_l, a_e = e[0], u_lo if u < u_lo else u_hi if u > u_hi else u
        a_l = e_lo if a_l < e_lo else e_hi if a_l > e_hi else a_l
        x0, x1, x2, x3 = s
        a0, a1, a2, a3 = f(s, a_l, a_e)
        b0, b1, b2, b3 = f((x0 + h * a0, x1 + h * a1, x2 + h * a2, x3 + h * a3), a_l, a_e)
        c0, c1, c2, c3 = f((x0 + h * b0, x1 + h * b1, x2 + h * b2, x3 + h * b3), a_l, a_e)
        d0, d1, d2, d3 = f((x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3), a_l, a_e)
        y0, y1 = x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), max(x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1), 0.0)
        y2, y3 = x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2), max(x3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3), 0.0)
        if not (isfinite(y0) and isfinite(y1) and isfinite(y2) and isfinite(y3)):
            raise FloatingPointError(f"acc: non-finite state {(y0, y1, y2, y3)}")
        return y0, y1, y2, y3
    return step


def _acc_row(p, times):
    d_default, t_gap, v_target = p["d_default"], p["t_gap"], p["v_target"]
    return lambda s, e, i: (*s, s[0] - s[2], d_default + t_gap * s[3], v_target)


def _acc_error(p):
    d_default, headway, t_gap, v_target = p["d_default"], p["pid_headway_factor"] * p["t_gap"], p["t_gap"], p["v_target"]

    def error(obs):  # the spacing term includes the closing speed, so braking starts while the gap is comfortable
        d_rel, v_e, v_l, _dv = obs
        return min(v_target - v_e, (d_rel - (d_default + headway * v_e)) / t_gap + (v_l - v_e))
    return error


def _cstr_step(p, dt):
    k0, e_act, k1, k2, theta, t_feed = p["k0"], p["e_act"], p["k1"], p["k2"], p["theta"], p["t_feed"]
    u_lo, u_hi = p["u_min"], p["u_max"]
    h, w = 0.5 * dt, dt / 6.0

    def f(s, c_feed, u):
        conc, temp = s
        if not (isfinite(conc) and isfinite(temp)):
            raise FloatingPointError(f"cstr: non-finite state {s}")
        rate = k0 * exp(-e_act / temp) * conc
        return (c_feed - conc) / theta - rate, (t_feed - temp) / theta + k1 * rate + k2 * (u - temp)

    def step(s, u, e):
        c_feed, u = e[0], u_lo if u < u_lo else u_hi if u > u_hi else u
        x0, x1 = s
        a0, a1 = f(s, c_feed, u)
        b0, b1 = f((x0 + h * a0, x1 + h * a1), c_feed, u)
        c0, c1 = f((x0 + h * b0, x1 + h * b1), c_feed, u)
        d0, d1 = f((x0 + dt * c0, x1 + dt * c1), c_feed, u)
        y0, y1 = max(x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), 0.0), x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        if not (isfinite(y0) and isfinite(y1)):
            raise FloatingPointError(f"cstr: non-finite state {(y0, y1)}")
        return y0, y1
    return step


def _cstr_row(p, times):
    """conc_ref holds ref_start, ramps to ref_end over [ramp_start, ramp_end], then holds; it is
    evaluated once per run, at each time of the run's grid."""
    r0, r1, t0, t1 = p["ref_start"], p["ref_end"], p["ramp_start"], p["ramp_end"]
    ref = [r0 if t <= t0 else r1 if t >= t1 else r0 + (t - t0) / (t1 - t0) * (r1 - r0) for t in times.tolist()]
    return lambda s, e, i: (s[0], s[1], ref[i], s[0] - ref[i])


def _tank_step(p, dt):
    coeff, area, u_lo, u_hi = p["outflow_coeff"], p["area"], p["inflow_min"], p["inflow_max"]
    h, w = 0.5 * dt, dt / 6.0

    def f(x, u):
        if not isfinite(x):
            raise FloatingPointError(f"watertank: non-finite state {(x,)}")
        return (u - coeff * sqrt(max(x, 0.0))) / area

    def step(s, u, e):
        u = u_lo if u < u_lo else u_hi if u > u_hi else u
        (x,) = s
        a = f(x, u)
        b = f(x + h * a, u)
        c = f(x + h * b, u)
        d = f(x + dt * c, u)
        x = x + w * (a + 2.0 * b + 2.0 * c + d)
        x = 0.0 if x <= 0.0 else x  # as np.maximum(s, 0.0): NaN stays NaN, -0.0 becomes 0.0
        if not isfinite(x):
            raise FloatingPointError(f"watertank: non-finite state {(x,)}")
        return (x,)
    return step


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
        divisors=("t_gap",), control=("accel_min", "accel_max"), exogenous=("lead_accel_min", "lead_accel_max"),
        # kd stays 0: the closing-speed term in the error already
        # anticipates, and a memoryless law is what behavior cloning
        # can actually reproduce from single observations
        sim=(0.1, 50.0, 0.1), pid=(1.5, 0.02, 0.0, 50.0),
        step=_acc_step, row=_acc_row, error=_acc_error,
        observe=lambda r: (r[4], r[3], r[1], r[6] - r[3]),
    ),
    "cstr": _PlantDef(
        state_names=("conc", "temp"), channels=("conc", "temp", "conc_ref", "error"),
        defaults={
            "theta": 2.0, "c_feed": 1.0, "t_feed": 300.0, "k0": 5.0e7, "e_act": 6000.0, "k1": 150.0, "k2": 1.0,
            "conc0": 0.80, "temp0": 302.0, "ref_start": 0.80, "ref_end": 0.45, "ramp_start": 5.0, "ramp_end": 25.0,
            "u_min": 280.0, "u_max": 330.0, "feed_min": 0.7, "feed_max": 1.3,
        },
        divisors=("theta", "temp0"), control=("u_min", "u_max"), exogenous=("feed_min", "feed_max"),
        sim=(0.05, 30.0, 0.05), pid=(400.0, 60.0, 40.0, 10.0),
        step=_cstr_step, row=_cstr_row, observe=lambda r: r[:3], error=lambda p: lambda o: o[0] - o[2],
    ),
    "watertank": _PlantDef(
        state_names=("level",), channels=("level", "level_ref"),
        defaults={
            "outflow_coeff": 1.0, "area": 2.0, "level0": 1.0,
            "inflow_min": 0.0, "inflow_max": 3.0, "ref_min": 0.5, "ref_max": 1.5,
        },
        divisors=("area",), control=("inflow_min", "inflow_max"), exogenous=("ref_min", "ref_max"),
        sim=(0.05, 20.0, 0.05), pid=(4.0, 0.5, 0.2, 10.0),
        step=_tank_step, error=lambda p: lambda o: o[1] - o[0],
        row=lambda p, times: lambda s, e, i: (s[0], e[0]), observe=lambda r: r,
    ),
}


class PlantModel(Record):
    # state_names: the integration state vector; channels: the recorded trace channels
    __slots__ = ("name", "state_names", "channels", "control_range", "params")

    @property
    def state_dim(self) -> int:
        return len(self.state_names)


_MAX_STEPS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize  # float64 values one array can hold


class SimConfig(Record):
    __slots__ = ("dt", "horizon", "control_period")

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon / self.dt < _MAX_STEPS:
            raise ValueError(f"horizon {self.horizon} at dt {self.dt} takes more steps than an array can hold")
        if self.horizon < self.control_period:
            raise ValueError("horizon must cover at least one control period")
        per = self.control_period / self.dt
        if abs(per - round(per)) > 1e-9 or round(per) < 1:
            raise ValueError(f"control_period {self.control_period} is not a multiple of dt {self.dt}")

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
    for key in kind.divisors:
        if not p[key] > 0:
            raise ValueError(f"{name} parameter {key!r} must be positive, got {p[key]}")
    lo, hi = kind.control
    if not p[lo] < p[hi]:
        raise ValueError(f"{name} control range is empty: {lo} {p[lo]} is not below {hi} {p[hi]}")
    return PlantModel(name=name, state_names=kind.state_names, channels=kind.channels,
                      control_range=(p[lo], p[hi]), params=p)


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
    kind = _PLANTS[plant.name]
    return np.array(kind.observe(kind.row(plant.params, np.array([t]))(tuple(state), exo, 0)))


class SimulationBlowup(RuntimeError):
    """Numeric blow-up during simulation; carries the truncated trace."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):  # pickle, as from a worker process, rebuilds it from both arguments
        return type(self), (self.args[0], self.trace)


def policy(controller, plant: PlantModel, period: float):
    """A fresh run of the controller, acting every `period` seconds on the plant: its action
    as a function of an observation (a tuple of floats). A PID reads the plant's error map,
    and its run state lives in the returned function."""
    if isinstance(controller, MlpNet):
        return mlp_policy(controller)
    if isinstance(controller, PidController):
        act, error = pid_policy(controller, period), _PLANTS[plant.name].error(plant.params)
        return lambda obs: act(error(obs))
    raise TypeError(f"not a controller: {controller!r}")


def simulate(plant: PlantModel, controller, input_signal: InputSignal, cfg: SimConfig,
             step_hook=None) -> Trace:
    """Run the closed loop and record one trace.

    The controller acts every control_period seconds on the current
    observation; its output is held between control instants. It is
    bound once, by `policy`, so a PID starts the run with cleared state.

    step_hook, when given, is called at every step i (time t) with
    (i, t, row), row being the tuple of channel values recorded for that step,
    before the controller acts; it returns the policy (observation ->
    action, as `policy` makes them) to act from that step on. The online
    monitor uses it to switch controllers at its period boundaries; a
    policy it hands back again carries on from its own run state.

    The state steps through the plant's float kernels, bound once per
    run. A step that overflows or leaves a non-finite state, in an RK4
    stage or after projection, raises `SimulationBlowup` with the trace
    up to it.
    """
    if input_signal.spec.duration + 1e-9 < cfg.horizon:
        raise ValueError(f"input duration {input_signal.spec.duration} shorter than horizon {cfg.horizon}")
    act = policy(controller, plant, cfg.control_period)
    kind = _PLANTS[plant.name]
    dt, per, n_steps = cfg.dt, cfg.steps_per_control, cfg.n_steps
    times = np.arange(n_steps + 1) * dt
    step, row_of, observe_of = kind.step(plant.params, dt), kind.row(plant.params, times), kind.observe
    inputs = sample(input_signal, times)
    state = tuple(initial_state(plant).tolist())
    values, actions = [], []  # the recorded rows, end to end in one flat list

    def trace(n):  # the first n steps
        return Trace(dt, plant.channels, np.array(values, dtype=float).reshape(n, -1), actions, inputs[:n])

    action = 0.0
    for i, exo in enumerate(inputs.tolist()):
        row = row_of(state, exo, i)
        if step_hook is not None:
            act = step_hook(i, i * dt, row)
        if i % per == 0 and i < n_steps:
            action = act(observe_of(row))
        values += row
        actions.append(action)
        if i < n_steps:
            try:
                state = step(state, action, exo)
            except (FloatingPointError, OverflowError):
                break  # raised below, outside this handler
    else:
        return trace(len(actions))
    raise SimulationBlowup(f"{plant.name}: state diverged at t={i * dt + dt:.3f}", trace(i + 1))


class ClosedLoopSystem(Record):
    """A plant bound to one controller, sim config, and input space."""

    __slots__ = ("plant", "controller", "simcfg", "input_spec")

    def run(self, input_signal: InputSignal) -> Trace:
        return simulate(self.plant, self.controller, input_signal, self.simcfg)
