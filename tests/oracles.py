"""Shared independent oracles and generators used by the unit and
acceptance suites. Everything here is written straight from the
definitions and stays off the production code paths."""

import itertools
import math

import numpy as np

from cpsguard import stl
from cpsguard.abstraction import (
    INIT_STATE,
    OUT_OF_BOUNDS,
    AbstractionConfig,
    AbstractMdp,
    PcaTransform,
    _cells_batch,
    _reduce_batch,
    _split,
    _table,
    fit_pca,
    state_id_str,
)
from cpsguard.controllers import MlpNet
from cpsguard.falsify import (
    GUIDED,
    GUIDED_RAND,
    OPT_ONLY,
    RANDOM,
    FalsificationOutcome,
    _unsafe_flag,
    hill_climb,
)
from cpsguard.plants import SimulationBlowup
from cpsguard.signals import _TRACE_FORMAT, PIECEWISE_CONSTANT, Trace, make_input, random_signal
from cpsguard.stl import (
    _KEYWORDS,
    AbsExpr,
    Always,
    And,
    BinExpr,
    Const,
    Eventually,
    Expr,
    Implies,
    NegExpr,
    Not,
    Or,
    Pred,
    StlFormula,
    StlSyntaxError,
    Until,
    Var,
)

# ---------------------------------------------------------------------------
# STL: naive recursive robustness


def _oracle_expr(expr, trace, i):
    if isinstance(expr, stl.Var):
        return float(trace.states[i, trace.channels.index(expr.name)])
    if isinstance(expr, stl.Const):
        return expr.value
    if isinstance(expr, stl.NegExpr):
        return -_oracle_expr(expr.operand, trace, i)
    if isinstance(expr, stl.AbsExpr):
        return abs(_oracle_expr(expr.operand, trace, i))
    left = _oracle_expr(expr.left, trace, i)
    right = _oracle_expr(expr.right, trace, i)
    return {"+": left + right, "-": left - right, "*": left * right}[expr.op]


def _oracle_points(trace, i, lo, hi):
    points = []
    j = 0
    while i + j < len(trace):
        t = j * trace.dt
        if t > hi + 1e-9:
            break
        if t >= lo - 1e-9:
            points.append(i + j)
        j += 1
    return points


def rob_oracle(formula, trace, i=0):
    if isinstance(formula, stl.Pred):
        left = _oracle_expr(formula.left, trace, i)
        right = _oracle_expr(formula.right, trace, i)
        return left - right if formula.op in (">=", ">") else right - left
    if isinstance(formula, stl.Not):
        return -rob_oracle(formula.operand, trace, i)
    if isinstance(formula, stl.And):
        return min(rob_oracle(formula.left, trace, i), rob_oracle(formula.right, trace, i))
    if isinstance(formula, stl.Or):
        return max(rob_oracle(formula.left, trace, i), rob_oracle(formula.right, trace, i))
    if isinstance(formula, stl.Implies):
        return max(-rob_oracle(formula.left, trace, i), rob_oracle(formula.right, trace, i))
    if isinstance(formula, stl.Always):
        return min(rob_oracle(formula.operand, trace, j)
                   for j in _oracle_points(trace, i, formula.lo, formula.hi))
    if isinstance(formula, stl.Eventually):
        return max(rob_oracle(formula.operand, trace, j)
                   for j in _oracle_points(trace, i, formula.lo, formula.hi))
    if isinstance(formula, stl.Until):
        best = -math.inf
        for j in _oracle_points(trace, i, formula.lo, formula.hi):
            right = rob_oracle(formula.right, trace, j)
            prefix = math.inf
            for m in range(i, j):
                prefix = min(prefix, rob_oracle(formula.left, trace, m))
            best = max(best, min(right, prefix))
        return best
    raise TypeError(formula)


def random_formula(rng, channels, dt, depth):
    kind = rng.choice(["pred", "not", "and", "or", "implies", "G", "F", "U"] if depth > 0 else ["pred"])
    if kind == "pred":
        terms = []
        for ch in channels:
            if rng.random() < 0.7:
                coeff = round(float(rng.uniform(-2, 2)), 2)
                terms.append(stl.BinExpr("*", stl.Const(coeff), stl.Var(ch)))
        expr = stl.Const(round(float(rng.uniform(-1, 1)), 2))
        for term in terms:
            expr = stl.BinExpr("+", expr, term)
        op = rng.choice(["<=", "<", ">=", ">"])
        return stl.Pred(expr, str(op), stl.Const(round(float(rng.uniform(-2, 2)), 2)))
    if kind == "not":
        return stl.Not(random_formula(rng, channels, dt, depth - 1))
    if kind in ("and", "or", "implies"):
        left = random_formula(rng, channels, dt, depth - 1)
        right = random_formula(rng, channels, dt, depth - 1)
        return {"and": stl.And, "or": stl.Or, "implies": stl.Implies}[kind](left, right)
    lo = int(rng.integers(0, 3)) * dt
    hi = lo + int(rng.integers(0, 5)) * dt
    if kind == "G":
        return stl.Always(lo, hi, random_formula(rng, channels, dt, depth - 1))
    if kind == "F":
        return stl.Eventually(lo, hi, random_formula(rng, channels, dt, depth - 1))
    return stl.Until(lo, hi, random_formula(rng, channels, dt, depth - 1),
                     random_formula(rng, channels, dt, depth - 1))


def random_stl_case(rng, max_steps=40):
    channels = ("a", "b")
    dt = float(rng.choice([0.5, 1.0]))
    formula = random_formula(rng, channels, dt, depth=int(rng.integers(1, 4)))
    need = int(math.ceil(stl.horizon(formula) / dt)) + 1
    steps = int(rng.integers(need, min(need + max_steps, 101)))
    data = rng.uniform(-3, 3, size=(steps, len(channels)))
    trace = Trace(dt=dt, channels=channels, states=data,
                  actions=np.zeros(steps), inputs=np.zeros((steps, 1)))
    return trace, formula


def subterms(node):
    """The node and every node below it."""
    yield node
    for name in type(node).__slots__:
        value = getattr(node, name)
        if isinstance(value, stl.Record):
            yield from subterms(value)


# ---------------------------------------------------------------------------
# STL: the grammar parsed by recursive descent, one method per level; where
# `(` may open a formula or a predicate's expression it tries the formula,
# falls back on the predicate and keeps the error that got further.
# `parse_stl` must build the same trees and refuse the same texts.


class _DescentParser(stl._Parser):
    """Inherits the tokens, errors, parse_interval and parse_number of stl._Parser."""

    # formula levels ---------------------------------------------------

    def parse_formula(self) -> StlFormula:
        left = self.parse_or()
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.parse_formula())
        return left

    def parse_or(self) -> StlFormula:
        node = self.parse_and()
        while self.peek()[1] == "or":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> StlFormula:
        node = self.parse_until()
        while self.peek()[1] == "and":
            self.next()
            node = And(node, self.parse_until())
        return node

    def parse_until(self) -> StlFormula:
        node = self.parse_unary()
        if self.peek()[1] == "U":
            self.next()
            lo, hi = self.parse_interval()
            node = Until(lo, hi, node, self.parse_unary())
        return node

    def parse_unary(self) -> StlFormula:
        kind, val, at = self.peek()
        if val == "not":
            self.next()
            return Not(self.parse_unary())
        if val in ("G", "F") and self.tokens[self.pos + 1][1] == "[":
            self.next()
            lo, hi = self.parse_interval()
            node = self.parse_unary()
            return Always(lo, hi, node) if val == "G" else Eventually(lo, hi, node)
        if val == "(":
            # Could open a parenthesized formula or the left expression of a
            # predicate; try the formula reading and fall back on the latter,
            # keeping whichever error got further into the input.
            saved = self.pos
            try:
                self.next()
                node = self.parse_formula()
                self.expect(")")
            except StlSyntaxError as formula_err:
                self.pos = saved
                try:
                    return self.parse_predicate()
                except StlSyntaxError as pred_err:
                    raise formula_err if formula_err.position >= pred_err.position else pred_err from None
            if self.peek()[1] in ("<=", "<", ">=", ">", "+", "-", "*"):
                self.pos = saved
                return self.parse_predicate()
            return node
        return self.parse_predicate()

    # predicates and expressions ----------------------------------------

    def parse_predicate(self) -> Pred:
        left = self.parse_expr()
        val = self.peek()[1]
        if val not in ("<=", "<", ">=", ">"):
            self.expected("a comparison operator")
        self.next()
        right = self.parse_expr()
        return Pred(left, val, right)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinExpr(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek()[1] == "*":
            self.next()
            node = BinExpr("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        kind, val, _ = self.peek()
        if val == "-":
            self.next()
            return NegExpr(self.parse_factor())
        if kind == "num":
            return Const(self.parse_number())
        if val == "abs":
            self.next()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            return AbsExpr(inner)
        if kind == "name" and val not in _KEYWORDS:
            self.next()
            return Var(val)
        if val == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        self.expected("a value")


def parse_stl_oracle(text):
    parser = _DescentParser(text)
    return parser.finish(parser.parse_formula())


# ---------------------------------------------------------------------------
# trace files: the reader that iterated the prelude's lines on the open file
# and handed every body to numpy's `read_array`


def load_trace_oracle(path) -> tuple[Trace, dict[str, np.ndarray]]:
    """(trace, extra columns) read from a trace file; each refusal the module docstring lists names the file."""
    dt = names = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.decode(errors="replace").strip()
            if lineno == 1 and line != _TRACE_FORMAT:
                raise ValueError(f"{path}:1: not a {_TRACE_FORMAT[2:]} file: its first line is {line[:40]!r}")
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("dt="):
                    try:
                        dt = float(comment[3:])
                    except ValueError:
                        dt = math.nan
                    if not 0.0 < dt < math.inf:
                        raise ValueError(f"{path}:{lineno}: dt must be a finite positive number, got {comment[3:]!r}")
            elif line:
                names = line.split()
                if names[0] != "time" or "action" not in names:
                    raise ValueError(f"{path}:{lineno}: the column row needs 'time' first and an 'action' column")
                break
        if dt is None or names is None:
            raise ValueError(f"{path}: not a trace file (missing dt header or column row)")
        try:
            data = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, MemoryError) as exc:  # MemoryError: a header declaring a huge shape
            raise ValueError(f"{path}: body: {exc}") from None
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the body's array")
    if data.dtype != "<f8" or data.ndim != 2 or not len(data):
        raise ValueError(f"{path}: the body is a {data.dtype.str} array of shape {data.shape}, "
                         "expected a 2-D <f8 array with at least one row")
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: the body has {data.shape[1]} columns, the column row names {len(names)}")
    times = np.arange(len(data)) * dt  # as `trace_bytes` writes them
    bad = np.flatnonzero(data[:, 0].view("<i8") != times.view("<i8"))
    if len(bad):
        raise ValueError(f"{path}: row {bad[0]} of the time column is {data[bad[0], 0]}, not row * dt = {times[bad[0]]}")
    act_col = names.index("action")
    exo_cols = [j for j, n in enumerate(names) if n.startswith("input_")]
    trace = Trace(dt=dt, channels=tuple(names[1:act_col]), states=data[:, 1:act_col],
                  actions=data[:, act_col], inputs=data[:, exo_cols])
    return trace, {names[j]: data[:, j] for j in range(act_col + 1, len(names)) if j not in exo_cols}


# ---------------------------------------------------------------------------
# closed loop: the array simulator, one numpy vector per RK4 stage


def _sample_oracle(signal, t):
    spec = signal.spec
    t = min(max(t, 0.0), spec.duration)
    n = spec.num_control_points
    vals = signal.control_values
    if n == 1:
        return vals[:, 0].copy()
    if spec.interpolation == PIECEWISE_CONSTANT:
        return vals[:, min(int(t * n / spec.duration), n - 1)].copy()
    pos = t * (n - 1) / spec.duration
    i = min(int(pos), n - 2)
    frac = pos - i
    return vals[:, i] + frac * (vals[:, i + 1] - vals[:, i])


def _clamp(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


def _conc_ref_oracle(p, t):
    if t <= p["ramp_start"]:
        return p["ref_start"]
    if t >= p["ramp_end"]:
        return p["ref_end"]
    frac = (t - p["ramp_start"]) / (p["ramp_end"] - p["ramp_start"])
    return p["ref_start"] + frac * (p["ref_end"] - p["ref_start"])


def _derivative_oracle(plant, state, control, exo):
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
        rate = p["k0"] * math.exp(-p["e_act"] / temp) * conc
        dc = (float(exo[0]) - conc) / p["theta"] - rate
        dT = (p["t_feed"] - temp) / p["theta"] + p["k1"] * rate + p["k2"] * (u - temp)
        return np.array([dc, dT])
    u = _clamp(float(control), p["inflow_min"], p["inflow_max"])
    return np.array([(u - p["outflow_coeff"] * math.sqrt(max(state[0], 0.0))) / p["area"]])


def _rk4_oracle(plant, state, control, exo, dt):
    k1 = _derivative_oracle(plant, state, control, exo)
    k2 = _derivative_oracle(plant, state + 0.5 * dt * k1, control, exo)
    k3 = _derivative_oracle(plant, state + 0.5 * dt * k2, control, exo)
    k4 = _derivative_oracle(plant, state + dt * k3, control, exo)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _project_oracle(plant, state):
    out = state.copy()
    if plant.name == "acc":
        out[1] = max(out[1], 0.0)
        out[3] = max(out[3], 0.0)
    elif plant.name == "cstr":
        out[0] = max(out[0], 0.0)
    else:
        out = np.maximum(state, 0.0)
    return out


def _row_oracle(plant, state, exo, t):
    p = plant.params
    if plant.name == "acc":
        x_l, v_l, x_e, v_e = state
        return np.array([x_l, v_l, x_e, v_e, x_l - x_e, p["d_default"] + p["t_gap"] * v_e, p["v_target"]])
    if plant.name == "cstr":
        ref = _conc_ref_oracle(p, t)
        return np.array([state[0], state[1], ref, state[0] - ref])
    return np.array([state[0], float(exo[0])])


def _observe_oracle(plant, state, exo, t):
    p = plant.params
    if plant.name == "acc":
        x_l, v_l, x_e, v_e = state
        return np.array([x_l - x_e, v_e, v_l, p["v_target"] - v_e])
    if plant.name == "cstr":
        return np.array([state[0], state[1], _conc_ref_oracle(p, t)])
    return np.array([state[0], float(exo[0])])


def _pid_error_oracle(plant, obs):
    p = plant.params
    if plant.name == "acc":
        d_rel, v_e, v_l, _dv = obs
        d_aim = p["d_default"] + p["pid_headway_factor"] * p["t_gap"] * v_e
        return min(p["v_target"] - v_e, (d_rel - d_aim) / p["t_gap"] + (v_l - v_e))
    if plant.name == "cstr":
        return float(obs[0] - obs[2])
    return float(obs[1] - obs[0])


def mlp_forward_oracle(net, obs):
    """The net's forward pass as a chain of `w @ h` products, one layer at
    a time, output clamped to the control range."""
    h = np.asarray(obs, dtype=float)
    if h.shape != (net.weights[0].shape[1],):
        raise ValueError(f"observation has shape {h.shape}, net expects ({net.weights[0].shape[1]},)")
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.tanh(w @ h + b)
    out = float((net.weights[-1] @ h + net.biases[-1])[0])
    return min(max(out, net.out_lo), net.out_hi)


class PidOracle:
    """One run of a PID, acting every dt seconds, written from the recursion: the integral
    I += e*dt clamped to [-integral_limit, integral_limit], the derivative (e - e_prev)/dt
    (0 at the first call), and u = kp*e + ki*I + kd*derivative clamped to [out_lo, out_hi]."""

    def __init__(self, pid, dt):
        self.pid, self.dt, self.integral, self.prev_error = pid, dt, 0.0, None

    def __call__(self, error):
        pid, dt = self.pid, self.dt
        self.integral = min(max(self.integral + error * dt, -pid.integral_limit), pid.integral_limit)
        deriv = 0.0 if self.prev_error is None else (error - self.prev_error) / dt
        self.prev_error = error
        return min(max(pid.kp * error + pid.ki * self.integral + pid.kd * deriv, pid.out_lo), pid.out_hi)


def policy_oracle(controller, plant, period):
    """A fresh run of the controller on the oracle's array observations: obs -> action."""
    if isinstance(controller, MlpNet):
        return lambda obs: mlp_forward_oracle(controller, obs)
    pid = PidOracle(controller, period)
    return lambda obs: pid(_pid_error_oracle(plant, obs))


def simulate_oracle(plant, controller, input_signal, cfg, step_hook=None):
    """The closed loop on numpy vectors: every RK4 stage, projection,
    channel row and observation is an array, as the simulator was
    written before its float kernels. Same contract as
    `plants.simulate`, including the step hook, which returns a
    `policy_oracle`, except that a blow-up inside an RK4 stage raises
    the bare FloatingPointError or OverflowError instead of
    SimulationBlowup."""
    initial = {"acc": ("x_lead0", "v_lead0", "x_ego0", "v_ego0"), "cstr": ("conc0", "temp0"),
               "watertank": ("level0",)}[plant.name]
    state = np.array([plant.params[k] for k in initial])
    act = policy_oracle(controller, plant, cfg.control_period)
    per, n_steps = cfg.steps_per_control, cfg.n_steps
    rows, acts, exos = [], [], []
    action = 0.0
    for i in range(n_steps + 1):
        t = i * cfg.dt
        exo = _sample_oracle(input_signal, t)
        row = _row_oracle(plant, state, exo, t)
        if step_hook is not None:
            act = step_hook(i, t, row)
        if i % per == 0 and i < n_steps:
            action = act(_observe_oracle(plant, state, exo, t))
        rows.append(row)
        acts.append(action)
        exos.append(exo)
        if i < n_steps:
            state = _project_oracle(plant, _rk4_oracle(plant, state, action, exo, cfg.dt))
            if not np.all(np.isfinite(state)):
                partial = Trace(cfg.dt, plant.channels, np.array(rows), np.array(acts), np.array(exos))
                raise SimulationBlowup(f"{plant.name}: state diverged at t={t + cfg.dt:.3f}", partial)
    return Trace(cfg.dt, plant.channels, np.array(rows), np.array(acts), np.array(exos))


# ---------------------------------------------------------------------------
# MDPs: hand construction, random generation, reachability oracles


def model_from_dicts(pca, config, states, initial, transitions=None, classifiers=None):
    """A model built by hand: `states` maps a state id to its (label, support), `transitions` a
    (state, action) pair to {successor: probability}. The rows go through `_table` with a rank
    dict, as a model file's do, so a broken row is refused with the same message."""
    order = sorted(states)
    rows = [(s, a, d, p) for (s, a), dests in (transitions or {}).items() for d, p in dests.items()]
    table = _table(order, dict(zip(order, range(len(order)))), list(zip(*rows)))
    return AbstractMdp(pca, config, initial, classifiers or {}, table,
                       [states[sid][0] for sid in order], [states[sid][1] for sid in order])


def states_of(model):
    """state id -> (label, support), read back from the columns."""
    return dict(zip(model.table.order, zip(model.label.tolist(), model.support.tolist())))


def labels_of(model):
    """state id -> label, read back from the columns."""
    return dict(zip(model.table.order, model.label.tolist()))


def transitions_of(model):
    """(state, action) -> {successor: probability}, read back from the table."""
    t, view = model.table, {}
    for s, a, d, p in zip(t.src.tolist(), t.act.tolist(), t.dst.tolist(), t.prob.tolist()):
        view.setdefault((t.order[s], a), {})[t.order[d]] = p
    return view


def make_mdp(n_states, transitions, labels=None, initial=0):
    labels = labels or {}
    states = {(i, 0): (labels.get(i, +1), 1) for i in range(n_states)}
    trans = {((i, 0), act): {(j, 0): p for j, p in dests.items()}
             for (i, act), dests in transitions.items()}
    return model_from_dicts(PcaTransform(mean=np.zeros(1), components=np.eye(1)),
                            AbstractionConfig(k=1, c=2, bounds=((0.0, 1.0),)), states, (initial, 0), trans)


def random_mdp(rng, max_states=6, max_actions=3, self_loop=0.0):
    """A random MDP; with `self_loop` > 0, that share of the choices are
    pure self-loops, which make end components."""
    n = int(rng.integers(2, max_states + 1))
    n_act = int(rng.integers(1, max_actions + 1))
    transitions = {}
    for i in range(n):
        for a in range(n_act):
            if rng.random() < 0.2 and i > 0:
                continue
            if self_loop and rng.random() < self_loop:
                transitions[(i, a)] = {i: 1.0}
                continue
            dests = rng.choice(n, size=min(int(rng.integers(1, 4)), n), replace=False)
            raw = rng.integers(1, 5, size=len(dests)).astype(float)
            probs = raw / raw.sum()
            transitions[(i, a)] = {int(j): float(p) for j, p in zip(dests, probs)}
    labels = {i: (-1 if rng.random() < 0.3 else 1) for i in range(n)}
    return make_mdp(n, transitions, labels)


def indexed_oracle(model):
    """The checker's flat arrays built from the transition dicts, as the
    checker built them before models carried a transition table: groups
    sorted by (state, action), destinations sorted within a group."""
    index = {sid: i for i, sid in enumerate(sorted(model.table.order))}
    trans = transitions_of(model)
    groups = sorted(trans)
    rows = [(g, index[d], p) for g, key in enumerate(groups) for d, p in sorted(trans[key].items())]
    group_src = np.array([index[s] for s, _ in groups], dtype=int)
    has_choice = np.zeros(len(index), dtype=bool)
    has_choice[group_src] = True
    starts = [g for g in range(len(groups)) if g == 0 or group_src[g] != group_src[g - 1]]
    return {
        "tr_group": np.array([r[0] for r in rows], dtype=int),
        "tr_dst": np.array([r[1] for r in rows], dtype=int),
        "tr_prob": np.array([r[2] for r in rows], dtype=float),
        "group_src": group_src,
        "has_choice": has_choice,
        "run_start": np.array(starts, dtype=int),
    }


def writer_oracle(model):
    """The model file's transition rows and the `.tra` text, written from
    the transition dicts as the writers did before models carried a table."""
    trans = transitions_of(model)
    rows = [[state_id_str(src), act, state_id_str(dst), float(p)]
            for (src, act) in sorted(trans)
            for dst, p in sorted(trans[(src, act)].items())]
    order = sorted(model.table.order)
    index = {sid: i for i, sid in enumerate(order)}
    acts_of = {}
    for sid, act in trans:
        acts_of.setdefault(sid, []).append(act)
    tra, n_choices = [], 0
    for sid in order:
        acts = sorted(acts_of.get(sid, ()))
        n_choices += len(acts)
        for choice, act in enumerate(acts):
            for dst, p in sorted(trans[(sid, act)].items()):
                tra.append(f"{index[sid]} {choice} {index[dst]} {p:.12g} a{act}")
    return rows, f"{len(order)} {n_choices} {len(tra)}\n" + "\n".join(tra) + ("\n" if tra else "")


def model_doc_oracle(model, config_hash=None):
    """The model file's document, built from the state and transition dicts as the writer built it
    before models were columns: `json.dumps(doc, sort_keys=True, indent=1)` wrote it."""
    doc = {
        "format": "cpsguard-mdp-v1",
        "abstraction": {
            "k": model.config.k,
            "c": model.config.c,
            "label_threshold": model.config.label_threshold,
            "variance_threshold": model.config.variance_threshold,
            "bounds": [list(b) for b in model.config.bounds],
        },
        "pca": {
            "mean": [float(v) for v in model.pca.mean],
            "components": [[float(v) for v in row] for row in model.pca.components],
        },
        "initial": state_id_str(model.initial),
        "states": [{"id": state_id_str(sid), "label": label, "support": support}
                   for sid, (label, support) in sorted(states_of(model).items())],
        "classifiers": [{"cell": cell, "w": [float(v) for v in w], "b": float(b)}
                        for cell, (w, b) in sorted(model.classifiers.items())],
        "transitions": writer_oracle(model)[0],
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return doc


def oracle_bounded_reach(model, target, k, semantics):
    """Memoized top-down recursion over (state, steps-left)."""
    trans = transitions_of(model)
    actions = {}
    for (s, a) in trans:
        actions.setdefault(s, []).append(a)
    memo = {}

    def rec(s, j):
        if s in target:
            return 1.0
        if j == 0 or s not in actions:
            return 0.0
        key = (s, j)
        if key not in memo:
            vals = [sum(p * rec(dst, j - 1) for dst, p in trans[(s, a)].items())
                    for a in sorted(actions[s])]
            memo[key] = max(vals) if semantics == "MAX" else min(vals)
        return memo[key]

    return {s: rec(s, k) for s in model.table.order}


def oracle_scheduler_enumeration(model, target, k, semantics, start):
    """Every time-dependent memoryless scheduler, paths expanded fully."""
    trans = transitions_of(model)
    actions = {}
    for (s, a) in trans:
        actions.setdefault(s, []).append(a)
    states = sorted(model.table.order)
    slots = [(s, j) for j in range(k) for s in states if s in actions]

    def path_prob(sched, s, j):
        if s in target:
            return 1.0
        if j == k or s not in actions:
            return 0.0
        act = sched[(s, j)]
        return sum(p * path_prob(sched, dst, j + 1) for dst, p in trans[(s, act)].items())

    best = None
    for choice in itertools.product(*(sorted(actions[s]) for s, _ in slots)):
        sched = dict(zip(slots, choice))
        value = path_prob(sched, start, 0)
        if best is None or (value > best if semantics == "MAX" else value < best):
            best = value
    return best


def oracle_unbounded_until(model, hold, target, semantics):
    """Extremal probability of (hold U target) per state, over every
    memoryless deterministic scheduler: each induced chain is solved as a
    linear system after zeroing the states that cannot reach the target
    through hold states. Target states count 1; states outside hold or
    without a choice count 0 otherwise."""
    states = sorted(model.table.order)
    trans = transitions_of(model)
    actions = {}
    for (s, a) in trans:
        actions.setdefault(s, []).append(a)
    choosers = [s for s in states if s in actions and s in hold and s not in target]
    pick = max if semantics == "MAX" else min
    best = None
    for choice in itertools.product(*(sorted(actions[s]) for s in choosers)):
        succ = {s: trans[(s, a)] for s, a in zip(choosers, choice)}
        good = set(target)
        grown = True
        while grown:
            grown = False
            for s, dests in succ.items():
                if s not in good and any(p > 0.0 and d in good for d, p in dests.items()):
                    good.add(s)
                    grown = True
        solve = [s for s in choosers if s in good]
        row = {s: i for i, s in enumerate(solve)}
        A = np.eye(len(solve))
        b = np.zeros(len(solve))
        for s in solve:
            for d, p in succ[s].items():
                if d in row:
                    A[row[s], row[d]] -= p
                elif d in target:
                    b[row[s]] += p
        values = {s: 1.0 if s in target else 0.0 for s in states}
        if solve:
            values.update(zip(solve, np.linalg.solve(A, b).tolist()))
        best = values if best is None else {s: pick(best[s], values[s]) for s in states}
    return best


def slow_chain(n, self_loops=False):
    """A slow chain of the kind Haddad & Monmege (TCS 2018) use to show
    value iteration's stop rule stopping far from the fixpoint: the
    symmetric random walk on 0..n. State n is the target, 0 has no
    choice, and from 0 < i < n the walk moves one step either way with
    probability 1/2, so Pmax = i/n. With `self_loops` every inner state
    also has a choice that stays put (an end component), so Pmin = 0."""
    transitions = {(i, 0): {i - 1: 0.5, i + 1: 0.5} for i in range(1, n)}
    if self_loops:
        transitions.update({(i, 1): {i: 1.0} for i in range(1, n)})
    transitions[(n, 0)] = {n: 1.0}
    return make_mdp(n + 1, transitions, labels={n: -1}, initial=n // 2)


def slow_chain_sup_norm_stop(n, tol=1e-9):
    """Value iteration on `slow_chain(n)` from 0, stopped when a sweep
    moves no state by `tol` or more: the stop rule the exact engine
    replaced, kept to show how far short of i/n it stops."""
    x = np.zeros(n + 1)
    x[n] = 1.0
    while True:
        new = x.copy()
        new[1:n] = 0.5 * (x[:-2] + x[2:])
        if np.max(np.abs(new - x)) < tol:
            return new
        x = new


# ---------------------------------------------------------------------------
# synthetic separable cell for refinement checks


def separable_cell_pairs(n_cluster=100, margin=0.2, rng=None):
    """Exactly one mixed cell under a c=2 grid: two 1-D clusters of
    opposite robustness sign separated by the given margin, plus a
    distant padding point that keeps them in the same cell."""
    rng = rng or np.random.default_rng(7)
    pos = rng.uniform(0.0, 0.5 - margin / 2, n_cluster)
    neg = rng.uniform(0.5 + margin / 2, 1.0, n_cluster)
    rows = np.concatenate([[-40.0], pos, neg, [-40.0]]).reshape(-1, 1)
    robs = np.concatenate([[1.0], np.full(n_cluster, 0.5), np.full(n_cluster, -0.5), [1.0]])
    trace = Trace(dt=1.0, channels=("x",), states=rows,
                  actions=np.zeros(len(rows)), inputs=np.zeros((len(rows), 1)))
    return [(trace, robs)]


# ---------------------------------------------------------------------------
# abstraction: per-row state mapping, dict counting and the SVM by enumeration


def _route_oracle(classifiers, cell, reduced):
    clf = classifiers.get(cell)
    if clf is None:
        return (cell, 0)
    w, b = clf
    return (cell, 1 if float(w @ reduced + b) >= 0.0 else -1)


def state_ids_oracle(config, classifiers, R):
    """(cell, side) per row of reduced states, one row at a time."""
    cells = _cells_batch(config, R)
    return [(OUT_OF_BOUNDS, 0) if int(cell) == OUT_OF_BOUNDS else _route_oracle(classifiers, int(cell), row)
            for row, cell in zip(R, cells)]


def assemble_oracle(pairs, pca, config, classifiers):
    """Count the MDP out of the traces row by row with dicts."""
    min_rob, support, counts, start_ids = {}, {}, {}, []
    for trace, robs in pairs:
        robs = np.asarray(robs, dtype=float)
        if len(robs) != len(trace):
            raise ValueError(f"robustness has length {len(robs)}, trace has {len(trace)}")
        sids = state_ids_oracle(config, classifiers, _reduce_batch(pca, trace.states))
        start_ids.append(sids[0])
        for sid, rob in zip(sids, robs):
            support[sid] = support.get(sid, 0) + 1
            if sid not in min_rob or rob < min_rob[sid]:
                min_rob[sid] = float(rob)
        for i in range(len(trace) - 1):
            act = float(trace.actions[i])
            if not math.isfinite(act):
                raise ValueError(f"non-finite action {act}")
            act = int(act)
            dests = counts.setdefault((sids[i], act), {})
            dests[sids[i + 1]] = dests.get(sids[i + 1], 0) + 1
    states = {sid: (-1 if min_rob[sid] < config.label_threshold else +1, support[sid]) for sid in support}
    transitions = {key: {dst: cnt / sum(dests.values()) for dst, cnt in dests.items()}
                   for key, dests in counts.items()}
    distinct_starts = sorted(set(start_ids))
    initial = distinct_starts[0]
    if len(distinct_starts) > 1:
        initial = INIT_STATE
        states[INIT_STATE] = (+1, 0)
        transitions[(INIT_STATE, 0)] = {sid: 1.0 / len(distinct_starts) for sid in distinct_starts}
    return model_from_dicts(pca, config, states, initial, transitions, dict(classifiers))


def grid_bounds_oracle(R):
    """Each reduced dim's data min/max, widened by 1% of its width, or by 1 where it is degenerate."""
    bounds = []
    for j in range(R.shape[1]):
        lo, hi = float(R[:, j].min()), float(R[:, j].max())
        width = hi - lo
        if width <= 0.0:
            lo, hi = lo - 1.0, hi + 1.0
        else:
            lo, hi = lo - 0.01 * width, hi + 0.01 * width
        bounds.append((lo, hi))
    return tuple(bounds)


def new_runs_oracle(*keys):
    """Per row: whether it is row 0 or any key column differs from the row before."""
    return [i == 0 or any(key[i] != key[i - 1] for key in keys) for i in range(len(keys[0]))]


def build_oracle(pairs, config):
    pairs = list(pairs)
    all_states = np.vstack([trace.states for trace, _ in pairs])
    pca = fit_pca(all_states, config.k)
    config = config.replace(bounds=grid_bounds_oracle(_reduce_batch(pca, all_states)))
    return assemble_oracle(pairs, pca, config, {})


def svm_objective(X, y, w, b, lam, neg_cost):
    """lam/2 |w|^2 + (1/n) sum_i c_i max(0, 1 - y_i (w.x_i + b))^2, c_i 1 for a positive member
    and `neg_cost` for a negative one, summed member by member."""
    loss = 0.0
    for x, label in zip(X, y):
        slack = max(0.0, 1.0 - label * (float(np.dot(w, x)) + b))
        loss += (1.0 if label > 0 else neg_cost) * slack * slack
    return lam / 2.0 * float(np.dot(w, w)) + loss / len(y)


def svm_active_set_solution(X, y, active, lam, neg_cost):
    """The (w, b) where the objective's gradient vanishes if exactly the `active` members
    have margin below 1: the normal equations of their squared errors, w regularized."""
    n, k = X.shape
    H, r = np.zeros((k + 1, k + 1)), np.zeros(k + 1)
    H[:k, :k] = lam * np.eye(k)
    for i in np.flatnonzero(active):
        x = np.append(X[i], 1.0)
        c = 2.0 / n * (1.0 if y[i] > 0 else neg_cost)
        H += c * np.outer(x, x)
        r += c * y[i] * x
    z = np.linalg.solve(H, r)
    return z[:k], float(z[k])


def svm_brute_force(X, y, lam, neg_cost):
    """The SVM optimum by enumeration: among every nonempty active set whose solution puts
    exactly those members below margin 1 (within 1e-9), the one of least objective."""
    best = None
    for size in range(1, len(y) + 1):
        for members in itertools.combinations(range(len(y)), size):
            active = np.zeros(len(y), dtype=bool)
            active[list(members)] = True
            w, b = svm_active_set_solution(X, y, active, lam, neg_cost)
            margin = y * (X @ w + b)
            if np.all(margin[active] < 1.0 + 1e-9) and np.all(margin[~active] >= 1.0 - 1e-9):
                f = svm_objective(X, y, w, b, lam, neg_cost)
                if best is None or f < best[0]:
                    best = (f, w, b)
    return best[1], best[2]


def refine_oracle(model, pairs):
    """One refinement pass, members gathered row by row per state, each mixed one split by
    the library's `_split`."""
    members_x, members_r = {}, {}
    for trace, robs in pairs:
        R = _reduce_batch(model.pca, trace.states)
        for sid, row, rob in zip(state_ids_oracle(model.config, model.classifiers, R), R,
                                 np.asarray(robs, dtype=float)):
            members_x.setdefault(sid, []).append(row)
            members_r.setdefault(sid, []).append(float(rob))
    classifiers = dict(model.classifiers)
    for sid in sorted(members_r):
        cell, side = sid
        if side != 0 or cell == OUT_OF_BOUNDS:
            continue
        robs = np.array(members_r[sid])
        variance = float(np.mean((robs - robs.mean()) ** 2))
        positive = robs >= model.config.label_threshold
        if variance > model.config.variance_threshold and np.any(positive) and not np.all(positive):
            classifiers[cell] = _split(np.array(members_x[sid]), np.where(positive, 1.0, -1.0))
    return assemble_oracle(pairs, model.pca, model.config, classifiers)


# ---------------------------------------------------------------------------
# falsification: one loop per algorithm, as before they shared `run_baseline`'s


def falsify_oracle(kind, system, model, cfg, event_log=None):
    """The four algorithms written out separately: the guided kinds with
    their own inner loop, RANDOM as independent samples, OPT_ONLY as
    hill-climbing restarts. Wall times are not comparable."""
    if kind in (GUIDED, GUIDED_RAND):
        return _guided_oracle(system, model, cfg, kind == GUIDED, event_log)
    rng = np.random.default_rng(cfg.seed)
    history = []
    if kind == RANDOM:
        for _ in range(cfg.global_budget * cfg.local_budget):
            candidate = random_signal(system.input_spec, rng)
            rob = stl.robustness(system.run(candidate), cfg.stl_spec, 0.0)
            history.append(rob)
            if rob < 0.0:
                return FalsificationOutcome(True, candidate, history, len(history), 0.0)
        return FalsificationOutcome(False, None, history, len(history), 0.0)
    assert kind == OPT_ONLY, kind

    def objective(signal):
        rob = stl.robustness(system.run(signal), cfg.stl_spec, 0.0)
        history.append(rob)
        return rob

    for _ in range(cfg.global_budget):
        best, best_val, _ = hill_climb(objective, random_signal(system.input_spec, rng), cfg.local_budget, rng,
                                       step_init=cfg.step_init, step_decay=cfg.step_decay,
                                       step_growth=cfg.step_growth, stop_below=0.0)
        if best_val < 0.0:
            return FalsificationOutcome(True, best, history, len(history), 0.0)
    return FalsificationOutcome(False, None, history, len(history), 0.0)


def _guided_oracle(system, model, cfg, use_model, event_log):
    rng = np.random.default_rng(cfg.seed)
    queue = []
    next_id = 0

    def enqueue(signal):
        nonlocal next_id
        queue.append((next_id, signal))
        if event_log is not None:
            event_log.append(("enqueue", next_id))
        next_id += 1

    for _ in range(cfg.queue_seed_count):
        enqueue(random_signal(system.input_spec, rng))
    history = []
    lo = np.array([r[0] for r in system.input_spec.ranges])[:, None]
    hi = np.array([r[1] for r in system.input_spec.ranges])[:, None]
    for _ in range(cfg.global_budget):
        frac = cfg.step_init
        incumbent, incumbent_rob = None, math.inf
        for i in range(cfg.local_budget):
            if i == 0:
                if queue:
                    cand_id, candidate = queue.pop(0)
                    if event_log is not None:
                        event_log.append(("dequeue", cand_id))
                else:
                    candidate = random_signal(system.input_spec, rng)
            else:
                noise = rng.standard_normal(incumbent.control_values.shape)
                candidate = make_input(incumbent.spec,
                                       np.clip(incumbent.control_values + frac * (hi - lo) * noise, lo, hi))
            trace = system.run(candidate)
            rob = stl.robustness(trace, cfg.stl_spec, 0.0)
            history.append(rob)
            if rob < incumbent_rob:
                incumbent, incumbent_rob = candidate, rob
                if i > 0:
                    frac = min(frac * cfg.step_growth, 1.0)
            elif i > 0:
                frac = max(frac * cfg.step_decay, 1e-9)
            if rob < 0.0:
                return FalsificationOutcome(True, candidate, history, len(history), 0.0)
            if use_model:
                if _unsafe_flag(model, cfg, trace):
                    enqueue(candidate)
            else:
                enqueue(random_signal(system.input_spec, rng))
    return FalsificationOutcome(False, None, history, len(history), 0.0)
