"""Shared independent oracles and generators used by the unit and
acceptance suites. Everything here is written straight from the
definitions and stays off the production code paths."""

import dataclasses
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
    StateInfo,
    _cells_batch,
    _grid_bounds,
    _reduce_batch,
    fit_pca,
)
from cpsguard.controllers import MlpNet, PidController, mlp_forward, pid_act
from cpsguard.falsify import (
    GUIDED,
    GUIDED_RAND,
    OPT_ONLY,
    RANDOM,
    FalsificationOutcome,
    _AdaptiveStep,
    _unsafe_flag,
    hill_climb,
)
from cpsguard.plants import SimulationBlowup
from cpsguard.signals import PIECEWISE_CONSTANT, Trace, random_signal

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


def fresh_oracle(controller):
    if isinstance(controller, PidController):
        controller = dataclasses.replace(controller)
        controller.reset()
    return controller


def simulate_oracle(plant, controller, input_signal, cfg, step_hook=None):
    """The closed loop on numpy vectors: every RK4 stage, projection,
    channel row and observation is an array, as the simulator was
    written before its float kernels. Same contract as
    `plants.simulate`, including the step hook, except that a blow-up
    inside an RK4 stage raises the bare FloatingPointError or
    OverflowError instead of SimulationBlowup."""
    initial = {"acc": ("x_lead0", "v_lead0", "x_ego0", "v_ego0"), "cstr": ("conc0", "temp0"),
               "watertank": ("level0",)}[plant.name]
    state = np.array([plant.params[k] for k in initial])
    controller = fresh_oracle(controller)
    per, n_steps = cfg.steps_per_control, cfg.n_steps
    rows, acts, exos = [], [], []
    action = 0.0
    for i in range(n_steps + 1):
        t = i * cfg.dt
        exo = _sample_oracle(input_signal, t)
        row = _row_oracle(plant, state, exo, t)
        if step_hook is not None:
            controller = step_hook(i, t, row)
        if i % per == 0 and i < n_steps:
            obs = _observe_oracle(plant, state, exo, t)
            if isinstance(controller, MlpNet):
                action = mlp_forward(controller, obs)
            else:
                action = pid_act(controller, _pid_error_oracle(plant, obs), cfg.control_period)
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


def make_mdp(n_states, transitions, labels=None, initial=0):
    labels = labels or {}
    states = {(i, 0): StateInfo(label=labels.get(i, +1), support=1) for i in range(n_states)}
    trans = {((i, 0), act): {(j, 0): p for j, p in dests.items()}
             for (i, act), dests in transitions.items()}
    return AbstractMdp(
        pca=PcaTransform(mean=np.zeros(1), components=np.eye(1)),
        config=AbstractionConfig(k=1, c=2, bounds=((0.0, 1.0),)),
        states=states,
        initial=(initial, 0),
        transitions=trans,
        classifiers={},
    )


def random_mdp(rng, max_states=6, max_actions=3):
    n = int(rng.integers(2, max_states + 1))
    n_act = int(rng.integers(1, max_actions + 1))
    transitions = {}
    for i in range(n):
        for a in range(n_act):
            if rng.random() < 0.2 and i > 0:
                continue
            dests = rng.choice(n, size=min(int(rng.integers(1, 4)), n), replace=False)
            raw = rng.integers(1, 5, size=len(dests)).astype(float)
            probs = raw / raw.sum()
            transitions[(i, a)] = {int(j): float(p) for j, p in zip(dests, probs)}
    labels = {i: (-1 if rng.random() < 0.3 else 1) for i in range(n)}
    return make_mdp(n, transitions, labels)


def oracle_bounded_reach(model, target, k, semantics):
    """Memoized top-down recursion over (state, steps-left)."""
    trans = model.transitions
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

    return {s: rec(s, k) for s in model.states}


def oracle_scheduler_enumeration(model, target, k, semantics, start):
    """Every time-dependent memoryless scheduler, paths expanded fully."""
    trans = model.transitions
    actions = {}
    for (s, a) in trans:
        actions.setdefault(s, []).append(a)
    states = sorted(model.states)
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
# abstraction: per-row state mapping, dict counting and the plain Pegasos loop


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
    states = {sid: StateInfo(label=-1 if min_rob[sid] < config.label_threshold else +1, support=support[sid])
              for sid in support}
    transitions = {key: {dst: cnt / sum(dests.values()) for dst, cnt in dests.items()}
                   for key, dests in counts.items()}
    distinct_starts = sorted(set(start_ids))
    initial = distinct_starts[0]
    if len(distinct_starts) > 1:
        initial = INIT_STATE
        states[INIT_STATE] = StateInfo(label=+1, support=0)
        transitions[(INIT_STATE, 0)] = {sid: 1.0 / len(distinct_starts) for sid in distinct_starts}
    return AbstractMdp(pca=pca, config=config, states=states, initial=initial,
                       transitions=transitions, classifiers=dict(classifiers))


def build_oracle(pairs, config):
    pairs = list(pairs)
    all_states = np.vstack([trace.states for trace, _ in pairs])
    pca = fit_pca(all_states, config.k)
    config = dataclasses.replace(config, bounds=_grid_bounds(_reduce_batch(pca, all_states)))
    return assemble_oracle(pairs, pca, config, {})


def train_linear_svm_oracle(X, y, lam, epochs, seed, batch=64):
    """Mini-batch Pegasos indexing each batch out of X and y."""
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch):
            idx = order[start : start + batch]
            t += 1
            eta = 1.0 / (lam * t)
            margins = y[idx] * (X[idx] @ w + b)
            viol = margins < 1.0
            w *= 1.0 - eta * lam
            if np.any(viol):
                scale = eta / len(idx)
                w += scale * (y[idx][viol] @ X[idx][viol])
                b += scale * float(np.sum(y[idx][viol]))
    if not (np.all(np.isfinite(w)) and math.isfinite(b)) or float(np.linalg.norm(w)) < 1e-12:
        mean_pos = X[y > 0].mean(axis=0)
        mean_neg = X[y < 0].mean(axis=0)
        w = mean_pos - mean_neg
        b = -float(w @ (mean_pos + mean_neg) / 2.0)
    return w, float(b)


def refine_oracle(model, pairs):
    """One refinement pass, members gathered row by row per state."""
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
        if variance > model.config.variance_threshold and np.any(robs >= 0.0) and np.any(robs < 0.0):
            y = np.where(robs >= 0.0, 1.0, -1.0)
            classifiers[cell] = train_linear_svm_oracle(np.array(members_x[sid]), y, lam=0.01, epochs=200,
                                                        seed=cell & 0x7FFFFFFF)
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
    for _ in range(cfg.global_budget):
        step = _AdaptiveStep(system.input_spec, cfg.step_init, cfg.step_decay, cfg.step_growth)
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
                candidate = step.propose(incumbent, rng)
            trace = system.run(candidate)
            rob = stl.robustness(trace, cfg.stl_spec, 0.0)
            history.append(rob)
            if rob < incumbent_rob:
                incumbent, incumbent_rob = candidate, rob
                if i > 0:
                    step.accepted()
            elif i > 0:
                step.rejected()
            if rob < 0.0:
                return FalsificationOutcome(True, candidate, history, len(history), 0.0)
            if use_model:
                if _unsafe_flag(model, cfg, trace):
                    enqueue(candidate)
            else:
                enqueue(random_signal(system.input_spec, rng))
    return FalsificationOutcome(False, None, history, len(history), 0.0)
