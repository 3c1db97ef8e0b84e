"""Trace abstraction into a finite labeled MDP, plus refinement.

Construction pipeline: fit a PCA on all concrete states (the recorded
channel vectors of the traces), partition the reduced space into c
intervals per dimension (grid bounds are data min/max widened by 1%),
map every state to its cell, label each cell -1 when the minimum
per-state robustness of its members falls below the label threshold and
+1 otherwise, and estimate transition probabilities as observed count
ratios: delta(s, act, s') = count(s, act, s') / count(s, act, *).
Actions are the integer part (truncation toward zero) of the recorded
controller output.

Reduced values outside the grid bounds map to the distinguished
OUT_OF_BOUNDS cell (id -1). Construction data never lands there: the
grid of `build` covers its traces, and `refine` rejects a trace row
outside the grid of the model it refines. At runtime the cell behaves
like any never-observed cell: `abstract_state_of` returns None
(UNKNOWN), and `preciseness` counts such rows as UNKNOWN.

`build_abstraction`, `refine` and `preciseness` stack the rows of their
traces once per call and map them in one batch (`_reduce_batch`, then
`_state_codes`); a transition is a row and the next row of the same
trace, and `refine` re-codes only the rows of the cells it splits.
The one-row query `abstract_state_of` stays scalar: the monitor asks it
about one state at a time, and one row through the batch path costs five
to six times as much.

Refinement splits each unsplit state whose members' robustness has a
population variance above the variance threshold and falls on both sides
of the label threshold into a + and a - sub-state, by a hyperplane in
reduced space, then rebuilds the MDP with the extended state map. One
pass counts every state's members on each side of the label threshold;
only the unsplit states that hold both labels have their variance taken
and, above the threshold, a hyperplane fitted. The
hyperplane is a linear SVM (squared hinge loss, L2-regularized, bias
not) solved to its optimum by a finite Newton method, with a negative
member's loss weighted x100, since one negative member labels a
sub-state -1; its offset then leaves no negative member on the + side
where a positive member outscores them all. Repeated passes only affect
cells not yet split. Refinement uses no randomness.

State ids are (cell, side) pairs, serialized as ``c<cell>``,
``c<cell>+``, ``c<cell>-``, and ``init`` for the synthetic initial
state used when traces start in different cells. Models persist to
JSON, and export to explicit-state ``.tra``/``.lab`` files for
cross-checks with external probabilistic model checkers.

A model is its columns: the sorted state ids (`table.order`) with their
`label` and `support`, a `rank` dict from id to place, and one
`TransitionTable`, which alone knows how rows group into choices; no
dict view of them is kept. A model file lists the states as
``{"id", "label", "support"}`` entries and the transitions as
``[src, act, dst, p]`` rows, both sorted; `load_model` takes both in any
order and refuses a file, naming it and the first offending entry, where
a state or classifier is not an object or a row not a 4-list, an id is
not ``c<cell>``, ``c<cell>+``, ``c<cell>-`` or ``init`` or is listed
twice, a label is not the integer -1 or 1, a support is not a
non-negative integer, an action is not an integer, a p is not a number
in [0, 1], a (src, act) row does not sum to 1 within 1e-9, a row repeats
or names an unlisted state, the initial state is not listed, a
classifier's cell is not an integer or has two classifiers, or a weight,
bias, threshold, bound or PCA entry is not a finite number of the
model's shape.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .signals import json_text
from .stl import Record

OUT_OF_BOUNDS = -1
INIT_STATE: "StateId" = (-2, 0)

StateId = tuple[int, int]  # (cell id, side); side 0 unsplit, +1/-1 after a split


class PcaTransform(Record):
    __slots__ = ("mean", "components")  # shapes (l,) and (k, l), orthonormal rows

    def __post_init__(self):
        eye = np.eye(self.components.shape[0])
        if not np.all(np.abs(self.components @ self.components.T - eye) <= 1e-8 + 1e-5 * eye):  # np.allclose, faster
            raise ValueError("PCA components are not orthonormal")
        self.mean.flags.writeable = self.components.flags.writeable = False


class AbstractionConfig(Record):
    __slots__ = ("k", "c", "label_threshold", "variance_threshold", "bounds")  # bounds: per reduced dim, set at build
    _defaults = {"k": 3, "c": 10, "label_threshold": 0.0, "variance_threshold": 0.0, "bounds": None}

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.c < 2:
            raise ValueError("c must be >= 2")
        if self.bounds is not None:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
            for lo, hi in bounds:
                if not lo < hi:
                    raise ValueError(f"empty grid bound [{lo}, {hi}]")
            object.__setattr__(self, "bounds", bounds)


class TransitionTable:
    """Every transition of a model as read-only columns, one row per transition: `src`
    and `dst` are ranks into `order` (the sorted state ids); rows are sorted by (src, act, dst).
    The choice columns are derived once; a choice is a run of rows with one (src, act). `choice`
    gives each row's choice, `choice_src` each choice's state, `first_choice` each state's first one."""

    __slots__ = ("order", "src", "act", "dst", "prob", "choice", "choice_src", "first_choice")

    def __init__(self, order: list[StateId], src: np.ndarray, act: np.ndarray, dst: np.ndarray, prob: np.ndarray):
        self.order, self.src, self.act, self.dst, self.prob = order, src, act, dst, prob
        new_choice = _new_runs(src, act)
        self.choice = np.cumsum(new_choice) - 1
        self.choice_src = src[new_choice]
        self.first_choice = np.flatnonzero(_new_runs(self.choice_src))
        for column in (src, act, dst, prob, self.choice, self.choice_src, self.first_choice):
            column.flags.writeable = False


class AbstractMdp:
    """A labeled MDP as read-only columns: `table` holds every transition, `label` (-1 or +1) and
    `support` each state's in `table.order`, and `rank` maps a state id to its place there."""

    def __init__(self, pca: PcaTransform, config: AbstractionConfig, initial: StateId, classifiers,
                 table: TransitionTable, label, support):
        self.pca, self.config, self.initial, self.table = pca, config, initial, table
        self.classifiers: MappingProxyType[int, tuple[np.ndarray, float]] = MappingProxyType(dict(classifiers))
        for w, _ in self.classifiers.values():
            w.flags.writeable = False
        self.rank: MappingProxyType[StateId, int] = MappingProxyType(dict(zip(table.order, range(len(table.order)))))
        self.label, self.support = np.array(label, dtype=np.int64), np.array(support, dtype=np.int64)
        self.label.flags.writeable = self.support.flags.writeable = False
        self.caches: dict = {}

    def num_transitions(self) -> int:
        return len(self.table.prob)


def _table(order: list[StateId], rank: dict, cols) -> TransitionTable:
    """The table of the rows given as id columns (src, act, dst, p) in any
    order, `rank` mapping an id to its rank in `order`. A ValueError names
    the first row that breaks the contract in the module docstring."""
    src_ids, act_ids, dst_ids, prob = cols or ((),) * 4

    def refuse(bad, why):
        if bad.size:
            i = bad[0]
            raise ValueError(f"transition {src_ids[i]} -{act_ids[i]}-> {dst_ids[i]} with probability {prob[i]!r} {why}")

    n = len(src_ids)
    src, dst = (np.fromiter(map(rank.get, ids, repeat(-1)), np.int64, n) for ids in (src_ids, dst_ids))
    refuse(np.flatnonzero((src < 0) | (dst < 0)), "names a state the model does not list")
    act, p = np.fromiter(act_ids, np.int64, n), np.fromiter(prob, float, n)
    refuse(np.flatnonzero(~((p >= 0.0) & (p <= 1.0))), "lies outside [0, 1]")
    s0, s1, a0, a1 = src[:-1], src[1:], act[:-1], act[1:]
    perm = np.arange(len(src))
    if not np.all((s0 < s1) | (s0 == s1) & ((a0 < a1) | (a0 == a1) & (dst[:-1] <= dst[1:]))):
        perm = np.lexsort((dst, act, src))  # a hand-edited or hand-built model
    src, act, dst = src[perm], act[perm], dst[perm]
    refuse(perm[~_new_runs(src, act, dst)], "is listed twice")
    table = TransitionTable(order, src, act, dst, p[perm])
    given = np.argsort(perm, kind="stable")  # each given row's place in the sorted order
    totals = np.bincount(table.choice[given], weights=p)  # adds in the given row order
    bad = np.flatnonzero(np.abs(totals - 1.0) > 1e-9)
    if bad.size:
        row = np.searchsorted(table.choice, bad[0])  # the choice's first row
        raise ValueError(f"transitions of {state_id_str(order[src[row]])} under action {act[row]} "
                         f"sum to {float(totals[bad[0]])!r}")
    return table


# ---------------------------------------------------------------------------
# the four abstraction functions


def fit_pca(states, k: int) -> PcaTransform:
    """Top-k eigenvectors of the covariance, sign-normalized for determinism."""
    X = np.asarray(states, dtype=float)
    if X.ndim != 2:
        raise ValueError("states must be a 2-D array of row vectors")
    n, l = X.shape
    if k > l:
        raise ValueError(f"k={k} exceeds state dimension {l}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} samples, got {n}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite state sample")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    comps = eigvecs[:, order].T[:k].copy()
    tol = 1e-12 * max(float(eigvals[0]), 1.0)
    if np.sum(eigvals > tol) < k:
        warnings.warn(
            f"rank-deficient data: only {int(np.sum(eigvals > tol))} nonzero eigenvalues "
            f"for k={k}; completing with an orthonormal basis",
            stacklevel=2,
        )
    for row in comps:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return PcaTransform(mean=mean, components=comps)


def reduce(transform: PcaTransform, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != transform.mean.shape:
        raise ValueError(f"state has shape {q.shape}, transform expects {transform.mean.shape}")
    return transform.components @ (q - transform.mean)


def _reduce_batch(transform: PcaTransform, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - transform.mean) @ transform.components.T


def cell_of(config: AbstractionConfig, q_hat: np.ndarray) -> int:
    """Mixed-radix cell id; boundary values clamp, outside values map to
    OUT_OF_BOUNDS."""
    if config.bounds is None:
        raise ValueError("config carries no grid bounds yet (build a model first)")
    cell = 0
    radix = 1
    for j, v in enumerate(np.asarray(q_hat, dtype=float).tolist()):
        lo, hi = config.bounds[j]
        if v < lo or v > hi:
            return OUT_OF_BOUNDS
        idx = min(int(config.c * (v - lo) / (hi - lo)), config.c - 1)
        cell += idx * radix
        radix *= config.c
    return cell


def _cells_batch(config: AbstractionConfig, R: np.ndarray) -> np.ndarray:
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    oob = np.any((R < lo) | (R > hi), axis=1)
    idx = np.minimum((config.c * (R - lo) / (hi - lo)).astype(int), config.c - 1)
    radix = config.c ** np.arange(R.shape[1])
    cells = idx @ radix
    cells[oob] = OUT_OF_BOUNDS
    return cells


def abstract_action(sigma: float) -> int:
    """Integer part of the controller output, truncated toward zero."""
    return int(_abstract_actions([sigma])[0])


def _grid_bounds(R: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Data min/max per reduced dim, widened by 1% (unit width if degenerate)."""
    lo, hi = R.min(axis=0), R.max(axis=0)
    width = hi - lo
    pad = np.where(width <= 0.0, 1.0, 0.01 * width)
    return tuple(zip((lo - pad).tolist(), (hi + pad).tolist()))


def _route(classifiers, cell: int, reduced: np.ndarray) -> StateId:
    clf = classifiers.get(cell)
    if clf is None:
        return (cell, 0)
    w, b = clf
    side = 1 if float(w @ reduced + b) >= 0.0 else -1
    return (cell, side)


def _code(sid) -> int:
    """The integer code (cell + 1) * 3 + side + 1 of a state id, or of
    (cells, sides) arrays: codes sort as the ids, and `_sid` turns one back."""
    cell, side = sid
    return (cell + 1) * 3 + side + 1


def _sid(code: int) -> StateId:
    return (code // 3 - 1, code % 3 - 1)


def _state_codes(config, classifiers, R: np.ndarray) -> np.ndarray:
    """The `_code` of the state of every row of reduced states."""
    cells = _cells_batch(config, R)
    sides = np.zeros(len(cells), dtype=np.int64)
    for cell in set(cells.tolist()).intersection(classifiers) if classifiers else ():
        rows = np.flatnonzero(cells == cell)
        sides[rows] = _sides(classifiers, cell, R, rows)
    return _code((cells, sides))


def _sides(classifiers, cell: int, R: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The side, 1 or -1, of each of the `rows` of R, all in `cell`, under the cell's hyperplane."""
    w, b = classifiers[cell]
    Rc = R[rows]
    margin = Rc @ w + b
    side = np.where(margin >= 0.0, 1, -1)
    # The batch dot product may round differently from `_route`'s, so
    # a row within rounding of the hyperplane takes `_route`'s side.
    near = np.abs(margin) <= 1e-12 * (np.abs(Rc) @ np.abs(w) + abs(b))
    for i in np.flatnonzero(near).tolist():
        side[i] = _route(classifiers, cell, R[rows[i]])[1]
    return side


def _sids(codes: np.ndarray) -> list[StateId]:
    """`_sid` of every code."""
    return list(zip((codes // 3 - 1).tolist(), (codes % 3 - 1).tolist()))


def _new_runs(*keys) -> np.ndarray:
    """True where a row of the sorted key columns differs from the one
    before, and at row 0."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _abstract_actions(sigma) -> np.ndarray:
    """`abstract_action` of every entry; ValueError for a non-finite
    action or one outside int64."""
    sigma = np.asarray(sigma, dtype=float)
    bad = ~np.isfinite(sigma)
    if bad.any():
        raise ValueError(f"non-finite action {float(sigma[bad][0])}")
    bad = (sigma < -2.0**63) | (sigma >= 2.0**63)
    if bad.any():
        raise ValueError(f"action {float(sigma[bad][0])} outside the int64 range")
    return sigma.astype(np.int64)


def _stacked(pairs):
    """The rows of the (trace, robustness) pairs stacked once: states, robustness, actions
    and each trace's first row. A ValueError for no traces, a robustness of the wrong
    length, or a non-finite state, naming its trace and row."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no traces")
    for trace, rob in pairs:
        if len(rob) != len(trace):
            raise ValueError(f"robustness has length {len(rob)}, trace has {len(trace)}")
    starts = np.cumsum([0] + [len(trace) for trace, _ in pairs[:-1]])
    states = np.vstack([trace.states for trace, _ in pairs])
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        n = np.searchsorted(starts, bad[0], "right") - 1
        raise ValueError(f"trace {n}: non-finite state in row {bad[0] - starts[n]}: {states[bad[0]].tolist()}")
    robs = np.concatenate([rob for _, rob in pairs], dtype=float)
    return states, robs, np.concatenate([trace.actions for trace, _ in pairs]), starts


def _groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable permutation that groups equal codes, and where each group starts in it."""
    order = np.argsort(codes, kind="stable")
    return order, np.flatnonzero(_new_runs(codes[order]))


def _assemble(codes, robs, actions, starts, pca, config, classifiers) -> AbstractMdp:
    """Count the MDP out of the stacked rows' state codes; a transition is
    row i -> i + 1 inside one trace."""
    inner = np.ones(len(codes) - 1, dtype=bool)
    inner[starts[1:] - 1] = False
    src, act, dst = codes[:-1][inner], _abstract_actions(actions[:-1][inner]), codes[1:][inner]
    initials = sorted(set(codes[starts].tolist()))
    order, heads = _groups(codes)
    first = order[heads]  # each state's first row
    support = np.diff(heads, append=len(codes))
    min_rob = np.fmin.reduceat(robs[order], heads)
    min_rob[np.isnan(robs[first])] = np.nan  # a NaN first member keeps the minimum NaN
    state_codes = codes[first].tolist()
    label = np.where(min_rob < config.label_threshold, -1, 1)  # a NaN minimum labels +1
    # count (src, act, dst) triples in sorted runs; probability = count / (src, act) total
    order = np.lexsort((dst, act, src))
    src, act, dst = src[order], act[order], dst[order]
    new_key = _new_runs(src, act)
    heads = np.flatnonzero(new_key | _new_runs(dst))
    counts = np.diff(heads, append=len(src))
    key_id = np.cumsum(new_key) - 1
    cols = [col.tolist() for col in (src[heads], act[heads], dst[heads], counts / np.bincount(key_id)[key_id[heads]])]
    if len(initials) == 1:
        initial = _sid(initials[0])
    else:
        # Traces start in different cells: synthetic initial state with
        # uniform transitions to every observed start.
        initial = INIT_STATE
        n, init = len(initials), _code(INIT_STATE)  # sorts first
        state_codes = [init] + state_codes
        label, support = np.append(1, label), np.append(0, support)
        cols = [head + col for head, col in zip(([init] * n, [0] * n, initials, [1.0 / n] * n), cols)]
    if len(state_codes) <= 1:
        warnings.warn("all concrete states fell into a single abstract state", stacklevel=2)
    table = _table(_sids(np.array(state_codes)), {code: r for r, code in enumerate(state_codes)}, cols)
    return AbstractMdp(pca, config, initial, classifiers, table, label, support)


def build_abstraction(pairs, config: AbstractionConfig) -> AbstractMdp:
    """Build the labeled MDP from (trace, per-step robustness) pairs."""
    states, robs, actions, starts = _stacked(pairs)
    pca = fit_pca(states, config.k)
    R = _reduce_batch(pca, states)
    config = config.replace(bounds=_grid_bounds(R))
    return _assemble(_state_codes(config, {}, R), robs, actions, starts, pca, config, {})


def abstract_state_of(model: AbstractMdp, q: np.ndarray) -> StateId | None:
    """Map a concrete state into the model; None means UNKNOWN (a cell
    never observed during construction, including out-of-bounds)."""
    reduced = reduce(model.pca, q)
    cell = cell_of(model.config, reduced)
    if cell == OUT_OF_BOUNDS:
        return None
    sid = _route(model.classifiers, cell, reduced)
    return sid if sid in model.rank else None


_LAMBDA, _NEG_COST = 0.01, 100.0  # refine's SVM: the regularizer's weight; a negative member's cost, a positive one's 1
_MAX_STEPS = 100  # Newton steps; the cells of a 2000-trace ACC model take 6-19


def _train_linear_svm(X: np.ndarray, y: np.ndarray, lam: float, neg_cost: float):
    """The (w, b) minimizing lam/2 |w|^2 + (1/n) sum_i c_i max(0, 1 - y_i (w.x_i + b))^2, c_i 1 where y_i is +1
    and `neg_cost` where it is -1, by the finite Newton method (Keerthi & DeCoste, JMLR 2005): a step solves
    the quadratic of the active set (the members of margin below 1) and searches the line to its solution;
    the first solution that keeps its own active set is the optimum. A degenerate w falls back, with a
    warning, to the class-mean hyperplane."""
    n, k = X.shape
    Xa = np.empty((n, k + 1))  # z = (w, b) acts on rows (x, 1)
    Xa[:, :k], Xa[:, k] = X, 1.0
    weight = (2.0 / n) * np.where(y > 0, 1.0, neg_cost)
    ridge = np.zeros((k + 1, k + 1))
    ridge.flat[:-1:k + 2] = lam  # the diagonal but its last entry: b is not regularized
    z, margin = np.zeros(k + 1), np.zeros(n)
    for _ in range(_MAX_STEPS):
        active = margin < 1.0
        if active.any():
            A = Xa[active]
            Aw = A.T * weight[active]
            target = np.linalg.solve(ridge + Aw @ A, Aw @ y[active])
        else:  # every margin reached 1 (within rounding) short of the optimum: descend as the regularizer does
            target = np.concatenate((np.zeros(k), z[k:]))
        target_margin = y * (Xa @ target)
        if ((target_margin < 1.0) == active).all():
            z = target
            break
        t = _line_search(margin, target_margin - margin, weight, z[:k], target[:k] - z[:k], lam)
        z = z + t * (target - z)
        margin = y * (Xa @ z)
    w, b = z[:k], float(z[k])
    if not (np.isfinite(w).all() and math.isfinite(b)) or float(np.linalg.norm(w)) < 1e-12:
        warnings.warn("SVM training degenerated; using the class-mean hyperplane", stacklevel=2)
        mean_pos = X[y > 0].mean(axis=0)
        mean_neg = X[y < 0].mean(axis=0)
        w = mean_pos - mean_neg
        b = -float(w @ (mean_pos + mean_neg) / 2.0)
    return w, b


def _line_search(margin, slope, weight, w, dw, lam) -> float:
    """The t > 0 minimizing lam/2 |w + t dw|^2 + sum_i weight_i / 2 max(0, 1 - margin_i - t slope_i)^2: where its
    derivative, piecewise linear and nondecreasing, reaches zero. A piece ends where a member's margin crosses 1."""
    live = np.where(slope < 0.0, margin <= 1.0, margin < 1.0)  # members in the loss just after t = 0
    gain, curve = weight * slope * (margin - 1.0), weight * slope * slope  # each one's share of the derivative
    crossing = ((slope > 0.0) & live | (slope < 0.0) & ~live).nonzero()[0]  # leaves, or joins, the loss
    at = (1.0 - margin[crossing]) / slope[crossing]  # where each crosses, all after t = 0
    order = at.argsort(kind="stable")
    at, crossing = at[order], crossing[order]
    sign = np.where(slope[crossing] < 0.0, 1.0, -1.0)
    offset = lam * float(w @ dw) + float(gain[live].sum()) + np.concatenate(([0.0], sign * gain[crossing])).cumsum()
    rate = lam * float(dw @ dw) + float(curve[live].sum()) + np.concatenate(([0.0], sign * curve[crossing])).cumsum()
    piece = int((offset[:-1] + rate[:-1] * at >= 0.0).searchsorted(True))  # the first with a root by its end
    return float(-offset[piece] / rate[piece])


def _split(X: np.ndarray, y: np.ndarray):
    """Refine's hyperplane for one cell's members X of classes y: the SVM, b then moved midway between the
    highest-scoring negative member and the lowest positive one above it, if any, so that the + side then
    holds positive members alone."""
    w, b = _train_linear_svm(X, y, _LAMBDA, _NEG_COST)
    scores = X @ w
    top_negative = scores[y < 0].max()
    above = scores[(y > 0) & (scores > top_negative)]
    if above.size:
        b = -float(top_negative + above.min()) / 2.0
    return w, b


def refine(model: AbstractMdp, pairs, config: AbstractionConfig | None = None) -> AbstractMdp:
    """One refinement pass over a model built from the same traces.

    Unsplit states whose members fall on both sides of the label
    threshold (one pass counts them) and whose robustness variance
    exceeds the threshold get a hyperplane (`_split`); everything is
    then recounted under the extended state map. Call again for further
    passes (already-split cells keep their single hyperplane). A
    ValueError names the trace and row of a state outside the model's
    grid, which no state of the model could hold.
    """
    states, robs_all, actions, starts = _stacked(pairs)
    config = model.config if config is None else config.replace(bounds=model.config.bounds)
    R = _reduce_batch(model.pca, states)
    codes = _state_codes(config, model.classifiers, R)
    outside = np.flatnonzero(codes // 3 - 1 == OUT_OF_BOUNDS)
    if outside.size:
        n = np.searchsorted(starts, outside[0], "right") - 1
        raise ValueError(f"trace {n}: row {outside[0] - starts[n]} lies outside the grid of the model it refines")
    order, heads = _groups(codes)
    ends, head_codes = np.append(heads[1:], len(order)), codes[order[heads]]
    positive = robs_all[order] >= config.label_threshold  # the members `_assemble` does not label -1
    n_positive = np.add.reduceat(positive, heads)
    mixed = (head_codes % 3 == 1) & (n_positive > 0) & (n_positive < ends - heads)  # unsplit, both labels
    classifiers = dict(model.classifiers)
    for head, end, code in zip(heads[mixed].tolist(), ends[mixed].tolist(), head_codes[mixed].tolist()):
        members, cell = order[head:end], _sid(code)[0]  # the state's rows, ascending
        robs = robs_all[members]
        if float(np.mean((robs - robs.mean()) ** 2)) > config.variance_threshold:
            classifiers[cell] = _split(R[members], np.where(positive[head:end], 1.0, -1.0))
            codes[members] = _code((cell, _sides(classifiers, cell, R, members)))
    return _assemble(codes, robs_all, actions, starts, model.pca, config, classifiers)


class PrecisenessReport(Record):
    # matched_fraction is over non-UNKNOWN states, unknown_fraction over all states
    __slots__ = ("matched_fraction", "unknown_fraction", "n_matched", "n_known", "n_unknown")


def preciseness(model: AbstractMdp, pairs) -> PrecisenessReport:
    """Fraction of fresh concrete states whose abstract label agrees
    with the label their own robustness would get; UNKNOWN hits are
    excluded from the match rate and reported separately."""
    pairs = list(pairs)
    if not pairs:
        return PrecisenessReport(0.0, 0.0, 0, 0, 0)
    states, robs, _, _ = _stacked(pairs)
    codes = _state_codes(model.config, model.classifiers, _reduce_batch(model.pca, states))
    model_codes = _code(np.array(model.table.order, dtype=np.int64).reshape(-1, 2).T)  # ascending, as the ids
    at = np.minimum(np.searchsorted(model_codes, codes), len(model_codes) - 1)
    known = model_codes[at] == codes
    expected = np.where(robs[known] < model.config.label_threshold, -1, 1)
    n_match, n_known = int(np.sum(model.label[at[known]] == expected)), int(known.sum())
    n_unknown = len(codes) - n_known
    return PrecisenessReport(n_match / n_known if n_known else 0.0, n_unknown / len(codes), n_match, n_known, n_unknown)


# ---------------------------------------------------------------------------
# serialization


def state_id_str(sid: StateId) -> str:
    return "init" if sid == INIT_STATE else f"c{sid[0]}{_SIDE_TEXT[sid[1]]}"


_STATE_IDS = re.compile(r"c(0|[1-9][0-9]*)([+-]?)|init")  # init matches no group
_SIDES = {"": 0, "+": 1, "-": -1}
_SIDE_TEXT = {side: text for text, side in _SIDES.items()}


def parse_state_id(text: str) -> StateId:
    sid = _state_id_of(text)
    if sid is None:
        raise ValueError(f"bad state id {text!r}")
    return sid


def _state_id_of(text) -> StateId | None:
    """The state id a text names, or None for any other value."""
    match = _STATE_IDS.fullmatch(text) if type(text) is str else None
    if match is None:
        return None
    cell, side = match.groups()
    return INIT_STATE if cell is None else (int(cell), _SIDES[side])


def _rows(table: TransitionTable):
    """The table's rows as (src, act, dst, p) tuples of Python numbers."""
    return zip(table.src.tolist(), table.act.tolist(), table.dst.tolist(), table.prob.tolist())


def model_to_json(model: AbstractMdp, config_hash: str | None = None) -> str:
    t = model.table
    names = np.array(list(map(state_id_str, t.order)), dtype=object)
    doc = {
        "format": "cpsguard-mdp-v1",
        "abstraction": {
            "k": model.config.k,
            "c": model.config.c,
            "label_threshold": model.config.label_threshold,
            "variance_threshold": model.config.variance_threshold,
            "bounds": [list(b) for b in model.config.bounds],
        },
        "pca": {"mean": model.pca.mean.astype(float).tolist(),
                "components": model.pca.components.astype(float).tolist()},
        "initial": state_id_str(model.initial),
        "states": [{"id": sid, "label": label, "support": support} for sid, label, support in
                   zip(names.tolist(), model.label.tolist(), model.support.tolist())],
        "classifiers": [{"cell": cell, "w": w.astype(float).tolist(), "b": float(b)}
                        for cell, (w, b) in sorted(model.classifiers.items())],
        "transitions": list(zip(names[t.src].tolist(), t.act.tolist(), names[t.dst].tolist(), t.prob.tolist())),
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return json_text(doc)


_NUMBER = {int, float}
_SECTIONS = {"abstraction": dict, "pca": dict, "initial": str, "states": list, "classifiers": list,
             "transitions": list}
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}
_KEYS = {"abstraction": ("k", "c", "label_threshold", "variance_threshold", "bounds"), "pca": ("mean", "components")}


def load_model(path) -> AbstractMdp:
    """Read a model file; a ValueError names the file if it is not a consistent model."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    try:
        return _model_of(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _numbers_at(doc, section: str, key: str, ndim: int) -> np.ndarray:
    """`doc[section][key]` as a float array of `ndim` dimensions; a ValueError names the key unless
    each entry is a finite int or float (a bool or a string is not)."""
    array = np.array(doc[section][key], dtype=object)
    if not (array.ndim == ndim and set(map(type, array.flat)) <= _NUMBER and np.isfinite(array.astype(float)).all()):
        kind = ("a finite number", "a list of finite numbers", "a list of lists of finite numbers")[ndim]
        raise ValueError(f"{section}.{key} is {json.dumps(doc[section][key])}, not {kind}")
    return array.astype(float)


def _refuse_outside(values, key, allowed: set, message) -> None:
    """Raise ValueError(message(i)) for the first i whose `key(value)` is not in `allowed`."""
    if not set(map(key, values)) <= allowed:
        raise ValueError(message(next(i for i, v in enumerate(values) if key(v) not in allowed)))


def _model_of(doc) -> AbstractMdp:
    """The model a parsed model file holds; an error says what is wrong, naming the first
    offending entry, but not the file."""
    if not isinstance(doc, dict) or doc.get("format") != "cpsguard-mdp-v1":
        raise ValueError("not a model file")
    for section, kind in _SECTIONS.items():
        if section not in doc:
            raise ValueError(f"no {section!r} section")
        if not isinstance(doc[section], kind):
            raise ValueError(f"the {section!r} section is not {_JSON_KINDS[kind]}")
        for key in _KEYS.get(section, ()):
            if key not in doc[section]:
                raise ValueError(f"no key {section}.{key}")
    a = doc["abstraction"]
    for key in ("k", "c"):
        if type(a[key]) is not int:
            raise ValueError(f"abstraction.{key} is {json.dumps(a[key])}, not an integer")
    _numbers_at(doc, "abstraction", "label_threshold", 0)
    _numbers_at(doc, "abstraction", "variance_threshold", 0)
    bounds = _numbers_at(doc, "abstraction", "bounds", 2)
    if bounds.shape != (a["k"], 2):
        raise ValueError(f"abstraction.bounds has shape {bounds.shape}, expected ({a['k']}, 2)")
    config = AbstractionConfig(k=a["k"], c=a["c"], label_threshold=a["label_threshold"],
                               variance_threshold=a["variance_threshold"], bounds=bounds.tolist())
    mean, components = _numbers_at(doc, "pca", "mean", 1), _numbers_at(doc, "pca", "components", 2)
    if components.shape != (config.k, len(mean)):
        raise ValueError(f"PCA components have shape {components.shape}, expected {(config.k, len(mean))}")
    pca = PcaTransform(mean=mean, components=components)

    ids, codes, labels, supports = [], [], [], []
    for i, entry in enumerate(doc["states"]):
        if type(entry) is not dict:
            raise ValueError(f"state entry {i} is {json.dumps(entry)}, not an object")
        sid, label, support = entry["id"], entry["label"], entry["support"]
        state = _state_id_of(sid)
        if state is None:
            raise ValueError(f"state entry {i} has id {json.dumps(sid)}, not c<cell>, c<cell>+, c<cell>- or init")
        if type(label) is not int or label not in (-1, 1):
            raise ValueError(f"state {sid} has label {json.dumps(label)}, expected -1 or 1")
        if type(support) is not int or support < 0:
            raise ValueError(f"state {sid} has support {json.dumps(support)}, expected a non-negative integer")
        ids.append(sid)
        codes.append(_code(state))
        labels.append(label)
        supports.append(support)
    codes = np.array(codes, dtype=np.int64)
    perm = np.argsort(codes, kind="stable")
    codes = codes[perm]
    twice = np.flatnonzero(codes[1:] == codes[:-1])
    if twice.size:
        i, j = perm[twice[0]], perm[twice[0] + 1]
        raise ValueError(f"state {ids[j]} is listed twice, as entries {i} and {j}")
    place = np.empty(len(perm), dtype=np.int64)
    place[perm] = np.arange(len(perm))
    rank = dict(zip(ids, place.tolist()))  # id text -> rank in the sorted ids

    classifiers = {}
    for i, entry in enumerate(doc["classifiers"]):
        if type(entry) is not dict:
            raise ValueError(f"classifier {i} is {json.dumps(entry)}, not an object")
        cell, w, b = entry["cell"], entry["w"], entry["b"]
        if type(cell) is not int:
            raise ValueError(f"classifier {i} has cell {json.dumps(cell)}, not an integer")
        if cell in classifiers:
            raise ValueError(f"cell {cell} has two classifiers")
        if not (type(w) is list and len(w) == config.k and set(map(type, [*w, b])) <= _NUMBER
                and all(map(math.isfinite, [*w, b]))):
            raise ValueError(f"classifier of cell {cell} has w {json.dumps(w)} and b {json.dumps(b)}, "
                             f"expected {config.k} finite numbers and one")
        classifiers[cell] = (np.array(w, dtype=float), float(b))

    rows = doc["transitions"]
    bad_row = lambda i: (f"transition row {i} is {json.dumps(rows[i])}, not [src, act, dst, p] "
                         "with an integer act and a number p")
    _refuse_outside(rows, type, {list}, bad_row)
    _refuse_outside(rows, len, {4}, bad_row)
    cols = list(zip(*rows)) or [()] * 4
    _refuse_outside(cols[1], type, {int}, bad_row)
    _refuse_outside(cols[3], type, _NUMBER, bad_row)
    order = _sids(codes)
    r = rank.get(doc["initial"])
    if r is None:
        raise ValueError(f"initial state {doc['initial']} is not a listed state")
    return AbstractMdp(pca, config, order[r], classifiers, _table(order, rank, cols),
                       np.array(labels, dtype=np.int64)[perm], np.array(supports, dtype=np.int64)[perm])


def tra_lab_text(model: AbstractMdp) -> tuple[str, str]:
    """Explicit-state export, as the texts of the ``.tra`` and ``.lab``
    files. ``.tra``: header then ``s act s' p [label]`` rows sorted by
    (s, act, s'), probabilities with 12 significant digits; the act
    column renumbers each state's actions 0..n-1 (the original integer
    action is kept as the trailing label) so the file is digestible by
    explicit-state model checkers. ``.lab``: the usual id=name header
    then ``state: ids`` lines."""
    t = model.table
    state_first = np.repeat(t.first_choice, np.diff(t.first_choice, append=len(t.choice_src)))  # per choice
    local = (t.choice - state_first[t.choice]).tolist()  # each row's choice, numbered within its state
    rows = [f"{s} {c} {d} {p:.12g} a{a}" for (s, a, d, p), c in zip(_rows(t), local)]
    tra = f"{len(t.order)} {len(t.choice_src)} {len(rows)}\n" + "\n".join(rows) + ("\n" if rows else "")
    lab = ['0="init" 1="rob=-1" 2="rob=+1"\n']
    for index, (sid, label) in enumerate(zip(t.order, model.label.tolist())):
        lab.append(f"{index}: {'0 ' if sid == model.initial else ''}{1 if label == -1 else 2}\n")
    return tra, "".join(lab)

