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
OUT_OF_BOUNDS cell (id -1). Construction data never lands there, so at
runtime it behaves like any never-observed cell: `abstract_state_of`
returns None (UNKNOWN).

Refinement re-examines each state: members are split by robustness sign
and, when the population variance of member robustness exceeds the
variance threshold and both sign classes are nonempty, a soft-margin
linear SVM (Pegasos subgradient descent, lambda=0.01, 200 epochs,
seeded by cell id) is trained in reduced space and attached to the
cell, splitting it into a + and a - sub-state; the whole MDP is then
rebuilt with the extended state map. One hyperplane per cell; repeated
passes only affect cells not yet split.

State ids are (cell, side) pairs, serialized as ``c<cell>``,
``c<cell>+``, ``c<cell>-``, and ``init`` for the synthetic initial
state used when traces start in different cells. Models persist to
JSON, and export to explicit-state ``.tra``/``.lab`` files for
cross-checks with external probabilistic model checkers.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np


OUT_OF_BOUNDS = -1
INIT_STATE: "StateId" = (-2, 0)

StateId = tuple[int, int]  # (cell id, side); side 0 unsplit, +1/-1 after a split


@dataclass(frozen=True)
class PcaTransform:
    mean: np.ndarray  # (l,)
    components: np.ndarray  # (k, l), orthonormal rows

    def __post_init__(self):
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(self.components.shape[0]), atol=1e-8):
            raise ValueError("PCA components are not orthonormal")


@dataclass(frozen=True)
class AbstractionConfig:
    k: int = 3
    c: int = 10
    label_threshold: float = 0.0
    variance_threshold: float = 0.0
    bounds: tuple[tuple[float, float], ...] | None = None  # per reduced dim, set at build

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


@dataclass
class StateInfo:
    label: int  # -1 or +1
    support: int  # member count in the construction data


@dataclass
class AbstractMdp:
    pca: PcaTransform
    config: AbstractionConfig
    states: dict[StateId, StateInfo]
    initial: StateId
    transitions: dict[tuple[StateId, int], dict[StateId, float]]
    classifiers: dict[int, tuple[np.ndarray, float]]  # cell -> (w, b)
    caches: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def atomic_propositions(self) -> tuple[str, str]:
        return ("rob=-1", "rob=+1")

    def label_name(self, sid: StateId) -> str:
        return "rob=-1" if self.states[sid].label == -1 else "rob=+1"

    @property
    def actions(self) -> tuple[int, ...]:
        return tuple(sorted({act for (_, act) in self.transitions}))

    def num_transitions(self) -> int:
        return sum(len(d) for d in self.transitions.values())


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


def _route(classifiers, cell: int, reduced: np.ndarray) -> StateId:
    clf = classifiers.get(cell)
    if clf is None:
        return (cell, 0)
    w, b = clf
    side = 1 if float(w @ reduced + b) >= 0.0 else -1
    return (cell, side)


def _sid(code: int) -> StateId:
    return (code // 3 - 1, code % 3 - 1)


def _state_codes(config, classifiers, R: np.ndarray) -> np.ndarray:
    """The state of every row of reduced states, as one integer code
    (cell + 1) * 3 + side + 1 per row: codes sort as the (cell, side)
    ids, and `_sid` turns one back."""
    cells = _cells_batch(config, R)
    sides = np.zeros(len(cells), dtype=np.int64)
    for cell in set(cells.tolist()).intersection(classifiers):
        w, b = classifiers[cell]
        rows = np.flatnonzero(cells == cell)
        Rc = R[rows]
        margin = Rc @ w + b
        side = np.where(margin >= 0.0, 1, -1)
        # The batch dot product may round differently from `_route`'s, so
        # a row within rounding of the hyperplane takes `_route`'s side.
        near = np.abs(margin) <= 1e-12 * (np.abs(Rc) @ np.abs(w) + abs(b))
        for i in np.flatnonzero(near).tolist():
            side[i] = _route(classifiers, cell, R[rows[i]])[1]
        sides[rows] = side
    return (cells + 1) * 3 + sides + 1


def _state_ids(config, classifiers, R: np.ndarray) -> list[StateId]:
    return [_sid(code) for code in _state_codes(config, classifiers, R).tolist()]


def _new_runs(*keys) -> np.ndarray:
    """True where a row of the sorted key columns differs from the one
    before, and at row 0."""
    changed = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return np.append(True, changed)[: len(keys[0])]


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


def _mapped(pairs, pca: PcaTransform, config: AbstractionConfig, classifiers):
    """Per trace: the trace, its reduced states, state codes and robustness.
    A ValueError names the trace and row of a non-finite state."""
    for n, (trace, robs) in enumerate(pairs):
        robs = np.asarray(robs, dtype=float)
        if len(robs) != len(trace):
            raise ValueError(f"robustness has length {len(robs)}, trace has {len(trace)}")
        bad = np.flatnonzero(~np.isfinite(trace.states).all(axis=1))
        if bad.size:
            raise ValueError(f"trace {n}: non-finite state in row {bad[0]}: {trace.states[bad[0]].tolist()}")
        R = _reduce_batch(pca, trace.states)
        yield trace, R, _state_codes(config, classifiers, R), robs


def _assemble(pairs, pca: PcaTransform, config: AbstractionConfig, classifiers) -> AbstractMdp:
    """Map traces through the state functions and count the MDP out."""
    codes, robs, src, act, dst = [], [], [], [], []
    for trace, _, code, rob in _mapped(pairs, pca, config, classifiers):
        act.append(_abstract_actions(trace.actions[: len(trace) - 1]))
        codes.append(code)
        robs.append(rob)
        src.append(code[:-1])
        dst.append(code[1:])
    starts = sorted({int(code[0]) for code in codes})
    codes, robs = np.concatenate(codes), np.concatenate(robs)
    order = np.argsort(codes, kind="stable")
    heads = np.flatnonzero(_new_runs(codes[order]))
    first = order[heads]  # each state's first row
    support = np.diff(heads, append=len(codes))
    min_rob = np.fmin.reduceat(robs[order], heads)
    min_rob[np.isnan(robs[first])] = np.nan  # a NaN first member keeps the minimum NaN
    sid_of = {code: _sid(code) for code in codes[first].tolist()}
    states = {
        sid_of[code]: StateInfo(label=-1 if rob < config.label_threshold else +1, support=n)
        for code, rob, n in zip(codes[first].tolist(), min_rob.tolist(), support.tolist())
    }
    # count (src, act, dst) triples in sorted runs; probability = count / (src, act) total
    src, act, dst = np.concatenate(src), np.concatenate(act), np.concatenate(dst)
    order = np.lexsort((dst, act, src))
    src, act, dst = src[order], act[order], dst[order]
    new_key = _new_runs(src, act)
    heads = np.flatnonzero(new_key | _new_runs(dst))
    counts = np.diff(heads, append=len(src))
    key_id = np.cumsum(new_key) - 1
    totals = np.bincount(key_id)[key_id[heads]]
    transitions: dict[tuple[StateId, int], dict[StateId, float]] = {}
    for s, a, d, p in zip(src[heads].tolist(), act[heads].tolist(), dst[heads].tolist(),
                          (counts / totals).tolist()):
        transitions.setdefault((sid_of[s], a), {})[sid_of[d]] = p
    if len(starts) == 1:
        initial = sid_of[starts[0]]
    else:
        # Traces start in different cells: synthetic initial state with
        # uniform transitions to every observed start.
        initial = INIT_STATE
        states[INIT_STATE] = StateInfo(label=+1, support=0)
        transitions[(INIT_STATE, 0)] = {sid_of[code]: 1.0 / len(starts) for code in starts}
    if len(states) <= 1:
        warnings.warn("all concrete states fell into a single abstract state", stacklevel=2)
    return AbstractMdp(
        pca=pca,
        config=config,
        states=states,
        initial=initial,
        transitions=transitions,
        classifiers=dict(classifiers),
    )


def build_abstraction(pairs, config: AbstractionConfig) -> AbstractMdp:
    """Build the labeled MDP from (trace, per-step robustness) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no traces")
    all_states = np.vstack([trace.states for trace, _ in pairs])
    pca = fit_pca(all_states, config.k)
    R = _reduce_batch(pca, all_states)
    config = replace(config, bounds=_grid_bounds(R))
    return _assemble(pairs, pca, config, {})


def abstract_state_of(model: AbstractMdp, q: np.ndarray) -> StateId | None:
    """Map a concrete state into the model; None means UNKNOWN (a cell
    never observed during construction, including out-of-bounds)."""
    reduced = reduce(model.pca, q)
    cell = cell_of(model.config, reduced)
    if cell == OUT_OF_BOUNDS:
        return None
    sid = _route(model.classifiers, cell, reduced)
    return sid if sid in model.states else None


def _train_linear_svm(X: np.ndarray, y: np.ndarray, lam: float, epochs: int, seed: int,
                      batch: int = 64):
    """Pegasos-style subgradient descent (mini-batch variant) for a
    soft-margin linear separator.

    Falls back to the class-mean hyperplane (with a warning) when the
    result degenerates.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        order = rng.permutation(len(X))
        Xp, yp = X[order], y[order]
        for start in range(0, len(X), batch):
            Xi, yi = Xp[start : start + batch], yp[start : start + batch]
            t += 1
            eta = 1.0 / (lam * t)
            viol = yi * (Xi @ w + b) < 1.0
            w *= 1.0 - eta * lam
            yv = yi[viol]
            if yv.size:
                scale = eta / len(yi)
                w += scale * (yv @ Xi[viol])
                b += scale * float(np.add.reduce(yv))
    if not (np.all(np.isfinite(w)) and math.isfinite(b)) or float(np.linalg.norm(w)) < 1e-12:
        warnings.warn("SVM training degenerated; using the class-mean hyperplane", stacklevel=2)
        mean_pos = X[y > 0].mean(axis=0)
        mean_neg = X[y < 0].mean(axis=0)
        w = mean_pos - mean_neg
        b = -float(w @ (mean_pos + mean_neg) / 2.0)
    return w, float(b)


def refine(model: AbstractMdp, pairs, config: AbstractionConfig | None = None) -> AbstractMdp:
    """One refinement pass over a model built from the same traces.

    States whose member robustness variance exceeds the threshold and
    that contain both signs get a linear separator; everything is then
    recounted under the extended state map. Call again for further
    passes (already-split cells keep their single hyperplane).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no traces")
    config = model.config if config is None else replace(config, bounds=model.config.bounds)
    _, R, codes, robs_all = zip(*_mapped(pairs, model.pca, config, model.classifiers))
    R, codes, robs_all = np.concatenate(R), np.concatenate(codes), np.concatenate(robs_all)
    # members of each state in trace order: the SVM's permutation applies to it
    order = np.argsort(codes, kind="stable")
    heads = np.flatnonzero(_new_runs(codes[order]))
    classifiers = dict(model.classifiers)
    for code, members in zip(codes[order[heads]].tolist(), np.split(order, heads[1:])):
        cell, side = _sid(code)
        if side != 0 or cell == OUT_OF_BOUNDS:
            continue  # one hyperplane per cell
        robs = robs_all[members]
        variance = float(np.mean((robs - robs.mean()) ** 2))
        if variance > config.variance_threshold and np.any(robs >= 0.0) and np.any(robs < 0.0):
            y = np.where(robs >= 0.0, 1.0, -1.0)
            classifiers[cell] = _train_linear_svm(R[members], y, lam=0.01, epochs=200, seed=cell & 0x7FFFFFFF)
    return _assemble(pairs, model.pca, config, classifiers)


@dataclass(frozen=True)
class PrecisenessReport:
    matched_fraction: float  # over non-UNKNOWN states
    unknown_fraction: float  # over all states
    n_matched: int
    n_known: int
    n_unknown: int


def preciseness(model: AbstractMdp, pairs) -> PrecisenessReport:
    """Fraction of fresh concrete states whose abstract label agrees
    with the label their own robustness would get; UNKNOWN hits are
    excluded from the match rate and reported separately."""
    eps = model.config.label_threshold
    n_match = n_known = n_unknown = 0
    for _, _, codes, robs in _mapped(pairs, model.pca, model.config, model.classifiers):
        for sid, rob in zip(map(_sid, codes.tolist()), robs):
            if sid not in model.states:
                n_unknown += 1
                continue
            n_known += 1
            expected = -1 if rob < eps else +1
            if model.states[sid].label == expected:
                n_match += 1
    total = n_known + n_unknown
    return PrecisenessReport(
        matched_fraction=n_match / n_known if n_known else 0.0,
        unknown_fraction=n_unknown / total if total else 0.0,
        n_matched=n_match,
        n_known=n_known,
        n_unknown=n_unknown,
    )


# ---------------------------------------------------------------------------
# serialization


def state_id_str(sid: StateId) -> str:
    if sid == INIT_STATE:
        return "init"
    cell, side = sid
    return f"c{cell}" + {0: "", 1: "+", -1: "-"}[side]


def parse_state_id(text: str) -> StateId:
    if text == "init":
        return INIT_STATE
    if not text.startswith("c"):
        raise ValueError(f"bad state id {text!r}")
    body = text[1:]
    side = 0
    if body.endswith("+"):
        side, body = 1, body[:-1]
    elif body.endswith("-"):
        side, body = -1, body[:-1]
    return (int(body), side)


def model_to_json(model: AbstractMdp, config_hash: str | None = None) -> str:
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
        "states": [
            {"id": state_id_str(sid), "label": info.label, "support": info.support}
            for sid, info in sorted(model.states.items())
        ],
        "classifiers": [
            {"cell": cell, "w": [float(v) for v in w], "b": float(b)}
            for cell, (w, b) in sorted(model.classifiers.items())
        ],
        "transitions": [
            [state_id_str(src), act, state_id_str(dst), float(p)]
            for (src, act) in sorted(model.transitions)
            for dst, p in sorted(model.transitions[(src, act)].items())
        ],
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def load_model(path) -> AbstractMdp:
    """Read a model file; a ValueError names the file if it is inconsistent."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "cpsguard-mdp-v1":
        raise ValueError(f"{path}: not a model file")
    a = doc["abstraction"]
    config = AbstractionConfig(
        k=a["k"], c=a["c"], label_threshold=a["label_threshold"],
        variance_threshold=a["variance_threshold"],
        bounds=tuple(tuple(b) for b in a["bounds"]),
    )
    if len(config.bounds) != config.k:
        raise ValueError(f"{path}: {len(config.bounds)} grid bounds for k={config.k}")
    mean, components = np.array(doc["pca"]["mean"]), np.array(doc["pca"]["components"])
    if components.shape != (config.k, len(mean)):
        raise ValueError(f"{path}: PCA components have shape {components.shape}, "
                         f"expected {(config.k, len(mean))}")
    pca = PcaTransform(mean=mean, components=components)
    ids = {s["id"]: parse_state_id(s["id"]) for s in doc["states"]}  # each id parsed once
    states = {}
    for s in doc["states"]:
        if s["label"] not in (-1, 1):
            raise ValueError(f"{path}: state {s['id']} has label {s['label']!r}, expected -1 or 1")
        states[ids[s["id"]]] = StateInfo(label=s["label"], support=s["support"])
    classifiers = {c["cell"]: (np.array(c["w"]), float(c["b"])) for c in doc["classifiers"]}
    for cell, (w, _) in classifiers.items():
        if w.shape != (config.k,):
            raise ValueError(f"{path}: classifier of cell {cell} has shape {w.shape}, expected ({config.k},)")
    transitions: dict[tuple[StateId, int], dict[StateId, float]] = {}
    for src, act, dst, p in doc["transitions"]:
        if src not in ids or dst not in ids:
            raise ValueError(f"{path}: transition {src} -> {dst} names a state the model does not list")
        transitions.setdefault((ids[src], int(act)), {})[ids[dst]] = float(p)
    for (src, act), dests in transitions.items():
        total = sum(dests.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{path}: transitions of {state_id_str(src)} under action {act} sum to {total!r}")
    return AbstractMdp(
        pca=pca, config=config, states=states,
        initial=parse_state_id(doc["initial"]),
        transitions=transitions, classifiers=classifiers,
    )


def tra_lab_text(model: AbstractMdp) -> tuple[str, str]:
    """Explicit-state export, as the texts of the ``.tra`` and ``.lab``
    files. ``.tra``: header then ``s act s' p [label]`` rows sorted by
    (s, act, s'), probabilities with 12 significant digits; the act
    column renumbers each state's actions 0..n-1 (the original integer
    action is kept as the trailing label) so the file is digestible by
    explicit-state model checkers. ``.lab``: the usual id=name header
    then ``state: ids`` lines."""
    order = sorted(model.states)
    index = {sid: i for i, sid in enumerate(order)}
    acts_of: dict[StateId, list[int]] = {}
    for sid, act in model.transitions:
        acts_of.setdefault(sid, []).append(act)
    rows = []
    n_choices = 0
    for sid in order:
        acts = sorted(acts_of.get(sid, ()))
        n_choices += len(acts)
        for choice, act in enumerate(acts):
            for dst, p in sorted(model.transitions[(sid, act)].items()):
                rows.append(f"{index[sid]} {choice} {index[dst]} {p:.12g} a{act}")
    tra = f"{len(order)} {n_choices} {len(rows)}\n" + "\n".join(rows) + ("\n" if rows else "")
    lab = ['0="init" 1="rob=-1" 2="rob=+1"\n']
    for sid in order:
        ids = []
        if sid == model.initial:
            ids.append(0)
        ids.append(1 if model.states[sid].label == -1 else 2)
        lab.append(f"{index[sid]}: {' '.join(str(i) for i in ids)}\n")
    return tra, "".join(lab)

