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
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise ValueError(f"non-finite action {sigma}")
    return int(sigma)


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


def _state_ids(config, classifiers, R: np.ndarray) -> list[StateId]:
    cells = _cells_batch(config, R)
    out = []
    for row, cell in zip(R, cells):
        cell = int(cell)
        if cell == OUT_OF_BOUNDS:
            out.append((OUT_OF_BOUNDS, 0))
        else:
            out.append(_route(classifiers, cell, row))
    return out


def _assemble(pairs, pca: PcaTransform, config: AbstractionConfig, classifiers) -> AbstractMdp:
    """Map traces through the state functions and count the MDP out."""
    min_rob: dict[StateId, float] = {}
    support: dict[StateId, int] = {}
    counts: dict[tuple[StateId, int], dict[StateId, int]] = {}
    start_ids: list[StateId] = []
    for trace, robs in pairs:
        robs = np.asarray(robs, dtype=float)
        if len(robs) != len(trace):
            raise ValueError(f"robustness has length {len(robs)}, trace has {len(trace)}")
        R = _reduce_batch(pca, trace.states)
        sids = _state_ids(config, classifiers, R)
        start_ids.append(sids[0])
        for sid, rob in zip(sids, robs):
            support[sid] = support.get(sid, 0) + 1
            if sid not in min_rob or rob < min_rob[sid]:
                min_rob[sid] = float(rob)
        for i in range(len(trace) - 1):
            act = abstract_action(trace.actions[i])
            dests = counts.setdefault((sids[i], act), {})
            dests[sids[i + 1]] = dests.get(sids[i + 1], 0) + 1
    states = {
        sid: StateInfo(label=-1 if min_rob[sid] < config.label_threshold else +1, support=support[sid])
        for sid in support
    }
    transitions: dict[tuple[StateId, int], dict[StateId, float]] = {}
    for key, dests in counts.items():
        total = sum(dests.values())
        transitions[key] = {dst: cnt / total for dst, cnt in dests.items()}
    distinct_starts = sorted(set(start_ids))
    if len(distinct_starts) == 1:
        initial = distinct_starts[0]
    else:
        # Traces start in different cells: synthetic initial state with
        # uniform transitions to every observed start.
        initial = INIT_STATE
        states[INIT_STATE] = StateInfo(label=+1, support=0)
        transitions[(INIT_STATE, 0)] = {sid: 1.0 / len(distinct_starts) for sid in distinct_starts}
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
    config = model.config if config is None else replace(config, bounds=model.config.bounds)
    members_x: dict[StateId, list[np.ndarray]] = {}
    members_r: dict[StateId, list[float]] = {}
    for trace, robs in pairs:
        R = _reduce_batch(model.pca, trace.states)
        sids = _state_ids(config, model.classifiers, R)
        for sid, row, rob in zip(sids, R, np.asarray(robs, dtype=float)):
            members_x.setdefault(sid, []).append(row)
            members_r.setdefault(sid, []).append(float(rob))
    classifiers = dict(model.classifiers)
    for sid in sorted(members_r):
        cell, side = sid
        if side != 0 or cell == OUT_OF_BOUNDS:
            continue  # one hyperplane per cell
        robs = np.array(members_r[sid])
        variance = float(np.mean((robs - robs.mean()) ** 2))
        has_pos = bool(np.any(robs >= 0.0))
        has_neg = bool(np.any(robs < 0.0))
        if variance > config.variance_threshold and has_pos and has_neg:
            X = np.array(members_x[sid])
            y = np.where(robs >= 0.0, 1.0, -1.0)
            classifiers[cell] = _train_linear_svm(X, y, lam=0.01, epochs=200, seed=cell & 0x7FFFFFFF)
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
    for trace, robs in pairs:
        R = _reduce_batch(model.pca, trace.states)
        sids = _state_ids(model.config, model.classifiers, R)
        for sid, rob in zip(sids, np.asarray(robs, dtype=float)):
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


def save_model(model: AbstractMdp, path, config_hash: str | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(model, config_hash))


def load_model(path) -> AbstractMdp:
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
    pca = PcaTransform(
        mean=np.array(doc["pca"]["mean"]),
        components=np.array(doc["pca"]["components"]),
    )
    states = {
        parse_state_id(s["id"]): StateInfo(label=s["label"], support=s["support"])
        for s in doc["states"]
    }
    classifiers = {c["cell"]: (np.array(c["w"]), float(c["b"])) for c in doc["classifiers"]}
    transitions: dict[tuple[StateId, int], dict[StateId, float]] = {}
    for src, act, dst, p in doc["transitions"]:
        transitions.setdefault((parse_state_id(src), int(act)), {})[parse_state_id(dst)] = float(p)
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


def export_tra_lab(model: AbstractMdp, tra_path, lab_path) -> None:
    """Write `tra_lab_text` to the two paths."""
    tra, lab = tra_lab_text(model)
    with open(tra_path, "w") as fh:
        fh.write(tra)
    with open(lab_path, "w") as fh:
        fh.write(lab)
