"""Controllers: a small feed-forward net with a behavior-cloning trainer,
and a clamped PID with anti-windup.

Nets use tanh hidden layers and an affine scalar output clamped to the
plant's control range. Both kinds of controller are immutable records,
safe to share across runs. A run acts through a policy bound from the
controller: `mlp_policy` binds each layer's matrix product once, and `pid_policy`
returns a closure that holds one run's PID state (integral, previous
error), so each binding starts fresh.

Weights persist in a flat text format: a ``dims`` line with the layer
sizes, a ``range`` line with the output clamp, then for each layer the
weight matrix one row per line followed by the bias row.
"""

from __future__ import annotations

import math

import numpy as np

from .stl import Record


class MlpNet(Record):
    __slots__ = ("weights", "biases", "out_lo", "out_hi")  # tuples of arrays; weights[i] is (dims[i+1], dims[i])

    def __post_init__(self):
        dims_ok = all(
            w.shape[0] == b.shape[0] for w, b in zip(self.weights, self.biases)
        ) and all(
            self.weights[i + 1].shape[1] == self.weights[i].shape[0]
            for i in range(len(self.weights) - 1)
        )
        if not dims_ok:
            raise ValueError("inconsistent layer shapes")
        for arr in (*self.weights, *self.biases):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite network parameter")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must be scalar")
        if not (math.isfinite(self.out_lo) and math.isfinite(self.out_hi) and self.out_lo < self.out_hi):
            raise ValueError(f"output range [{self.out_lo}, {self.out_hi}] is not finite and non-empty")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))


def mlp_policy(net: MlpNet):
    """The net's deterministic forward pass with its layers bound once:
    obs -> action, clamped to the control range. Each layer multiplies
    through its weight matrix's bound `ndarray.dot`, the routine `np.dot`
    forwards to, so the bits are np.dot's without its dispatch."""
    hidden = tuple((w.dot, b) for w, b in zip(net.weights[:-1], net.biases[:-1]))
    out_dot, b_out, lo, hi = net.weights[-1].dot, float(net.biases[-1][0]), net.out_lo, net.out_hi
    shape = (net.weights[0].shape[1],)
    tanh, asarray = np.tanh, np.asarray

    def act(obs) -> float:
        h = asarray(obs, dtype=float)
        if h.shape != shape:
            raise ValueError(f"observation has shape {h.shape}, net expects {shape}")
        for dot, b in hidden:
            h = tanh(dot(h) + b)
        out = float(out_dot(h)[0]) + b_out
        return lo if out < lo else hi if out > hi else out
    return act


def mlp_forward(net: MlpNet, obs: np.ndarray) -> float:
    """Deterministic forward pass, output clamped to the control range."""
    return mlp_policy(net)(obs)


def _forward_batch(weights, biases, X):
    """Pre-clamp outputs and hidden activations for a batch (training path)."""
    hs = [X]
    h = X
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w.T + b)
        hs.append(h)
    out = h @ weights[-1].T + biases[-1]
    return out[:, 0], hs


def bc_loss_and_grads(net_weights, net_biases, X, y):
    """Mean squared error on the pre-clamp output and its gradients.

    Returns (loss, weight grads, bias grads); the analytic gradients
    here are what the finite-difference check in the tests verifies.
    """
    n = X.shape[0]
    out, hs = _forward_batch(net_weights, net_biases, X)
    err = out - y
    loss = float(np.mean(err**2))
    grad_w = [None] * len(net_weights)
    grad_b = [None] * len(net_biases)
    delta = (2.0 / n) * err[:, None]  # d loss / d out
    grad_w[-1] = delta.T @ hs[-1]
    grad_b[-1] = delta.sum(axis=0)
    back = delta @ net_weights[-1]
    for i in range(len(net_weights) - 2, -1, -1):
        back = back * (1.0 - hs[i + 1] ** 2)  # through tanh
        grad_w[i] = back.T @ hs[i]
        grad_b[i] = back.sum(axis=0)
        if i > 0:
            back = back @ net_weights[i]
    return loss, grad_w, grad_b


def init_mlp(in_dim: int, hidden: tuple[int, ...], out_range: tuple[float, float], seed: int) -> MlpNet:
    """Glorot-uniform seeded initialization."""
    rng = np.random.default_rng(seed)
    dims = (in_dim, *hidden, 1)
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, size=(b, a)))
        biases.append(np.zeros(b))
    return MlpNet(tuple(weights), tuple(biases), float(out_range[0]), float(out_range[1]))


def train_bc(dataset: tuple[np.ndarray, np.ndarray], arch: tuple[int, ...],
             hyper: dict, out_range: tuple[float, float]) -> tuple[MlpNet, float]:
    """Behavior cloning: fit observations to actions by mini-batch SGD.

    hyper keys: lr, epochs, batch, seed. Deterministic given the seed;
    epochs=0 returns the seeded initialization untouched. Observations
    are standardized internally and the scaling is folded back into the
    first layer, so the returned net consumes raw observations. Raises
    on an empty dataset or a NaN loss.
    """
    X = np.asarray(dataset[0], dtype=float)
    y = np.asarray(dataset[1], dtype=float).reshape(-1)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty or malformed dataset")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} observations for {y.shape[0]} actions")
    lr = float(hyper.get("lr", 0.01))
    epochs = int(hyper.get("epochs", 100))
    batch = int(hyper.get("batch", 64))
    seed = int(hyper.get("seed", 0))
    net = init_mlp(X.shape[1], tuple(arch), out_range, seed)
    if epochs == 0:
        return net, bc_loss_and_grads(list(net.weights), list(net.biases), X, y)[0]
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-9] = 1.0
    Xn = (X - mean) / std
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch):
            idx = order[start : start + batch]
            loss, gw, gb = bc_loss_and_grads(weights, biases, Xn[idx], y[idx])
            if not math.isfinite(loss):
                raise RuntimeError(f"training diverged: loss={loss}, lr={lr} likely too large")
            for i in range(len(weights)):
                weights[i] -= lr * gw[i]
                biases[i] -= lr * gb[i]
    # fold the standardization into the first layer: W (x-m)/s + b == (W/s) x + (b - W m/s)
    weights[0] = weights[0] / std
    biases[0] = biases[0] - weights[0] @ mean
    final = bc_loss_and_grads(weights, biases, X, y)[0]
    trained = MlpNet(tuple(weights), tuple(biases), net.out_lo, net.out_hi)
    return trained, final


def perturb_weights(net: MlpNet, scale: float, seed: int) -> MlpNet:
    """Corrupt a net by Gaussian weight noise, scale relative to each
    matrix's std. Used to produce deliberately imperfect controllers."""
    rng = np.random.default_rng(seed)
    weights = []
    for w in net.weights:
        sd = float(np.std(w)) or 1.0
        weights.append(w + scale * sd * rng.standard_normal(w.shape))
    biases = tuple(b.copy() for b in net.biases)
    return MlpNet(tuple(weights), biases, net.out_lo, net.out_hi)


def save_mlp(net: MlpNet, path) -> None:
    lines = ["# cpsguard-mlp v1"]
    lines.append("dims " + " ".join(str(d) for d in net.layer_dims))
    lines.append(f"range {net.out_lo!r} {net.out_hi!r}")
    for w, b in zip(net.weights, net.biases):
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mlp(path) -> MlpNet:
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    if not rows or not rows[0].startswith("dims ") or len(rows[0].split()) < 3:
        raise ValueError(f"{path}: not a weights file")
    dims = rows[0].split()[1:]
    if not all(x.isdecimal() for x in dims):
        raise ValueError(f"{path}: dims {' '.join(dims)} are not all nonnegative integers")
    dims = [int(x) for x in dims]
    if len(rows) < 2 or not rows[1].startswith("range ") or len(rows[1].split()) != 3:
        raise ValueError(f"{path}: missing the 'range <lo> <hi>' line after dims")

    def numbers(fields: list[str], what: str, n: int) -> list[float]:
        """`fields` as n numbers; a ValueError names the file and `what`."""
        try:
            values = [float(x) for x in fields]
        except ValueError as exc:
            raise ValueError(f"{path}: {what}: {exc}") from None
        if len(values) != n:
            raise ValueError(f"{path}: {what} has {len(values)} entries, dims {dims} need {n}")
        return values

    lo, hi = numbers(rows[1].split()[1:], "range", 2)
    weights, biases = [], []
    at = 2
    for layer, (a, b) in enumerate(zip(dims[:-1], dims[1:]), 1):
        if len(rows) < at + b + 1:
            raise ValueError(f"{path}: layer {layer} of dims {dims} needs {b + 1} rows (weights, then bias), "
                             f"found {len(rows) - at}")
        weights.append(np.array([numbers(rows[at + r].split(), f"weight row {r + 1} of layer {layer}", a)
                                 for r in range(b)]))
        biases.append(np.array(numbers(rows[at + b].split(), f"bias of layer {layer}", b)))
        at += b + 1
    try:
        return MlpNet(tuple(weights), tuple(biases), lo, hi)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class PidController(Record):
    """Discrete PID gains with an output clamp and an integral clamp (anti-windup)."""

    __slots__ = ("kp", "ki", "kd", "out_lo", "out_hi", "integral_limit")
    _defaults = {"integral_limit": 50.0}

    def __post_init__(self):
        for g in (self.kp, self.ki, self.kd):
            if not math.isfinite(g):
                raise ValueError("PID gains must be finite")
        if not self.integral_limit > 0:
            raise ValueError("integral_limit must be positive")


def pid_policy(pid: PidController, dt: float):
    """One run of the PID, acting every dt seconds: error -> kp*e + ki*int(e) + kd*de/dt,
    output and integral clamped. The closure holds the run's integral and previous error."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    kp, ki, kd, lo, hi, limit = pid.kp, pid.ki, pid.kd, pid.out_lo, pid.out_hi, pid.integral_limit
    integral, prev_error = 0.0, None

    def act(error: float) -> float:
        nonlocal integral, prev_error
        integral = min(max(integral + error * dt, -limit), limit)
        deriv = 0.0 if prev_error is None else (error - prev_error) / dt
        prev_error = error
        out = kp * error + ki * integral + kd * deriv
        return min(max(out, lo), hi)
    return act
