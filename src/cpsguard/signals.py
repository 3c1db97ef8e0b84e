"""Input signals, closed-loop traces, and their text formats.

An input signal holds a small matrix of control values, one row per
channel, stretched over a fixed duration. Two interpolations are
supported:

* ``pconst`` (piecewise-constant): value i is held on the left-aligned
  segment [i*duration/n, (i+1)*duration/n); sampling is right-continuous
  and only ever returns control values.
* ``plinear`` (piecewise-linear): the n points sit at i*duration/(n-1)
  (a single point means a constant signal) and samples ramp linearly
  between them.

A trace is the sampled record of one closed-loop run: named plant
channels, the held controller action, and the exogenous values seen at
each step, all on a fixed dt grid. Lookups use sampled semantics, i.e.
the nearest grid index, never inter-sample interpolation.

Trace files are plain text: ``#`` comment lines carrying dt and an
optional config hash, a header row of column names, then one line per
step. `trace_text` is the one writer of that format; callers add named
extra columns (collected traces their ``rob`` labeling robustness,
monitored runs their ``controller`` tags), and `load_trace` reads it
back. Input signals are not persisted: a run is reproduced from its
seed. All values are immutable after construction and safe to share
across concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PIECEWISE_CONSTANT = "pconst"
PIECEWISE_LINEAR = "plinear"
_INTERPOLATIONS = (PIECEWISE_CONSTANT, PIECEWISE_LINEAR)

_T_TOL = 1e-9


@dataclass(frozen=True)
class InputSpec:
    """Search-space description for exogenous input signals."""

    dims: int
    ranges: tuple[tuple[float, float], ...]
    num_control_points: int
    duration: float
    interpolation: str = PIECEWISE_CONSTANT

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple((float(lo), float(hi)) for lo, hi in self.ranges))
        if self.dims < 1 or len(self.ranges) != self.dims:
            raise ValueError(f"need one (lo, hi) range per channel: dims={self.dims}, got {len(self.ranges)}")
        for ch, (lo, hi) in enumerate(self.ranges):
            if not lo < hi:
                raise ValueError(f"channel {ch}: empty range [{lo}, {hi}]")
        if self.num_control_points < 1:
            raise ValueError("num_control_points must be >= 1")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if self.interpolation not in _INTERPOLATIONS:
            raise ValueError(f"unknown interpolation {self.interpolation!r}, expected one of {_INTERPOLATIONS}")


@dataclass(frozen=True)
class InputSignal:
    spec: InputSpec
    control_values: np.ndarray  # (dims, num_control_points)

    def __post_init__(self):
        vals = np.array(self.control_values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "control_values", vals)


def make_input(spec: InputSpec, control_values) -> InputSignal:
    """Validate a control-value matrix against its spec and wrap it."""
    vals = np.asarray(control_values, dtype=float)
    if vals.shape != (spec.dims, spec.num_control_points):
        raise ValueError(
            f"control values have shape {vals.shape}, expected {(spec.dims, spec.num_control_points)}"
        )
    for ch in range(spec.dims):
        lo, hi = spec.ranges[ch]
        for i in range(spec.num_control_points):
            v = vals[ch, i]
            if not (lo <= v <= hi) or not math.isfinite(v):
                raise ValueError(f"control value out of range: channel {ch}, index {i}: {v} not in [{lo}, {hi}]")
    return InputSignal(spec, vals)


def sample(signal: InputSignal, t) -> np.ndarray:
    """Interpolated signal value at time t in [0, duration], shape (dims,);
    for an array of times, one row per time."""
    spec = signal.spec
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((times >= -_T_TOL) & (times <= spec.duration + _T_TOL)):
        raise ValueError(f"sample time {t} outside [0, {spec.duration}]")
    times = np.clip(times, 0.0, spec.duration)
    n = spec.num_control_points
    vals = signal.control_values
    if n == 1 or spec.interpolation == PIECEWISE_CONSTANT:
        out = vals[:, np.minimum((times * n / spec.duration).astype(int), n - 1)].T
    else:
        pos = times * (n - 1) / spec.duration
        i = np.minimum(pos.astype(int), n - 2)
        out = (vals[:, i] + (pos - i) * (vals[:, i + 1] - vals[:, i])).T
    return out if np.ndim(t) else out[0]


def random_signal(spec: InputSpec, rng: np.random.Generator) -> InputSignal:
    """Uniform sample from the spec's box of control values."""
    lo = np.array([r[0] for r in spec.ranges])[:, None]
    hi = np.array([r[1] for r in spec.ranges])[:, None]
    vals = rng.uniform(lo, hi, size=(spec.dims, spec.num_control_points))
    return InputSignal(spec, vals)


@dataclass(frozen=True)
class Trace:
    """Time-indexed record of one closed-loop run; times are i*dt."""

    dt: float
    channels: tuple[str, ...]
    states: np.ndarray  # (T, len(channels))
    actions: np.ndarray  # (T,)
    inputs: np.ndarray  # (T, exo_dim)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        states = np.atleast_2d(np.array(self.states, dtype=float))
        actions = np.array(self.actions, dtype=float).reshape(-1)
        inputs = np.atleast_2d(np.array(self.inputs, dtype=float))
        if states.shape[0] < 1:
            raise ValueError("trace must contain at least one step")
        if states.shape[1] != len(self.channels):
            raise ValueError(f"{states.shape[1]} state columns for {len(self.channels)} channel names")
        if not (states.shape[0] == actions.shape[0] == inputs.shape[0]):
            raise ValueError(
                f"unequal lengths: states {states.shape[0]}, actions {actions.shape[0]}, inputs {inputs.shape[0]}"
            )
        for arr in (states, actions, inputs):
            arr.flags.writeable = False
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "inputs", inputs)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def end_time(self) -> float:
        return (len(self) - 1) * self.dt

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise KeyError(f"unknown channel {name!r}; trace has {self.channels}") from None

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.channel_index(name)]


def time_index(trace: Trace, t: float) -> int:
    """Nearest sampled index for time t; errors outside [0, end_time]."""
    if t < -_T_TOL or t > trace.end_time + _T_TOL:
        raise ValueError(f"time {t} outside trace range [0, {trace.end_time}]")
    return min(int(math.floor(t / trace.dt + 0.5)), len(trace) - 1)


def trace_text(trace: Trace, config_hash: str | None = None,
               extra_columns: dict[str, np.ndarray] | None = None) -> str:
    """The columnar text format; extra_columns append named data of trace
    length, integer columns written as integers and the rest as floats."""
    extra = extra_columns or {}
    for name, col in extra.items():
        if len(col) != len(trace):
            raise ValueError(f"extra column {name!r} has length {len(col)}, trace has {len(trace)}")
    lines = ["# cpsguard-trace v1", f"# dt={float(trace.dt)!r}"]
    if config_hash is not None:
        lines.append(f"# config={config_hash}")
    exo_names = [f"input_{j}" for j in range(trace.inputs.shape[1])]
    header = ["time", *trace.channels, "action", *exo_names, *extra.keys()]
    lines.append(" ".join(header))
    # tolist() yields Python floats and ints, whose repr is the format
    body = np.column_stack([trace.states, trace.actions, trace.inputs]).tolist()
    extras = [np.asarray(col).tolist() for col in extra.values()]
    for i, values in enumerate(body):
        lines.append(" ".join(map(repr, [float(i * trace.dt), *values, *(col[i] for col in extras)])))
    return "\n".join(lines) + "\n"


def load_trace(path) -> tuple[Trace, dict[str, np.ndarray]]:
    """Read the columnar format back; returns (trace, extra columns). A
    ValueError names the file (and the line) for a header without a
    leading time column or without an action column, a `# dt=` that is
    not a finite positive number, a row whose width differs from the
    header's, or a value that is not a number."""
    dt = None
    header = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            if fields[0].startswith("#"):
                body = line.strip()[1:].strip()
                if body.startswith("dt="):
                    try:
                        dt = float(body[3:])
                    except ValueError:
                        dt = math.nan
                    if not 0.0 < dt < math.inf:
                        raise ValueError(f"{path}:{lineno}: dt must be a finite positive number, got {body[3:]!r}")
            elif header is None:
                header = fields
                if header[0] != "time" or "action" not in header:
                    raise ValueError(f"{path}:{lineno}: the column row needs 'time' first and an 'action' column")
            elif len(fields) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(fields)} values for {len(header)} columns")
            else:
                rows.append(fields)
    if dt is None or header is None or not rows:
        raise ValueError(f"{path}: not a trace file (missing dt header, column row, or data)")
    try:
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    names = header
    act_col = names.index("action")
    channels = tuple(names[1:act_col])
    exo_cols = [j for j, n in enumerate(names) if n.startswith("input_")]
    known = {0, act_col, *exo_cols, *range(1, act_col)}
    extra_cols = [j for j in range(len(names)) if j not in known]
    trace = Trace(
        dt=dt,
        channels=channels,
        states=data[:, 1:act_col],
        actions=data[:, act_col],
        inputs=data[:, exo_cols] if exo_cols else np.zeros((data.shape[0], 0)),
    )
    extras = {names[j]: data[:, j] for j in extra_cols}
    return trace, extras
