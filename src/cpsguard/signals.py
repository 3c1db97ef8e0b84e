"""Input signals, closed-loop traces, and their file format.

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

A trace file (format ``cpsguard-trace v2``) is an ASCII prelude, the
format line, ``# dt=<repr>``, an optional ``# config=<hash>`` and a row
of column names, followed directly by one .npy array of shape
(T, columns) and dtype ``<f8``, written and read by ``numpy.lib.format``
with ``allow_pickle=False``, so values read back bit for bit.
`trace_bytes` is the one writer (callers add extra columns: collected
traces ``rob``, monitored runs ``controller``) and `load_trace` the one
reader. It refuses, naming the file and, for a prelude fault, the line:
another format line (v1 text traces included), a missing or bad dt, a
column row without ``time`` first or without ``action``, and a body
that is not one non-empty 2-D ``<f8`` array, is truncated, is followed
by more bytes or differs in width from the column row, and a time
column other than row * dt, bit for bit. Input signals
are not persisted: a run is reproduced from its seed. All values are
immutable after construction and safe to share across concurrent runs.

Every JSON file the package writes is `json_text`: the bytes of
``json.dumps(doc, sort_keys=True, indent=1) + "\n"`` with the bulk
encoded in json's C encoder, which cannot indent. A container of
scalars is one C call with the separator of its depth. So is a list of
non-empty rows of one container type that hold scalars, then
``str.replace`` indents the row boundaries: an encoded string holds no
raw newline, so in rows of scalars a close bracket, the separator and
an open bracket meet only between rows. One bracket count, the list's
own bracket and one per row, sends every other list down the per-item
path: rows that nest a container (a classifier's weight list, a
monitored run's queries) and rows whose strings hold a bracket.
"""

from __future__ import annotations

import functools
import io
import json
import math
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .stl import Record

PIECEWISE_CONSTANT = "pconst"
PIECEWISE_LINEAR = "plinear"
_INTERPOLATIONS = (PIECEWISE_CONSTANT, PIECEWISE_LINEAR)

_T_TOL = 1e-9
_TRACE_FORMAT = "# cpsguard-trace v2"


class InputSpec(Record):
    """Search-space description for exogenous input signals."""

    __slots__ = ("dims", "ranges", "num_control_points", "duration", "interpolation")
    _defaults = {"interpolation": PIECEWISE_CONSTANT}

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


class InputSignal(Record):
    __slots__ = ("spec", "control_values")  # control_values: a read-only (dims, num_control_points) array

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


class Trace(Record):
    """Time-indexed record of one closed-loop run; times are i*dt. The arrays are read-only:
    states (T, len(channels)), actions (T,) and inputs (T, exo_dim)."""

    __slots__ = ("dt", "channels", "states", "actions", "inputs")

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


def trace_bytes(trace: Trace, config_hash: str | None = None,
                extra_columns: dict[str, np.ndarray] | None = None) -> bytes:
    """One trace file: the prelude, then every column as one .npy array;
    extra_columns append named data of trace length."""
    extra = extra_columns or {}
    for name, col in extra.items():
        if len(col) != len(trace):
            raise ValueError(f"extra column {name!r} has length {len(col)}, trace has {len(trace)}")
    lines = [_TRACE_FORMAT, f"# dt={float(trace.dt)!r}"]
    if config_hash is not None:
        lines.append(f"# config={config_hash}")
    exo_names = [f"input_{j}" for j in range(trace.inputs.shape[1])]
    lines.append(" ".join(["time", *trace.channels, "action", *exo_names, *extra]))
    times = np.arange(len(trace)) * float(trace.dt)
    body = np.column_stack([times, trace.states, trace.actions, trace.inputs, *extra.values()])
    out = io.BytesIO()
    np.lib.format.write_array(out, body.astype("<f8", copy=False), allow_pickle=False)
    return ("\n".join(lines) + "\n").encode() + out.getvalue()


def load_trace(path) -> tuple[Trace, dict[str, np.ndarray]]:
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
# JSON files


_CONTAINERS = (list, tuple, dict)


def json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1) + "\n"``, byte for byte, for a
    document of dicts with string keys, lists, tuples and scalars."""
    return _indented(doc, 0) + "\n"


@functools.cache
def _one_line(separator: str):
    """The one-line JSON of a value: sorted keys, `separator` between items, in C where json has it."""
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode
    encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", separator,
                            True, False, True)
    return lambda value: "".join(encode(value, 0))


def _indented(value, level: int) -> str:
    """The text of a value whose first line is indented by `level` spaces."""
    if not isinstance(value, _CONTAINERS) or not value:  # a scalar or an empty container: one line
        return _one_line(",")(value)
    inner, end = "\n" + " " * (level + 1), "\n" + " " * level
    if _flat(value):
        text = _one_line("," + inner)(value)
        return text[0] + inner + text[1:-1] + end + text[-1]
    kinds = set(map(type, value)) if isinstance(value, list | tuple) and all(value) else ()
    text = _rows_text(value, inner, end) if len(kinds) == 1 and issubclass(kinds.pop(), _CONTAINERS) else None
    if text is not None:
        return text
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(key)}: {_indented(v, level + 1)}" for key, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + end + "}"
    return "[" + inner + ("," + inner).join([_indented(v, level + 1) for v in value]) + end + "]"


def _flat(value) -> bool:
    """Whether a container holds no container."""
    items = value.values() if isinstance(value, dict) else value
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items)))


def _rows_text(rows, inner: str, end: str) -> str | None:
    """The text of a list of rows of one container type that hold scalars, written as one C
    call and a `str.replace` at the row boundaries; None where a row nests a container or a
    bracket in a string could pass for a row's."""
    if not _flat(rows[0]):  # the first row, before encoding all
        return None
    row = inner + " "
    text = _one_line("," + row)(rows)
    if text.count("[") + text.count("{") != len(rows) + 1:
        return None
    open_, close = text[1], text[-2]
    text = text[2:-2].replace(close + "," + row + open_, inner + close + "," + inner + open_ + row)
    return "[" + inner + open_ + row + text + inner + close + end + "]"
