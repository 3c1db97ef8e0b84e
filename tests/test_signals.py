import io
import json
import tokenize

import numpy as np
import pytest

from cpsguard.signals import (
    InputSpec,
    Trace,
    json_text,
    load_trace,
    make_input,
    sample,
    time_index,
    trace_bytes,
)
from oracles import load_trace_oracle


def spec_1ch(n=2, interp="pconst", duration=10.0, rng=(0.0, 10.0)):
    return InputSpec(dims=1, ranges=(rng,), num_control_points=n, duration=duration, interpolation=interp)


class TestInputSpec:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            InputSpec(dims=1, ranges=((5.0, 5.0),), num_control_points=2, duration=1.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            InputSpec(dims=1, ranges=((0, 1),), num_control_points=0, duration=1.0)
        with pytest.raises(ValueError):
            InputSpec(dims=1, ranges=((0, 1),), num_control_points=1, duration=0.0)


class TestMakeInput:
    def test_piecewise_constant_segments(self):
        sig = make_input(spec_1ch(), [[3.0, 7.0]])
        assert sample(sig, 2.0)[0] == 3.0  # first segment
        assert sample(sig, 7.5)[0] == 7.0  # second segment

    def test_piecewise_linear_midpoint(self):
        sig = make_input(spec_1ch(interp="plinear"), [[0.0, 10.0]])
        assert sample(sig, 5.0)[0] == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            make_input(spec_1ch(), [[1.0, 2.0, 3.0]])

    def test_out_of_range_reports_channel_and_index(self):
        with pytest.raises(ValueError, match="channel 0, index 1"):
            make_input(spec_1ch(), [[3.0, 11.0]])


class TestSample:
    def test_boundaries(self):
        sig = make_input(spec_1ch(), [[3.0, 7.0]])
        assert sample(sig, 0.0)[0] == 3.0
        assert sample(sig, 10.0)[0] == 7.0

    def test_linear_interpolation(self):
        sig = make_input(spec_1ch(interp="plinear", rng=(0.0, 10.0)), [[2.0, 4.0]])
        assert sample(sig, 2.5)[0] == pytest.approx(2.5)

    def test_outside_domain(self):
        sig = make_input(spec_1ch(), [[3.0, 7.0]])
        with pytest.raises(ValueError):
            sample(sig, -0.5)
        with pytest.raises(ValueError):
            sample(sig, 10.5)

    def test_pconst_right_continuous_and_takes_only_control_values(self):
        sig = make_input(spec_1ch(n=4), [[1.0, 2.0, 3.0, 4.0]])
        for t in np.linspace(0.0, 10.0, 101):
            assert sample(sig, float(t))[0] in (1.0, 2.0, 3.0, 4.0)
        # segment boundary at t=2.5 belongs to the right segment
        assert sample(sig, 2.5)[0] == 2.0


def trace_value(trace, channel, t):
    """Sampled value of a named channel at the grid point nearest t."""
    return trace.states[time_index(trace, t), trace.channel_index(channel)]


def save_trace(trace, path, config_hash=None, extra_columns=None):
    path.write_bytes(trace_bytes(trace, config_hash, extra_columns))


def npy_bytes(array, allow_pickle=False, version=None):
    out = io.BytesIO()
    np.lib.format.write_array(out, array, version=version, allow_pickle=allow_pickle)
    return out.getvalue()


def _unpickled():
    raise AssertionError("the trace body was unpickled")


class _Payload:
    def __reduce__(self):
        return _unpickled, ()


def small_trace():
    states = np.arange(12.0).reshape(6, 2)
    return Trace(dt=0.1, channels=("a", "b"), states=states,
                 actions=np.zeros(6), inputs=np.zeros((6, 1)))


class TestTrace:
    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            Trace(dt=0.1, channels=("a",), states=np.zeros((3, 1)),
                  actions=np.zeros(2), inputs=np.zeros((3, 1)))

    def test_trace_value_on_grid(self):
        tr = small_trace()
        assert trace_value(tr, "a", 0.1) == tr.states[1, 0]

    def test_trace_value_nearest_index(self):
        tr = small_trace()
        assert trace_value(tr, "a", 0.14) == tr.states[1, 0]

    def test_trace_value_beyond_end(self):
        tr = small_trace()
        with pytest.raises(ValueError):
            trace_value(tr, "a", 0.6)

    def test_unknown_channel(self):
        with pytest.raises(KeyError):
            trace_value(small_trace(), "zz", 0.0)

    def test_grid_times_exact(self):
        tr = small_trace()
        for i in range(len(tr)):
            assert trace_value(tr, "b", i * tr.dt) == tr.states[i, 1]

    def test_immutability(self):
        tr = small_trace()
        with pytest.raises(ValueError):
            tr.states[0, 0] = 99.0

    def test_save_load_roundtrip(self, tmp_path):
        tr = small_trace()
        save_trace(tr, tmp_path / "t.trace", config_hash="cafe")
        back, extras = load_trace(tmp_path / "t.trace")
        assert back.dt == tr.dt
        assert back.channels == tr.channels
        np.testing.assert_array_equal(back.states, tr.states)
        np.testing.assert_array_equal(back.actions, tr.actions)
        np.testing.assert_array_equal(back.inputs, tr.inputs)
        assert extras == {}

    def test_save_load_extra_columns(self, tmp_path):
        tr = small_trace()
        robs = np.linspace(-1, 1, len(tr))
        tags = np.array([0, 0, 1, 1, 0, 1])
        save_trace(tr, tmp_path / "t.trace", extra_columns={"rob": robs, "controller": tags})
        data = (tmp_path / "t.trace").read_bytes()
        prelude = data[: data.index(b"\x93NUMPY")].decode().splitlines()
        assert prelude[2].split()[-2:] == ["rob", "controller"]
        _, extras = load_trace(tmp_path / "t.trace")
        np.testing.assert_array_equal(extras["rob"], robs)
        np.testing.assert_array_equal(extras["controller"], tags)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1e308, 0.1, 1 / 3, np.nextafter(1.0, 2.0)]
        n = len(values)
        tr = Trace(dt=0.1, channels=("a", "b"), states=np.column_stack([values, values[::-1]]),
                   actions=np.array(values), inputs=np.array(values).reshape(n, 1))
        save_trace(tr, tmp_path / "t.trace", extra_columns={"rob": -np.array(values)})
        back, extras = load_trace(tmp_path / "t.trace")
        for got, want in ((back.states, tr.states), (back.actions, tr.actions), (back.inputs, tr.inputs),
                          (extras["rob"], -np.array(values))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("edit,row", [
        (lambda t: t[::-1], 0),
        (lambda t: np.where(np.arange(6) == 3, 0.3, t), 3),  # 3 * 0.1 is 0.30000000000000004
        (lambda t: np.where(np.arange(6) == 0, -0.0, t), 0),  # equal to 0.0, other bits
        (lambda t: np.where(np.arange(6) == 5, np.nan, t), 5),
    ], ids=["reversed", "rounded", "negative zero", "nan"])
    def test_time_column_other_than_row_times_dt_is_refused(self, tmp_path, edit, row):
        path = tmp_path / "t.trace"
        save_trace(small_trace(), path)
        data = path.read_bytes()
        start = data.index(b"\x93NUMPY")
        body = np.lib.format.read_array(io.BytesIO(data[start:]))
        body[:, 0] = edit(body[:, 0].copy())
        path.write_bytes(data[:start] + npy_bytes(body))
        with pytest.raises(ValueError) as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: row {row} of the time column is ")

    def test_object_body_refused_without_unpickling(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(small_trace(), path)
        data = path.read_bytes()
        body = np.empty((6, 5), dtype=object)
        body[:] = _Payload()
        path.write_bytes(data[: data.index(b"\x93NUMPY")] + npy_bytes(body, allow_pickle=True))
        with pytest.raises(ValueError, match="Object arrays cannot be loaded") as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("body", [
        np.zeros((6, 5), dtype="<i8"), np.zeros((6, 5), dtype=">f8"), np.zeros((6, 5), dtype="<f4"),
        np.zeros(30), np.zeros((6, 5, 1)), np.zeros((0, 5)),
    ], ids=["int64", "big-endian", "float32", "1-D", "3-D", "no rows"])
    def test_body_that_is_not_a_2d_f8_array_is_refused(self, tmp_path, body):
        path = tmp_path / "t.trace"
        save_trace(small_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\x93NUMPY")] + npy_bytes(body))
        with pytest.raises(ValueError, match="expected a 2-D <f8 array with at least one row") as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("rows", [7, 10**13])
    def test_header_declaring_more_rows_than_the_file_holds(self, tmp_path, rows):
        path = tmp_path / "t.trace"
        save_trace(small_trace(), path)
        old, new = b"'shape': (6, 5), }", f"'shape': ({rows}, 5), }}".encode()
        data = path.read_bytes()
        assert old + b" " * (len(new) - len(old)) in data  # the .npy header is padded with spaces
        path.write_bytes(data.replace(old + b" " * (len(new) - len(old)), new))
        with pytest.raises(ValueError) as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: body: ")

    @pytest.mark.parametrize("header", [
        b"{'descr': '<f8', 'fortran_order': False, 'shape': (6, ",
        b"1\n  2\n 3",
    ], ids=["cut short", "badly indented"])
    def test_header_numpy_cannot_tokenize_is_refused(self, tmp_path, header):
        # numpy's parser for Python 2 headers raises tokenize.TokenError and IndentationError
        path = tmp_path / "t.trace"
        save_trace(small_trace(), path)
        data = path.read_bytes()
        start = data.index(b"\x93NUMPY")
        body = data[start + 10 + int.from_bytes(data[start + 8:start + 10], "little"):]
        path.write_bytes(data[:start] + b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + body)
        with pytest.raises(ValueError) as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: body: ")

    def test_v1_text_trace_refused_naming_the_format(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# cpsguard-trace v1\n# dt=0.1\ntime a b action input_0\n0.0 0.0 1.0 0.0 0.0\n")
        with pytest.raises(ValueError) as err:
            load_trace(path)
        assert str(err.value) == (f"{path}:1: not a cpsguard-trace v2 file: "
                                  "its first line is '# cpsguard-trace v1'")


def read_outcome(load, path):
    """What `load` makes of a trace file: its arrays as (name, dtype, shape, bytes) and its dt and
    channels, or the message of the ValueError it raises."""
    try:
        trace, extras = load(path)
    except ValueError as exc:
        return str(exc)
    arrays = {"states": trace.states, "actions": trace.actions, "inputs": trace.inputs, **extras}
    return (trace.dt, trace.channels,
            [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()])


SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)


def random_trace_file(rng) -> bytes:
    """A trace file as `trace_bytes` writes it: 1-40 rows, 1-3 channels, 0-2 exogenous columns,
    some values NaN, infinite or -0.0, and any of the `rob` and `controller` extra columns."""
    rows = 1 if rng.random() < 0.25 else int(rng.integers(2, 41))

    def values(cols):
        out = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, cols))
        special = rng.random((rows, cols)) < 0.2
        out[special] = np.array(SPECIAL_VALUES)[rng.integers(len(SPECIAL_VALUES), size=int(special.sum()))]
        return out

    channels = ("x", "v_ego", "d_rel")[:int(rng.integers(1, 4))]
    trace = Trace(dt=float((0.1, 0.05, 1.0, 0.3)[rng.integers(4)]), channels=channels,
                  states=values(len(channels)), actions=values(1), inputs=values(int(rng.integers(0, 3))))
    extras = {}
    if rng.random() < 0.5:
        extras["rob"] = values(1)[:, 0]
    if rng.random() < 0.5:
        extras["controller"] = rng.integers(0, 2, rows).astype(float)
    return trace_bytes(trace, "cafe" if rng.random() < 0.5 else None, extras)


def header_edits(data):
    """The file with its .npy header's shape, length, version or fields edited, one way each."""
    start = data.index(b"\x93NUMPY")
    hlen = int.from_bytes(data[start + 8:start + 10], "little")
    header = data[start + 10:start + 10 + hlen]
    rows, cols = (int(v) for v in header[header.index(b"(") + 1:header.index(b")")].split(b", "))
    body = data[start + 10 + hlen:]

    def with_header(text, version=b"\x01\x00", length=None):
        text = text.ljust(hlen - 1) + b"\n" if length is None else text
        size = len(text) if length is None else length
        return data[:start] + b"\x93NUMPY" + version + size.to_bytes(2, "little") + text + body

    dict_text = header.rstrip()
    shape = f"({rows}, {cols})"
    edits = [(shape, new) for new in (f"({rows + 1}, {cols})", f"({rows - 1}, {cols})", f"({rows}, {cols + 1})",
                                      f"({rows}, {cols - 1})", f"(0{rows}, {cols})", f"({rows},{cols})",
                                      f"({rows * cols},)", f"({10**13}, {cols})", f"({cols}, {rows})",
                                      f"({'9' * 5000}, {cols})")]
    edits += [("'<f8'", "'>f8'"), ("'<f8'", "'<i8'"), ("'<f8'", "'|O'"), ("False", "True"), ("}", "'extra': 1, }"),
              ("'descr'", "'DESCR'")]
    for old, new in edits:
        yield with_header(dict_text.replace(old.encode(), new.encode()))
    yield with_header((dict_text + b"\n").ljust(hlen), length=hlen)  # the newline early, spaces after it
    yield with_header(header, length=hlen)  # unchanged, as a baseline
    for length in (hlen - 1, hlen + 1, hlen + 64, hlen - 64, 0, 65535):
        yield with_header(header, length=length)
    for version in (b"\x02\x00", b"\x01\x01", b"\x00\x00"):
        yield with_header(header, version=version)


class TestReaderOracle:
    """load_trace against the reader it replaced, oracles.load_trace_oracle: bit-equal arrays where
    it accepts, and the same refusal in the same words where it refuses."""

    def test_bit_equal_on_random_traces(self, tmp_path):
        rng = np.random.default_rng(26)
        path = tmp_path / "t.trace"
        one_row, exo_widths, extras = set(), set(), set()
        for _ in range(300):
            path.write_bytes(random_trace_file(rng))
            got = read_outcome(load_trace, path)
            assert not isinstance(got, str), got
            assert got == read_outcome(load_trace_oracle, path)
            rows, width = got[2][2][2]  # the inputs' shape
            one_row.add(rows == 1)
            exo_widths.add(width)
            extras.update(name for name, *_ in got[2][3:])
        assert one_row == {True, False} and exo_widths == {0, 1, 2} and extras == {"rob", "controller"}

    # numpy warns as it reads a header through its parser for Python 2 files, on either reader
    @pytest.mark.filterwarnings("ignore:Reading `.npy` or `.npz` file required additional header parsing")
    def test_same_verdict_on_mutated_files(self, tmp_path):
        rng = np.random.default_rng(27)
        path = tmp_path / "t.trace"
        accepted = refused = 0
        for n in range(6):
            data = random_trace_file(rng)
            start = data.index(b"\x93NUMPY")
            mutants = [data[:cut] for cut in range(0, len(data), 1 if n == 0 else 7)]
            for at in range(start):  # one prelude byte flipped
                for byte in (data[at] ^ 0x20, data[at] ^ 0xFF, ord("\n"), ord("#"), ord(" ")):
                    mutants.append(data[:at] + bytes([byte]) + data[at + 1:])
            for at in range(start, start + 10):  # the magic, version and length bytes
                mutants.append(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:])
            mutants.extend(header_edits(data))
            mutants.append(data + b"\0")
            for mutant in mutants:
                path.write_bytes(mutant)
                got = read_outcome(load_trace, path)
                try:
                    want = read_outcome(load_trace_oracle, path)
                except (SyntaxError, tokenize.TokenError):  # which the old reader let escape
                    want = got if got.startswith(f"{path}: body: ") else "a refusal naming the body"
                assert got == want, mutant[:start + 128]
                refused += isinstance(got, str)
                accepted += not isinstance(got, str)
        assert accepted > 100 and refused > 1000  # both verdicts are well represented


class TestHeaderPolicy:
    """A body under any .npy header numpy reads is read, bit for bit as under the header that
    `trace_bytes` writes; only that one is matched without numpy's header parser."""

    @pytest.mark.parametrize("rewrite", [
        lambda body: npy_bytes(body, version=(2, 0)),
        lambda body: npy_bytes(np.asfortranarray(body)),
    ], ids=["version 2.0", "fortran order"])
    def test_other_header_forms_load_bit_identically(self, tmp_path, rewrite):
        canonical, other = tmp_path / "canonical.trace", tmp_path / "other.trace"
        save_trace(small_trace(), canonical, extra_columns={"rob": np.linspace(-1.0, 1.0, 6)})
        data = canonical.read_bytes()
        start = data.index(b"\x93NUMPY")
        body = np.lib.format.read_array(io.BytesIO(data[start:]))
        other.write_bytes(data[:start] + rewrite(body))
        assert other.read_bytes() != data
        assert read_outcome(load_trace, other) == read_outcome(load_trace, canonical)

    def test_written_files_are_read_without_numpys_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(28)
        files = [random_trace_file(rng) for _ in range(20)]

        def numpys_reader(*args, **kwargs):
            raise AssertionError("a written file went to numpy's reader")

        monkeypatch.setattr(np.lib.format, "read_array", numpys_reader)
        path = tmp_path / "t.trace"
        for data in files:
            path.write_bytes(data)
            load_trace(path)

    def test_loaded_arrays_cannot_be_made_writable(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(small_trace(), path, extra_columns={"rob": np.zeros(6)})
        trace, extras = load_trace(path)
        for array in (trace.states, trace.actions, trace.inputs, extras["rob"]):
            with pytest.raises(ValueError):
                array.flags.writeable = True

    @pytest.mark.parametrize("make", [
        lambda base: base[:, :1],
        lambda base: np.frombuffer(bytearray(base.tobytes()), "<f8").reshape(base.shape)[:, :1],
    ], ids=["view of an array", "view of a bytearray"])
    def test_trace_copies_what_its_caller_can_still_write(self, make):
        base = np.zeros((4, 2))
        states = make(base)
        states.flags.writeable = False
        trace = Trace(dt=0.1, channels=("a",), states=states, actions=np.zeros(4), inputs=np.zeros((4, 1)))
        assert not np.shares_memory(trace.states, states)


# ---------------------------------------------------------------------------
# the JSON writer against json's own indenting encoder

TRICKY_STRINGS = ["", "SAFE", "\u0394t \u2265 0 \U0001f600", "],\n  [", "},\n {", "a\nb", "[", "{x}", 'q"uo\\te',
                  "%s %d", "\u2028"]


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def random_doc(rng, depth=3):
    """A random JSON document that leans on what the writer treats apart: flat
    containers, lists of flat rows, rows that nest, empty containers and odd scalars."""
    def scalar():
        return [lambda: int(rng.integers(-5, 10**6)), lambda: float(rng.normal() * 10.0 ** rng.integers(-5, 20)),
                lambda: [float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e16][rng.integers(6)],
                lambda: bool(rng.integers(2)), lambda: None,
                lambda: TRICKY_STRINGS[rng.integers(len(TRICKY_STRINGS))]][rng.integers(6)]()

    def flat(kind):
        n = int(rng.integers(0, 4))
        if kind == "list":
            return [scalar() for _ in range(n)]
        return {TRICKY_STRINGS[rng.integers(len(TRICKY_STRINGS))] + str(i): scalar() for i in range(n)}

    def value(level):
        roll = rng.integers(6) if level < depth else 0
        if roll == 0:
            return scalar()
        if roll == 1:
            return flat("list" if rng.integers(2) else "dict")
        if roll == 2:  # a table: rows of one kind, some holding a flat container of the other kind or nesting
            kind = "list" if rng.integers(2) else "dict"
            rows = [flat(kind) for _ in range(int(rng.integers(1, 6)))]
            for row in rows:
                if rng.integers(3) == 0:
                    nested = flat("dict" if kind == "list" else "list") if rng.integers(3) else value(level + 1)
                    row.append(nested) if kind == "list" else row.__setitem__("nested", nested)
            return rows
        if roll == 3:
            return [value(level + 1) for _ in range(int(rng.integers(0, 4)))]
        if roll == 4:
            return tuple(value(level + 1) for _ in range(int(rng.integers(0, 3))))
        return {f"k{i}": value(level + 1) for i in range(int(rng.integers(0, 4)))}

    return value(0)


class TestJsonText:
    def test_random_documents_match_json_dumps(self):
        rng = np.random.default_rng(5)
        for _ in range(1500):
            doc = random_doc(rng)
            assert json_text(doc) == dumps(doc)

    def test_result_documents_match_json_dumps(self):
        queries = [{"t": 0.1 * i, "verdict": "SAFE", "unknown": i == 2, "probability": None if i == 2 else 1 / 3}
                   for i in range(5)]
        docs = [
            {"runs": [{"seed": 7, "error": "acc: state diverged at t=1.250"},
                      {"seed": 8, "safety_frac": 1.0, "perf_frac": float("nan"), "switched_steps": 0,
                       "queries": queries},
                      {"seed": 9, "error": "\u0394 blew up,\n\tagain"}],
             "mean_safety_frac": None, "mean_perf_frac": float("inf"), "config_hash": "abc"},
            {"per_trial": [{"seed": 1, "error": "x"}, {"seed": 2, "success": True, "simulations": 3,
                                                       "best_robustness": -float("inf")}], "fsr": 1, "trials": 2},
            {"traces": [], "failures": [{"index": 0, "seed": 3, "error": "],\n  ["}],
             "labeling_spec": "G[0,5](x >= 0)"},
            {"rows": [["a", [1.5]], ["b", [2.5]]], "dicts": [{"w": [1, 2], "b": 0.5}, {"w": [3], "b": -0.5}]},
            {"rows": [[1, 2], []], "mixed": [[1, 2], {"a": 1}], "deep": [[[1, 2], [3]], [[4]]], "empty": [[], {}]},
            {"np": [np.float64(0.1), np.float64(2.0)], "tuple": (1, (2, 3)), "top": [None, True, False]},
            [], {}, "\u00e9", 5, -0.0,
        ]
        for doc in docs:
            assert json_text(doc) == dumps(doc)

    def test_rows_holding_flat_containers_match_json_dumps(self):
        classifiers = [{"cell": cell, "w": [0.5 * cell, -1.0, 1e-17], "b": 0.25} for cell in range(4)]
        docs = [
            {"classifiers": classifiers, "z": 1}, [classifiers],
            [{"w": [], "b": 1}, {"w": [2], "b": [], "c": [3, 4]}],
            [[1, {"a": 1, "b": [2]}]], [[1, {"a": 1}], [{}], [2, {"b": "x"}]],
            [{"w": [[1]]}], [{"w": [1], "s": "]"}], [{"w": [1], "z": "]"}], [{"w": ["]"]}], [{"w": [1], "s": "["}],
            [{"s": "a[", "t": "b]"}], [{"s": "a[", "t": "b]", "w": [2]}], [[{"a": "}"}, "}"]], [[{"a": 1}, "{"]],
            [{"w": ["x,\n  y"], "s": "{"}], [["{", {"a": "}"}]], [{"w": ({"a": 1},)}], [{"w": (1, 2)}],
        ]
        for doc in docs:
            assert json_text(doc) == dumps(doc)
