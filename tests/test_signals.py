import io
import json

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


def npy_bytes(array, allow_pickle=False):
    out = io.BytesIO()
    np.lib.format.write_array(out, array, allow_pickle=allow_pickle)
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

    def test_v1_text_trace_refused_naming_the_format(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# cpsguard-trace v1\n# dt=0.1\ntime a b action input_0\n0.0 0.0 1.0 0.0 0.0\n")
        with pytest.raises(ValueError) as err:
            load_trace(path)
        assert str(err.value) == (f"{path}:1: not a cpsguard-trace v2 file: "
                                  "its first line is '# cpsguard-trace v1'")


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
