import numpy as np
import pytest

from cpsguard.signals import (
    InputSpec,
    Trace,
    load_trace,
    make_input,
    sample,
    time_index,
    trace_text,
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
    path.write_text(trace_text(trace, config_hash, extra_columns))


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
        save_trace(tr, tmp_path / "t.txt", config_hash="cafe")
        back, extras = load_trace(tmp_path / "t.txt")
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
        save_trace(tr, tmp_path / "t.txt", extra_columns={"rob": robs, "controller": tags})
        lines = (tmp_path / "t.txt").read_text().splitlines()
        assert lines[2].split()[-2:] == ["rob", "controller"]
        assert [line.split()[-1] for line in lines[3:]] == ["0", "0", "1", "1", "0", "1"]
        _, extras = load_trace(tmp_path / "t.txt")
        np.testing.assert_array_equal(extras["rob"], robs)
        np.testing.assert_array_equal(extras["controller"], tags)
