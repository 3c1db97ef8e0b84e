import math
from pathlib import Path

import numpy as np
import pytest
from oracles import mlp_forward_oracle

from cpsguard.controllers import (
    MlpNet,
    PidController,
    bc_loss_and_grads,
    init_mlp,
    load_mlp,
    mlp_forward,
    mlp_policy,
    perturb_weights,
    pid_policy,
    save_mlp,
    train_bc,
)
from cpsguard.plants import default_input_spec, default_pid, default_sim_config, make_plant, observe, simulate
from cpsguard.signals import random_signal

BENCH_NETS = sorted((Path(__file__).resolve().parent.parent / "bench" / "data").glob("*.txt"))


def straight_line_forward(net, obs):
    """Independent re-implementation of the matrix recursion."""
    h = list(map(float, obs))
    for layer in range(len(net.weights) - 1):
        w, b = net.weights[layer], net.biases[layer]
        h = [math.tanh(sum(w[r][c] * h[c] for c in range(len(h))) + b[r]) for r in range(w.shape[0])]
    w, b = net.weights[-1], net.biases[-1]
    out = sum(w[0][c] * h[c] for c in range(len(h))) + b[0]
    return min(max(out, net.out_lo), net.out_hi)


class TestForward:
    def test_zero_network_outputs_clamped_zero(self):
        net = MlpNet(
            weights=(np.zeros((4, 3)), np.zeros((1, 4))),
            biases=(np.zeros(4), np.zeros(1)),
            out_lo=-3.0,
            out_hi=2.0,
        )
        assert mlp_forward(net, np.array([1.0, -2.0, 0.5])) == 0.0

    def test_identity_like_single_layer(self):
        net = MlpNet(weights=(np.array([[1.0]]),), biases=(np.zeros(1),), out_lo=-10.0, out_hi=10.0)
        assert mlp_forward(net, np.array([2.0])) == pytest.approx(2.0)

    def test_matches_independent_recursion(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = init_mlp(4, (8, 6), (-3.0, 2.0), seed=int(rng.integers(1 << 30)))
            obs = rng.uniform(-2, 2, size=4)
            assert mlp_forward(net, obs) == pytest.approx(straight_line_forward(net, obs), abs=1e-12)

    def test_policy_matches_oracle_bit_for_bit(self):
        # the bound policy multiplies with each weight matrix's bound `ndarray.dot`, the oracle with `@`
        rng = np.random.default_rng(13)
        for trial in range(300):
            width = int(rng.integers(1, 6))
            dims = (width, *rng.integers(1, 25, size=int(rng.integers(1, 4))).tolist(), 1)
            weights = tuple(rng.normal(0.0, 1.0, size=(b, a)) for a, b in zip(dims[:-1], dims[1:]))
            biases = tuple(rng.normal(0.0, 1.0, size=b) for b in dims[1:])
            net = MlpNet(weights, biases, -50.0, 50.0)
            act = mlp_policy(net)
            for obs in rng.uniform(-100.0, 100.0, size=(20, width)):
                assert act(obs) == mlp_forward_oracle(net, obs), (trial, dims)
                assert act(tuple(obs.tolist())) == mlp_forward_oracle(net, obs)

    @pytest.mark.parametrize("path", BENCH_NETS, ids=lambda p: p.stem)
    def test_policy_matches_oracle_on_shipped_nets(self, path):
        net = load_mlp(path)
        act = mlp_policy(net)
        rng = np.random.default_rng(5)
        for obs in rng.uniform(-100.0, 100.0, size=(2000, net.layer_dims[0])):
            assert act(obs) == mlp_forward_oracle(net, obs)

    def test_dimension_mismatch(self):
        net = init_mlp(4, (8,), (-1.0, 1.0), seed=0)
        with pytest.raises(ValueError, match="shape"):
            mlp_forward(net, np.zeros(3))

    def test_output_clamped_to_range(self):
        net = MlpNet(weights=(np.array([[100.0]]),), biases=(np.zeros(1),), out_lo=-1.0, out_hi=1.0)
        assert mlp_forward(net, np.array([5.0])) == 1.0

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(9)
        net = init_mlp(3, (10, 10), (-50.0, 50.0), seed=1)
        bound = 1.0
        for w in net.weights:
            bound *= np.linalg.norm(w, 2)
        for _ in range(50):
            obs = rng.uniform(-1, 1, size=3)
            delta = rng.uniform(-1, 1, size=3) * 0.1
            diff = abs(mlp_forward(net, obs + delta) - mlp_forward(net, obs))
            assert diff <= bound * np.linalg.norm(delta) + 1e-12


class TestTrainBc:
    def test_linear_target_is_learned(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(600, 3))
        y = X @ np.array([0.5, -1.0, 0.25]) + 0.1
        net, loss = train_bc((X, y), (16,), {"lr": 0.05, "epochs": 200, "batch": 64, "seed": 4},
                             out_range=(-5.0, 5.0))
        assert loss < 1e-3

    def test_zero_epochs_returns_initialization(self):
        X = np.zeros((5, 2))
        y = np.zeros(5)
        net, _ = train_bc((X, y), (4,), {"epochs": 0, "seed": 7}, out_range=(-1.0, 1.0))
        init = init_mlp(2, (4,), (-1.0, 1.0), seed=7)
        for a, b in zip(net.weights, init.weights):
            np.testing.assert_array_equal(a, b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_bc((np.zeros((0, 2)), np.zeros(0)), (4,), {}, out_range=(-1, 1))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(100, 2))
        y = X[:, 0] - X[:, 1]
        hyper = {"lr": 0.05, "epochs": 20, "batch": 16, "seed": 9}
        n1, l1 = train_bc((X, y), (8,), hyper, out_range=(-2, 2))
        n2, l2 = train_bc((X, y), (8,), hyper, out_range=(-2, 2))
        assert l1 == l2
        for a, b in zip(n1.weights, n2.weights):
            np.testing.assert_array_equal(a, b)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = init_mlp(3, (6, 5), (-2.0, 2.0), seed=2)
        X = rng.uniform(-1, 1, size=(12, 3))
        y = rng.uniform(-1, 1, size=12)
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        _, gw, gb = bc_loss_and_grads(weights, biases, X, y)
        eps = 1e-6
        checked = 0
        while checked < 20:
            layer = int(rng.integers(len(weights)))
            if rng.random() < 0.7:
                r = int(rng.integers(weights[layer].shape[0]))
                c = int(rng.integers(weights[layer].shape[1]))
                weights[layer][r, c] += eps
                hi = bc_loss_and_grads(weights, biases, X, y)[0]
                weights[layer][r, c] -= 2 * eps
                lo = bc_loss_and_grads(weights, biases, X, y)[0]
                weights[layer][r, c] += eps
                numeric = (hi - lo) / (2 * eps)
                analytic = gw[layer][r, c]
            else:
                r = int(rng.integers(biases[layer].shape[0]))
                biases[layer][r] += eps
                hi = bc_loss_and_grads(weights, biases, X, y)[0]
                biases[layer][r] -= 2 * eps
                lo = bc_loss_and_grads(weights, biases, X, y)[0]
                biases[layer][r] += eps
                numeric = (hi - lo) / (2 * eps)
                analytic = gb[layer][r]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-4
            checked += 1

    def test_cloning_reproduces_pid_on_held_out_states(self):
        plant = make_plant("acc")
        cfg = default_sim_config(plant)
        spec = default_input_spec(plant, num_control_points=6, duration=cfg.horizon)
        pid = default_pid(plant)
        rng = np.random.default_rng(42)
        obs_rows, actions = [], []
        for _ in range(12):
            sig = random_signal(spec, rng)
            tr = simulate(plant, pid, sig, cfg)
            for i in range(0, len(tr) - 1, 2):
                state = tr.states[i, :4]
                obs = observe(plant, state, tr.inputs[i], i * cfg.dt)
                obs_rows.append(obs)
                actions.append(tr.actions[i])
        X = np.array(obs_rows)
        y = np.array(actions)
        split = int(0.8 * len(X))
        net, _ = train_bc((X[:split], y[:split]), (16, 16),
                          {"lr": 0.01, "epochs": 120, "batch": 64, "seed": 3},
                          out_range=plant.control_range)
        preds = np.array([mlp_forward(net, row) for row in X[split:]])
        width = plant.control_range[1] - plant.control_range[0]
        mse_normalized = float(np.mean(((preds - y[split:]) / width) ** 2))
        assert mse_normalized < 1e-2


class TestPid:
    def test_zero_error_zero_output(self):
        pid = PidController(kp=1.0, ki=0.5, kd=0.2, out_lo=-5, out_hi=5)
        assert pid_policy(pid, 0.1)(0.0) == 0.0

    def test_pure_proportional(self):
        pid = PidController(kp=1.0, ki=0.0, kd=0.0, out_lo=-5, out_hi=5)
        assert pid_policy(pid, 0.1)(0.5) == pytest.approx(0.5)

    def test_step_response_matches_recursion(self):
        pid = PidController(kp=2.0, ki=0.1, kd=0.0, out_lo=-100, out_hi=100, integral_limit=50)
        dt = 0.5
        act = pid_policy(pid, dt)
        integral = 0.0
        for _ in range(10):
            integral = min(max(integral + 1.0 * dt, -50), 50)
            want = 2.0 * 1.0 + 0.1 * integral
            assert act(1.0) == pytest.approx(want)

    def test_anti_windup_clamps_integral(self):
        pid = PidController(kp=0.0, ki=1.0, kd=0.0, out_lo=-100, out_hi=100, integral_limit=2.0)
        act = pid_policy(pid, 1.0)
        for _ in range(100):
            out = act(10.0)
        assert out == pytest.approx(2.0)
        # with ki=1 and kp=kd=0 the output is the integral: clamped, it unwinds at once
        assert act(-1.0) == pytest.approx(1.0)

    def test_output_clamped(self):
        pid = PidController(kp=10.0, ki=0.0, kd=0.0, out_lo=-1.0, out_hi=1.0)
        assert pid_policy(pid, 0.1)(5.0) == 1.0

    def test_each_policy_starts_fresh_and_the_pid_cannot_be_mutated(self):
        pid = PidController(kp=1.0, ki=1.0, kd=1.0, out_lo=-5, out_hi=5)
        used = pid_policy(pid, 0.1)
        first = used(1.0)
        assert used(1.0) != first  # the integral has grown and the derivative term is live
        assert pid_policy(pid, 0.1)(1.0) == first
        with pytest.raises(AttributeError, match="immutable"):
            pid.kp = 2.0
        assert not hasattr(pid, "integral") and not hasattr(pid, "prev_error")

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            pid_policy(PidController(kp=1.0, ki=0.0, kd=0.0, out_lo=-1.0, out_hi=1.0), 0.0)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        net = init_mlp(4, (6, 5), (-3.0, 2.0), seed=11)
        save_mlp(net, tmp_path / "net.txt")
        back = load_mlp(tmp_path / "net.txt")
        assert back.layer_dims == net.layer_dims
        assert (back.out_lo, back.out_hi) == (net.out_lo, net.out_hi)
        for a, b in zip(back.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        obs = np.array([0.3, -1.2, 0.7, 2.0])
        assert mlp_forward(back, obs) == mlp_forward(net, obs)

    @pytest.mark.parametrize("keep,missing", [
        (1, "range"), (2, r"layer 1 .* needs 7 rows .*, found 0"), (5, r"layer 1 .*, found 3"),
        (9, r"layer 2 .* needs 6 rows .*, found 0"), (14, r"layer 2 .*, found 5"),
        (16, r"layer 3 .* needs 2 rows .*, found 1"),
    ])
    def test_truncated_file_names_what_is_missing(self, tmp_path, keep, missing):
        # the file holds '# cpsguard-mlp v1', dims, range, then 7 + 6 + 2 rows for dims 4 6 5 1
        save_mlp(init_mlp(4, (6, 5), (-3.0, 2.0), seed=11), tmp_path / "net.txt")
        lines = (tmp_path / "net.txt").read_text().splitlines()
        assert len(lines) == 18
        (tmp_path / "cut.txt").write_text("\n".join(lines[: keep + 1]) + "\n")
        with pytest.raises(ValueError, match=missing) as err:
            load_mlp(tmp_path / "cut.txt")
        assert str(tmp_path / "cut.txt") in str(err.value)

    @pytest.mark.parametrize("line,fix,message", [
        (1, "dims 4 a 1", r"dims 4 a 1 are not all nonnegative integers"),
        (9, "0.5 0.25", r"bias of layer 1 has 2 entries, dims \[4, 6, 5, 1\] need 6"),
        (17, "0.5 0.25", r"bias of layer 3 has 2 entries, dims \[4, 6, 5, 1\] need 1"),
        (2, "range -3.0 abc", r"range: could not convert string to float: 'abc'"),
        (3, "0.5 abc 0.1 0.2", r"weight row 1 of layer 1: could not convert string to float: 'abc'"),
        (4, "0.5 0.25", r"weight row 2 of layer 1 has 2 entries, dims \[4, 6, 5, 1\] need 4"),
        (9, "0 0 0 0 0 x1", r"bias of layer 1: could not convert string to float: 'x1'"),
        (2, "range nan 1", r"output range \[nan, 1.0\] is not finite and non-empty"),
        (2, "range -3 inf", r"output range \[-3.0, inf\] is not finite and non-empty"),
        (2, "range 2 2", r"output range \[2.0, 2.0\] is not finite and non-empty"),
        (2, "range 2 -3", r"output range \[2.0, -3.0\] is not finite and non-empty"),
        (3, "0.5 nan 0.1 0.2", r"non-finite network parameter"),
    ])
    def test_bad_dims_or_bias_names_the_file(self, tmp_path, line, fix, message):
        save_mlp(init_mlp(4, (6, 5), (-3.0, 2.0), seed=11), tmp_path / "net.txt")
        lines = (tmp_path / "net.txt").read_text().splitlines()
        lines[line] = fix
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            load_mlp(tmp_path / "bad.txt")
        assert str(err.value).startswith(f"{tmp_path / 'bad.txt'}: ")

    def test_perturb_changes_weights_deterministically(self):
        net = init_mlp(3, (5,), (-1.0, 1.0), seed=0)
        a = perturb_weights(net, 0.5, seed=1)
        b = perturb_weights(net, 0.5, seed=1)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any(np.any(wa != w) for wa, w in zip(a.weights, net.weights))
