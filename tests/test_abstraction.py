import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    build_oracle,
    grid_bounds_oracle,
    indexed_oracle,
    labels_of,
    make_mdp,
    model_doc_oracle,
    new_runs_oracle,
    random_mdp,
    refine_oracle,
    separable_cell_pairs,
    slow_chain,
    state_ids_oracle,
    states_of,
    svm_active_set_solution,
    svm_brute_force,
    svm_objective,
    transitions_of,
    writer_oracle,
)

from cpsguard import abstraction, stl
from cpsguard.abstraction import (
    INIT_STATE,
    OUT_OF_BOUNDS,
    _LAMBDA,
    _NEG_COST,
    AbstractionConfig,
    PrecisenessReport,
    _grid_bounds,
    _new_runs,
    _reduce_batch,
    _split,
    _state_ids,
    _train_linear_svm,
    abstract_action,
    abstract_state_of,
    build_abstraction,
    cell_of,
    fit_pca,
    load_model,
    model_to_json,
    parse_state_id,
    preciseness,
    reduce,
    refine,
    state_id_str,
    tra_lab_text,
)
from cpsguard.controllers import load_mlp
from cpsguard.pmc import check_all, parse_pctl, reach_prob
from cpsguard.plants import default_input_spec, default_pid, default_sim_config, make_plant, simulate
from cpsguard.signals import Trace, random_signal

UNSAFE_MLP = Path(__file__).resolve().parent.parent / "bench" / "data" / "acc_unsafe.txt"


def trace_1d(values, actions=None, dt=1.0):
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    n = len(values)
    acts = np.zeros(n) if actions is None else np.asarray(actions, dtype=float)
    return Trace(dt=dt, channels=("x",), states=values, actions=acts, inputs=np.zeros((n, 1)))


def trace_nd(rows, dt=1.0):
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    channels = tuple(f"x{i}" for i in range(rows.shape[1]))
    return Trace(dt=dt, channels=channels, states=rows, actions=np.zeros(n), inputs=np.zeros((n, 1)))


class TestPca:
    def test_axis_aligned_variance(self):
        pts = np.array([[x, 0.0] for x in np.linspace(-2, 2, 9)])
        tr = fit_pca(pts, k=1)
        np.testing.assert_allclose(tr.components, [[1.0, 0.0]], atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        tr = fit_pca(pts, k=3)
        for q in pts[:10]:
            back = tr.components.T @ reduce(tr, q) + tr.mean
            np.testing.assert_allclose(back, q, atol=1e-8)

    def test_matches_closed_form_2x2_eigensolver(self):
        # independent oracle: roots of the characteristic polynomial
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(500, 2)) @ np.array([[2.0, 0.7], [0.0, 0.5]])
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = centered.T @ centered / len(pts)
        a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
        disc = math.sqrt(((a - c) / 2) ** 2 + b * b)
        lam1 = (a + c) / 2 + disc
        v = np.array([b, lam1 - a])
        v = v / np.linalg.norm(v)
        if v[np.nonzero(np.abs(v) > 1e-12)[0][0]] < 0:
            v = -v
        tr = fit_pca(pts, k=1)
        np.testing.assert_allclose(tr.components[0], v, atol=1e-8)

    def test_rank_deficient_warns_and_completes(self):
        pts = np.array([[x, 0.0] for x in np.linspace(0, 1, 7)])
        with pytest.warns(UserWarning, match="rank-deficient"):
            tr = fit_pca(pts, k=2)
        gram = tr.components @ tr.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)

    def test_reduce_at_mean_is_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 4))
        tr = fit_pca(pts, k=2)
        np.testing.assert_allclose(reduce(tr, tr.mean), np.zeros(2), atol=1e-12)

    def test_reduce_unit_component(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 4))
        tr = fit_pca(pts, k=2)
        out = reduce(tr, tr.mean + tr.components[0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-10)

    def test_reduce_matches_direct_arithmetic(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 5))
        tr = fit_pca(pts, k=3)
        q = rng.normal(size=5)
        want = np.array([float(np.dot(row, q - tr.mean)) for row in tr.components])
        np.testing.assert_allclose(reduce(tr, q), want, atol=1e-12)


class TestCellOf:
    def cfg(self, c=10, bounds=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))):
        return AbstractionConfig(k=len(bounds), c=c, bounds=bounds)

    def test_lower_corner(self):
        assert cell_of(self.cfg(), np.zeros(3)) == 0

    def test_upper_boundary_clamps(self):
        cfg = self.cfg(c=4, bounds=((0.0, 1.0),))
        assert cell_of(cfg, np.array([1.0])) == 3

    def test_mixed_radix_example(self):
        cfg = self.cfg(c=10)
        got = cell_of(cfg, np.array([0.25, 0.5, 0.99]))
        assert got == 2 + 5 * 10 + 9 * 100

    def test_out_of_bounds(self):
        assert cell_of(self.cfg(), np.array([0.5, 0.5, 1.5])) == OUT_OF_BOUNDS


class TestAbstractAction:
    def test_truncates_toward_zero(self):
        assert abstract_action(1.7) == 1
        assert abstract_action(-0.4) == 0
        assert abstract_action(3.0) == 3
        assert abstract_action(-2.9) == -2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            abstract_action(float("inf"))

    def test_rejects_outside_int64(self):
        assert abstract_action(-2.0**63) == -2**63
        with pytest.raises(ValueError, match="int64"):
            abstract_action(2.0**63)


def two_thirds_setup():
    """One trace whose transitions from the low cell split 2/3 vs 1/3."""
    values = [0.1, 1.1, 0.1, 1.1, 0.1, 2.1]
    robs = np.ones(6)
    trace = trace_1d(values, actions=np.full(6, 0.2))
    cfg = AbstractionConfig(k=1, c=4)
    model = build_abstraction([(trace, robs)], cfg)
    cell_a = abstract_state_of(model, np.array([0.1]))
    cell_b = abstract_state_of(model, np.array([1.1]))
    cell_c = abstract_state_of(model, np.array([2.1]))
    return model, cell_a, cell_b, cell_c


class TestBuild:
    def test_single_transition_probability_one(self):
        trace = trace_1d([0.0, 5.0])
        model = build_abstraction([(trace, np.ones(2))], AbstractionConfig(k=1, c=2))
        (key, dests), = transitions_of(model).items()
        assert list(dests.values()) == [1.0]

    def test_count_ratio_two_thirds(self):
        model, a, b, c = two_thirds_setup()
        assert a is not None and b is not None and c is not None and b != c
        dests = transitions_of(model)[(a, 0)]
        assert dests[b] == 2 / 3
        assert dests[c] == 1 / 3

    def test_label_uses_min_member_robustness(self):
        # two states land in one cell with robustness {0.5, -0.1}
        trace = trace_1d([0.1, 0.12, 5.0])
        robs = np.array([0.5, -0.1, 1.0])
        model = build_abstraction([(trace, robs)], AbstractionConfig(k=1, c=2))
        sid = abstract_state_of(model, np.array([0.1]))
        assert model.label[model.rank[sid]] == -1
        far = abstract_state_of(model, np.array([5.0]))
        assert model.label[model.rank[far]] == +1

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(5):
            n = 40
            tr = trace_nd(rng.normal(size=(n, 3)))
            tr = Trace(dt=1.0, channels=tr.channels, states=tr.states,
                       actions=rng.uniform(-3, 3, size=n), inputs=np.zeros((n, 1)))
            pairs.append((tr, rng.normal(size=n)))
        model = build_abstraction(pairs, AbstractionConfig(k=2, c=5))
        for dests in transitions_of(model).values():
            assert abs(sum(dests.values()) - 1.0) <= 1e-9

    def test_construction_states_all_map(self):
        rng = np.random.default_rng(6)
        tr = trace_nd(rng.normal(size=(60, 3)))
        model = build_abstraction([(tr, rng.normal(size=60))], AbstractionConfig(k=2, c=5))
        for row in tr.states:
            assert abstract_state_of(model, row) is not None

    def test_unvisited_cell_is_unknown(self):
        trace = trace_1d([0.0, 10.0])
        model = build_abstraction([(trace, np.ones(2))], AbstractionConfig(k=1, c=10))
        assert abstract_state_of(model, np.array([5.0])) is None

    def test_out_of_bounds_is_unknown(self):
        trace = trace_1d([0.0, 10.0])
        model = build_abstraction([(trace, np.ones(2))], AbstractionConfig(k=1, c=10))
        assert abstract_state_of(model, np.array([99.0])) is None

    def test_differing_start_cells_get_synthetic_init(self):
        t1 = trace_1d([0.0, 10.0])
        t2 = trace_1d([10.0, 0.0])
        model = build_abstraction([(t1, np.ones(2)), (t2, np.ones(2))], AbstractionConfig(k=1, c=2))
        assert model.initial == INIT_STATE
        dests = transitions_of(model)[(INIT_STATE, 0)]
        assert len(dests) == 2
        assert all(p == 0.5 for p in dests.values())

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            build_abstraction([], AbstractionConfig())

    def test_single_cell_warns(self):
        trace = trace_1d([0.5, 0.5, 0.5])
        with pytest.warns(UserWarning, match="single abstract state"):
            build_abstraction([(trace, np.ones(3))], AbstractionConfig(k=1, c=2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_action_rejected(self, bad):
        trace = trace_1d([0.0, 1.0, 2.0], actions=[0.5, bad, 0.0])
        with pytest.raises(ValueError, match="non-finite action"):
            build_abstraction([(trace, np.ones(3))], AbstractionConfig(k=1, c=2))

    @pytest.mark.parametrize("bad", [2.0**63, -2.0**64, 1e300])
    def test_action_outside_int64_rejected(self, bad):
        trace = trace_1d([0.0, 1.0, 2.0], actions=[bad, 0.5, 0.0])
        with pytest.raises(ValueError, match="int64"):
            build_abstraction([(trace, np.ones(3))], AbstractionConfig(k=1, c=2))

    def test_int64_extremes_kept(self):
        trace = trace_1d([0.0, 1.0, 2.0, 3.0], actions=[-2.0**63, 2.0**62, -2.5, 0.0])
        model = build_abstraction([(trace, np.ones(4))], AbstractionConfig(k=1, c=2))
        assert set(model.table.act.tolist()) == {-2**63, 2**62, -2}


def separable_cell_pairs_2d(n_cluster=60, rng=None):
    """2-D variant: the grid cuts the y axis, so the +/- clusters (which
    separate along x inside the same x bucket) produce two mixed cells."""
    rng = rng or np.random.default_rng(7)
    pos = np.column_stack([rng.uniform(0.0, 0.18, n_cluster), rng.uniform(-1, 1, n_cluster)])
    neg = np.column_stack([rng.uniform(0.28, 0.45, n_cluster), rng.uniform(-1, 1, n_cluster)])
    pad = np.array([[1.0, 0.0]])
    rows = np.vstack([pos, neg, pad])
    robs = np.concatenate([np.full(n_cluster, 0.5), np.full(n_cluster, -0.5), [1.0]])
    return [(trace_nd(rows), robs)]


class TestRefine:
    def test_pure_cell_not_split(self):
        trace = trace_1d([0.1, 0.2, 5.0])
        pairs = [(trace, np.array([1.0, 1.0, 1.0]))]
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        refined = refine(model, pairs)
        assert refined.classifiers == {}
        assert refined.table.order == model.table.order

    def test_single_member_cell_not_split(self):
        trace = trace_1d([0.1, 5.0])
        pairs = [(trace, np.array([-1.0, 1.0]))]
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        refined = refine(model, pairs)
        assert refined.classifiers == {}

    def test_variance_threshold_blocks_split(self):
        pairs = separable_cell_pairs()
        cfg = AbstractionConfig(k=1, c=2, variance_threshold=1e9)
        model = build_abstraction(pairs, cfg)
        refined = refine(model, pairs)
        assert refined.classifiers == {}

    def test_separable_cell_splits_with_pure_sides(self):
        pairs = separable_cell_pairs()
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        refined = refine(model, pairs)
        assert len(refined.classifiers) == 1
        assert len(refined.table.order) == len(model.table.order) + 1
        # training purity: every member routes to a side matching its sign
        trace, robs = pairs[0]
        for row, rob in zip(trace.states, robs):
            sid = abstract_state_of(refined, row)
            assert sid is not None
            assert refined.label[refined.rank[sid]] == (1 if rob >= 0 else -1)

    def test_2d_mixed_cells_split_pure(self):
        pairs = separable_cell_pairs_2d()
        model = build_abstraction(pairs, AbstractionConfig(k=2, c=2))
        refined = refine(model, pairs)
        assert len(refined.classifiers) >= 1
        trace, robs = pairs[0]
        for row, rob in zip(trace.states, robs):
            sid = abstract_state_of(refined, row)
            assert refined.label[refined.rank[sid]] == (1 if rob >= 0 else -1)

    def test_split_classes_follow_the_label_threshold(self):
        # every member is positive, but the clusters fall on both sides of the label threshold 0.5
        trace, robs = separable_cell_pairs()[0]
        pairs = [(trace, robs + 0.75)]
        assert np.all(pairs[0][1] > 0.0)
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2, label_threshold=0.5))
        refined = refine(model, pairs)
        assert len(refined.classifiers) == 1
        for row, rob in zip(trace.states, pairs[0][1]):
            assert refined.label[refined.rank[abstract_state_of(refined, row)]] == (1 if rob >= 0.5 else -1)
        assert_same_model(refined, refine_oracle(model, pairs))

    def test_refinement_never_decreases_states(self):
        rng = np.random.default_rng(8)
        tr = trace_nd(rng.normal(size=(80, 3)))
        pairs = [(tr, rng.normal(size=80))]
        model = build_abstraction(pairs, AbstractionConfig(k=2, c=3))
        refined = refine(model, pairs)
        assert len(refined.table.order) >= len(model.table.order)
        for dests in transitions_of(refined).values():
            assert abs(sum(dests.values()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("row", [[np.nan, np.nan, np.nan], [0.5, np.nan, 0.5], [0.5, 0.5, np.inf]])
    def test_non_finite_row_rejected(self, row):
        rng = np.random.default_rng(8)
        pairs = [(trace_nd(rng.normal(size=(40, 3))), rng.normal(size=40))]
        model = build_abstraction(pairs, AbstractionConfig(k=2, c=3))
        states = rng.normal(size=(5, 3))
        states[3] = row
        bad = pairs + [(trace_nd(states), rng.normal(size=5))]
        with pytest.raises(ValueError, match=r"trace 1: non-finite state in row 3"):
            build_abstraction(bad, AbstractionConfig(k=2, c=3))
        with pytest.raises(ValueError, match=r"trace 1: non-finite state in row 3"):
            refine(model, bad)
        with pytest.raises(ValueError, match=r"trace 1: non-finite state in row 3"):
            preciseness(model, bad)


def closed_loop_pairs(name, kind, spec, seeds):
    """Traces of a real closed loop with their labeling robustness."""
    plant = make_plant(name)
    cfg = default_sim_config(plant)
    controller = load_mlp(UNSAFE_MLP) if kind == "mlp" else default_pid(plant)
    inputs = default_input_spec(plant, num_control_points=6, duration=cfg.horizon)
    phi = stl.parse_stl(spec)
    pairs = []
    for seed in seeds:
        trace = simulate(plant, controller, random_signal(inputs, np.random.default_rng(seed)), cfg)
        pairs.append((trace, stl.labeling_robustness(trace, phi)))
    return pairs


def suffix(pair, start):
    trace, robs = pair
    return (Trace(dt=trace.dt, channels=trace.channels, states=trace.states[start:],
                  actions=trace.actions[start:], inputs=trace.inputs[start:]), robs[start:])


def stretched(pair, mean, factor):
    """Every third row pushed `factor` times further from the mean, which
    takes it out of the grid built without it."""
    trace, robs = pair
    states = trace.states.copy()
    states[::3] = mean + factor * (states[::3] - mean)
    return (Trace(dt=trace.dt, channels=trace.channels, states=states,
                  actions=trace.actions, inputs=trace.inputs), robs)


CLOSED_LOOPS = {
    "acc-mlp": ("acc", "mlp", "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)", AbstractionConfig(k=3, c=10)),
    "cstr-pid": ("cstr", "pid", "G[0,25]((abs(error) <= 0.3) U[0,5] (abs(error) <= 0.15))",
                 AbstractionConfig(k=2, c=20)),
}


@pytest.fixture(scope="module", params=sorted(CLOSED_LOOPS))
def closed_loop(request):
    """Build pairs (traces cut to start at several cells) and refine pairs
    (the same plus a trace partly outside the grid) of one closed loop."""
    name, kind, spec, cfg = CLOSED_LOOPS[request.param]
    pairs = closed_loop_pairs(name, kind, spec, range(8))
    pairs = [suffix(pair, start) for pair, start in zip(pairs, [0, 0, 40, 40, 80, 120, 160, 200])]
    model = build_abstraction(pairs, cfg)
    more = pairs + [stretched(pairs[0], model.pca.mean, 40.0)]
    return pairs, more, cfg


def assert_same_model(model, expected):
    assert states_of(model) == states_of(expected)
    assert transitions_of(model) == transitions_of(expected)
    assert model.initial == expected.initial
    assert model.classifiers.keys() == expected.classifiers.keys()
    for cell, (w, b) in model.classifiers.items():
        assert np.array_equal(w, expected.classifiers[cell][0]) and b == expected.classifiers[cell][1]


def svm_cell(n, pos_share):
    """A cell of n members in 3-D, on scales 3, 1 and 0.2, the positive ones shifted along x."""
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 3)) * [3.0, 1.0, 0.2]
    y = np.where(rng.random(n) < pos_share, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    X[y > 0, 0] += 0.5
    return X, y


class TestAbstractionOracles:
    """The array counting and routing against the per-row dict counting of oracles.py, and
    the Newton SVM against its optimality conditions and an enumeration of active sets."""

    def test_svm_matches_brute_force_on_small_cells(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            X = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-1, 1, k)
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[:2] = [1.0, -1.0]
            X[y > 0, 0] += 3.0 * (trial % 3)  # overlapping, touching and separable classes
            for neg_cost in (1.0, _NEG_COST):
                w, b = _train_linear_svm(X, y, _LAMBDA, neg_cost)
                w_ref, b_ref = svm_brute_force(X, y, _LAMBDA, neg_cost)
                z, z_ref = np.append(w, b), np.append(w_ref, b_ref)
                assert np.max(np.abs(z - z_ref)) <= 1e-9 * max(1.0, np.max(np.abs(z_ref))), (trial, neg_cost)

    @pytest.mark.parametrize("n", [5, 63, 64, 65, 388])
    @pytest.mark.parametrize("pos_share", [0.5, 0.1])
    def test_svm_is_optimal(self, n, pos_share):
        X, y = svm_cell(n, pos_share)
        w, b = _train_linear_svm(X, y, _LAMBDA, _NEG_COST)
        margin = y * (X @ w + b)
        active = margin < 1.0
        # the gradient vanishes, relative to the terms that cancel in it
        cost = np.where(y > 0, 1.0, _NEG_COST)
        pulls = (2.0 / n * cost * (1.0 - margin) * y * active)[:, None] * np.hstack([X, np.ones((n, 1))])
        gradient = np.append(_LAMBDA * w, 0.0) - pulls.sum(axis=0)
        scale = np.linalg.norm(np.append(_LAMBDA * np.abs(w), 0.0) + np.abs(pulls).sum(axis=0))
        assert np.linalg.norm(gradient) <= 1e-8 * scale
        # the active set is stable: its own solution is the answer and keeps it
        w_set, b_set = svm_active_set_solution(X, y, active, _LAMBDA, _NEG_COST)
        assert np.array_equal(y * (X @ w_set + b_set) < 1.0, active)
        assert np.max(np.abs(np.append(w_set - w, b_set - b))) <= 1e-9 * max(1.0, np.max(np.abs(w)), abs(b))
        # no perturbed point has a lower objective
        rng = np.random.default_rng(n + 1)
        best = svm_objective(X, y, w, b, _LAMBDA, _NEG_COST)
        for direction in np.vstack([np.eye(4), rng.normal(size=(4, 4))]):
            for step in (1e-2, -1e-2, 1e-4, -1e-4):
                z = np.append(w, b) + step * direction
                assert svm_objective(X, y, z[:3], z[3], _LAMBDA, _NEG_COST) >= best

    def test_svm_step_that_lands_with_every_margin_at_least_1(self, monkeypatch):
        # a separable cell whose line search stops where the last members leave the loss, so
        # that no active set is left to solve
        X, y = np.array([[2.9, 1.7], [-0.9, 2.1], [5.0, -0.4], [3.0, 1.0]]), np.array([1.0, -1.0, 1.0, 1.0])
        searched_from = []
        search = abstraction._line_search
        monkeypatch.setattr(abstraction, "_line_search", lambda margin, *rest: searched_from.append(margin.min()) or
                            search(margin, *rest))
        w, b = _train_linear_svm(X, y, _LAMBDA, _NEG_COST)
        assert max(searched_from) >= 1.0
        w_ref, b_ref = svm_brute_force(X, y, _LAMBDA, _NEG_COST)
        assert np.max(np.abs(np.append(w - w_ref, b - b_ref))) <= 1e-9 * max(1.0, np.max(np.abs(w_ref)))

    def test_split_leaves_no_negative_member_on_the_plus_side(self):
        rng = np.random.default_rng(12)
        cases = {True: 0, False: 0}  # whether some positive member outscores every negative one
        for trial in range(200):
            n = int(rng.integers(2, 120))
            X = rng.normal(size=(n, 3))
            y = np.where(rng.random(n) < rng.uniform(0.1, 0.9), 1.0, -1.0)
            y[:2] = [1.0, -1.0]
            X[y > 0, 0] += rng.uniform(-1.0, 4.0)
            w, b = _split(X, y)
            w_fit, b_fit = _train_linear_svm(X, y, _LAMBDA, _NEG_COST)
            assert np.array_equal(w, w_fit)
            scores = X @ w
            top_negative = scores[y < 0].max()
            pure = bool(np.any(scores[y > 0] > top_negative))
            cases[pure] += 1
            if pure:
                plus = scores + b >= 0.0
                assert not np.any(plus & (y < 0))
                assert np.all(plus[(y > 0) & (scores > top_negative)])
            else:
                assert b == b_fit
        assert min(cases.values()) >= 10

    def test_svm_class_mean_fallback(self):
        X = np.zeros((70, 2))
        y = np.where(np.arange(70) % 3 == 0, 1.0, -1.0)
        with pytest.warns(UserWarning, match="class-mean"):
            w, b = _train_linear_svm(X, y, _LAMBDA, _NEG_COST)
        assert np.array_equal(w, np.zeros(2)) and b == 0.0  # the hyperplane between two equal class means

    def test_nan_robustness_labels_match(self):
        # as the running minimum did: a NaN first member keeps a state's
        # minimum NaN (label +1), a later NaN member is passed over
        trace = trace_1d([0.1, 0.12, 5.0, 5.1, 5.05, 9.9, 9.95])
        robs = np.array([np.nan, -1.0, 1.0, np.nan, -1.0, 1.0, 1.0])
        model = build_abstraction([(trace, robs)], AbstractionConfig(k=1, c=3))
        assert_same_model(model, build_oracle([(trace, robs)], AbstractionConfig(k=1, c=3)))
        assert [labels_of(model)[abstract_state_of(model, np.array([v]))] for v in (0.1, 5.0)] == [1, -1]

    def test_single_row_traces_match(self):
        pairs = [(trace_1d([v]), np.array([r])) for v, r in ((0.1, 1.0), (5.0, -1.0), (0.2, 0.5))]
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        assert_same_model(model, build_oracle(pairs, AbstractionConfig(k=1, c=2)))
        assert list(transitions_of(model)) == [(INIT_STATE, 0)]

    def test_build_and_refine_match(self, closed_loop):
        pairs, more, cfg = closed_loop
        model = build_abstraction(pairs, cfg)
        expected = build_oracle(pairs, cfg)
        assert_same_model(model, expected)
        assert model.initial == INIT_STATE
        once = refine(model, pairs)
        expected = refine_oracle(expected, pairs)
        assert_same_model(once, expected)
        assert once.classifiers
        # a second pass routes through the first pass's hyperplanes
        twice = refine(once, pairs)
        assert_same_model(twice, refine_oracle(expected, pairs))
        # a trace partly outside the grid is refused, naming its first such row
        with pytest.raises(ValueError, match=f"trace {len(pairs)}: row 0 lies outside the grid"):
            refine(once, more)

    def test_state_ids_match_per_row_mapping(self, closed_loop):
        pairs, more, _ = closed_loop
        model = refine(build_abstraction(pairs, AbstractionConfig(k=2, c=6)), pairs)
        assert model.classifiers
        for trace, _ in more:
            R = _reduce_batch(model.pca, trace.states)
            assert _state_ids(model.config, model.classifiers, R) == state_ids_oracle(model.config, model.classifiers, R)

    def test_state_ids_on_the_hyperplane(self):
        """Rows whose margin is zero as `_route` computes it: the batch dot
        product rounds differently for some of them."""
        rng = np.random.default_rng(3)
        config = AbstractionConfig(k=3, c=2, bounds=((0.0, 1.0),) * 3)
        for _ in range(50):
            R = rng.uniform(0.0, 0.5, size=(40, 3))
            w = rng.normal(size=3)
            classifiers = {0: (w, -float(w @ R[int(rng.integers(40))]))}
            assert _state_ids(config, classifiers, R) == state_ids_oracle(config, classifiers, R)

    def test_state_ids_agree_with_abstract_state_of(self, closed_loop):
        pairs, more, cfg = closed_loop
        model = refine(build_abstraction(pairs, cfg), pairs)
        unknown = 0
        for trace, _ in more:
            sids = _state_ids(model.config, model.classifiers, _reduce_batch(model.pca, trace.states))
            for row, sid in zip(trace.states, sids):
                scalar = abstract_state_of(model, row)
                if scalar is None:
                    unknown += 1
                    assert sid not in model.rank
                else:
                    assert scalar == sid
        assert unknown  # the stretched trace leaves the grid


    def test_grid_bounds_match_per_dim_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            R = rng.normal(size=(int(rng.integers(1, 30)), int(rng.integers(1, 4)))) * 10.0 ** rng.integers(-8, 8)
            if rng.integers(2):
                R[:, 0] = R[0, 0]  # a degenerate dim
            if rng.integers(3) == 0:
                R[:, -1] = rng.choice([0.0, -0.0], size=len(R))
            assert repr(_grid_bounds(R)) == repr(grid_bounds_oracle(R))

    def test_new_runs_match_per_row_loop(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 3, 40, 200):
            a, b = np.sort(rng.integers(0, 5, n)), rng.integers(0, 2, n)
            for keys in ((a,), (a, b), (b, a, b)):
                assert _new_runs(*keys).tolist() == new_runs_oracle(*keys)


class TestPreciseness:
    def test_pure_construction_set_is_exact(self):
        trace = trace_1d([0.1, 5.0, 0.1, 5.0])
        pairs = [(trace, np.array([1.0, 1.0, 1.0, 1.0]))]
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        report = preciseness(model, pairs)
        assert report.matched_fraction == 1.0
        assert report.unknown_fraction == 0.0

    def test_mixed_cell_mismatch_counted(self):
        trace = trace_1d([0.1, 0.12])
        pairs = [(trace, np.array([0.5, -0.1]))]
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        # fresh state in the -1 cell with positive robustness mismatches
        fresh = [(trace_1d([0.11]), np.array([0.5]))]
        report = preciseness(model, fresh)
        assert report.n_known == 1
        assert report.matched_fraction == 0.0

    def test_unknown_states_reported_separately(self):
        trace = trace_1d([0.0, 10.0])
        model = build_abstraction([(trace, np.ones(2))], AbstractionConfig(k=1, c=10))
        fresh = [(trace_1d([5.0, 0.0]), np.array([1.0, 1.0]))]
        report = preciseness(model, fresh)
        assert report.n_unknown == 1
        assert report.n_known == 1
        assert report.unknown_fraction == 0.5
        assert preciseness(model, []) == PrecisenessReport(0.0, 0.0, 0, 0, 0)  # no traces


class TestSerialization:
    def test_state_id_roundtrip(self):
        for sid in [(3, 0), (7, 1), (7, -1), INIT_STATE]:
            assert parse_state_id(state_id_str(sid)) == sid

    def test_model_roundtrip_bit_identical(self, tmp_path):
        pairs = separable_cell_pairs()
        model = refine(build_abstraction(pairs, AbstractionConfig(k=1, c=2)), pairs)
        (tmp_path / "m.json").write_text(model_to_json(model))
        back = load_model(tmp_path / "m.json")
        assert model_to_json(back) == model_to_json(model)

    def test_rebuild_is_deterministic(self):
        rng = np.random.default_rng(9)
        tr = trace_nd(rng.normal(size=(100, 3)))
        pairs = [(tr, rng.normal(size=100))]
        m1 = refine(build_abstraction(pairs, AbstractionConfig(k=2, c=4)), pairs)
        m2 = refine(build_abstraction(pairs, AbstractionConfig(k=2, c=4)), pairs)
        assert model_to_json(m1) == model_to_json(m2)

    def test_bad_state_ids_are_refused(self):
        for text in ("c-1", "c01", "c5+-", "c", "init+", "x5", "c5 ", "c1\nc2"):
            with pytest.raises(ValueError, match="bad state id"):
                parse_state_id(text)

    def test_model_file_is_json_dumps_of_its_document(self):
        """The writer against json's indenting encoder on the document the dict views give:
        random MDPs, slow chains, a refined model and one with the synthetic init state."""
        pairs = separable_cell_pairs()
        refined = refine(build_abstraction(pairs, AbstractionConfig(k=1, c=2)), pairs)
        assert refined.classifiers
        starts = build_abstraction([(trace_1d([0.0, 10.0]), np.ones(2)), (trace_1d([10.0, 0.0]), -np.ones(2))],
                                   AbstractionConfig(k=1, c=2))
        assert starts.initial == INIT_STATE and not starts.classifiers
        for model in (*table_models(), refined, starts):
            for config_hash in (None, "0123abcd"):
                want = json.dumps(model_doc_oracle(model, config_hash), sort_keys=True, indent=1) + "\n"
                assert model_to_json(model, config_hash) == want

    def test_closed_loop_model_files_are_json_dumps(self, closed_loop, tmp_path):
        pairs, _, cfg = closed_loop
        built = build_abstraction(pairs, cfg)
        for model in (built, refine(built, pairs)):
            text = model_to_json(model, "h")
            assert text == json.dumps(model_doc_oracle(model, "h"), sort_keys=True, indent=1) + "\n"
            (tmp_path / "m.json").write_text(text)
            assert model_to_json(load_model(tmp_path / "m.json"), "h") == text

    def test_pca_orthonormal_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        tr = trace_nd(rng.normal(size=(50, 4)))
        pairs = [(tr, rng.normal(size=50))]
        model = build_abstraction(pairs, AbstractionConfig(k=3, c=3))
        (tmp_path / "m.json").write_text(model_to_json(model))
        back = load_model(tmp_path / "m.json")
        gram = back.pca.components @ back.pca.components.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_tra_lab_export(self, tmp_path):
        model, a, b, c = two_thirds_setup()
        tra, lab = tra_lab_text(model)
        (tmp_path / "m.tra").write_text(tra)
        (tmp_path / "m.lab").write_text(lab)
        tra_lines = (tmp_path / "m.tra").read_text().splitlines()
        n_states, n_choices, n_trans = (int(x) for x in tra_lines[0].split())
        assert n_states == len(model.table.order)
        assert n_trans == len(tra_lines) - 1
        rows = [line.split() for line in tra_lines[1:]]
        keys = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            float(r[3])  # probability column parses
        lab_lines = (tmp_path / "m.lab").read_text().splitlines()
        assert lab_lines[0] == '0="init" 1="rob=-1" 2="rob=+1"'
        assert len(lab_lines) == 1 + len(model.table.order)


# ---------------------------------------------------------------------------
# the transition table: one per model, read by the checker and the writers

QUERIES = [
    'P>0.8 [ F<=10 "rob=-1" ]',
    'P>0.5 [ X "rob=-1" ]',
    'P<0.1 [ G "rob=+1" ]',
    'P<=0.9 [ ("rob=+1") U<=3 ("rob=-1") ]',
    'true & !("rob=-1")',
    'P>=0 [ ("rob=+1") U ("rob=-1") ]',
    'P>0.5 [ F "rob=-1" ]',
    'P>0.5 [ "rob=+1" U "rob=-1" ]',
]


def table_models():
    """300 random MDPs, half with self-loop end components, and slow chains."""
    rng = np.random.default_rng(2024)
    for i in range(300):
        yield random_mdp(rng, self_loop=0.3 if i % 2 else 0.0)
    yield slow_chain(30)
    yield slow_chain(30, self_loops=True)


def indexed_arrays(model):
    """The table's choice columns under `indexed_oracle`'s names."""
    t = model.table
    return {"tr_group": t.choice, "tr_dst": t.dst, "tr_prob": t.prob, "group_src": t.choice_src,
            "run_start": t.first_choice}


def assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


class TestTransitionTable:
    def test_roundtrip_keeps_every_checker_array(self, tmp_path):
        path = tmp_path / "m.json"
        for model in table_models():
            path.write_text(model_to_json(model))
            loaded = load_model(path)
            assert_same_arrays(indexed_arrays(loaded), indexed_arrays(model))
            oracle = indexed_oracle(model)
            assert np.array_equal(np.flatnonzero(oracle.pop("has_choice")), np.unique(model.table.choice_src))
            assert_same_arrays(indexed_arrays(model), oracle)
            assert transitions_of(loaded) == transitions_of(model)
            assert loaded.num_transitions() == sum(len(d) for d in transitions_of(model).values())

    def test_roundtrip_gives_bit_identical_verdicts(self, tmp_path):
        path = tmp_path / "m.json"
        formulas = [parse_pctl(text) for text in QUERIES]
        for n, model in enumerate(table_models()):
            if n % 5:
                continue  # every fifth random model, and both chains
            path.write_text(model_to_json(model))
            loaded = load_model(path)
            for formula in formulas:
                for semantics in ("MAX", "MIN"):
                    assert check_all(loaded, formula, semantics) == check_all(model, formula, semantics)

    def test_writers_match_the_dict_writers(self):
        for model in table_models():
            rows, tra = writer_oracle(model)
            assert json.loads(model_to_json(model))["transitions"] == rows
            assert tra_lab_text(model)[0] == tra

    def test_any_row_order_loads_the_same_model(self, tmp_path):
        rng = np.random.default_rng(3)
        for n, model in enumerate(table_models()):
            if n % 10:
                continue
            doc = json.loads(model_to_json(model))
            rng.shuffle(doc["transitions"])
            rng.shuffle(doc["states"])
            (tmp_path / "shuffled.json").write_text(json.dumps(doc))
            loaded = load_model(tmp_path / "shuffled.json")
            for column in ("src", "act", "dst", "prob"):
                got, want = getattr(loaded.table, column), getattr(model.table, column)
                assert got.dtype == want.dtype and np.array_equal(got, want), column
            assert loaded.table.order == model.table.order
            assert model_to_json(loaded) == model_to_json(model)

    def test_a_model_is_its_columns(self, tmp_path):
        (tmp_path / "m.json").write_text(model_to_json(slow_chain(30, self_loops=True)))
        model = load_model(tmp_path / "m.json")
        for text in QUERIES:
            for semantics in ("MAX", "MIN"):
                check_all(model, parse_pctl(text), semantics)
        reach_prob(model, {(30, 0)}, k=5)
        assert not hasattr(model, "states") and not hasattr(model, "transitions")
        assert transitions_of(model)[((1, 0), 0)] == {(0, 0): 0.5, (2, 0): 0.5}
        assert transitions_of(model)[((1, 0), 1)] == {(1, 0): 1.0}
        assert states_of(model)[(30, 0)] == (-1, 1) and states_of(model)[(0, 0)] == (1, 1)
        assert list(states_of(model)) == model.table.order == sorted(model.rank)

    def test_a_model_is_read_only(self, tmp_path):
        pairs = separable_cell_pairs()
        model = refine(build_abstraction(pairs, AbstractionConfig(k=1, c=2)), pairs)
        (tmp_path / "m.json").write_text(model_to_json(model))
        for model in (model, load_model(tmp_path / "m.json")):
            sid, cell = model.table.order[0], next(iter(model.classifiers))
            with pytest.raises(TypeError):
                model.rank[sid] = 0
            with pytest.raises(TypeError):
                model.classifiers[cell + 1] = model.classifiers[cell]
            for array in (model.classifiers[cell][0], model.label, model.support, model.pca.mean,
                          model.pca.components, model.table.prob, model.table.choice, model.table.choice_src,
                          model.table.first_choice):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
            assert [model.rank[sid] for sid in model.table.order] == list(range(len(model.table.order)))

    @pytest.mark.parametrize("defect,message", [
        (lambda doc: doc["transitions"][0].__setitem__(3, float("nan")),
         r"c1 -0-> c0 with probability nan lies outside \[0, 1\]"),
        (lambda doc: doc["transitions"][0].__setitem__(3, -0.5), "lies outside"),
        (lambda doc: doc["transitions"][1].__setitem__(3, 1.5), "lies outside"),
        (lambda doc: doc["transitions"].append(list(doc["transitions"][0])),
         "c1 -0-> c0 with probability 0.5 is listed twice"),
        (lambda doc: doc["transitions"].insert(0, list(doc["transitions"][2])), "is listed twice"),
        (lambda doc: doc["transitions"][0].__setitem__(3, 0.75), "transitions of c1 under action 0 sum to 1.25"),
        (lambda doc: doc["transitions"][0].__setitem__(2, "c99"),
         "c1 -0-> c99 .* names a state the model does not list"),
        # the entries a model file names: a state listed twice would silently replace the first
        (lambda doc: doc["states"].append(dict(doc["states"][1], label=-1)),
         "state c1 is listed twice, as entries 1 and 4"),
        (lambda doc: doc["states"][2].__setitem__("id", "c02"), r'state entry 2 has id "c02", not c<cell>'),
        (lambda doc: doc["states"][2].__setitem__("id", 2), "state entry 2 has id 2, not c<cell>"),
        (lambda doc: doc["states"][0].__setitem__("label", True), "state c0 has label true, expected -1 or 1"),
        (lambda doc: doc["states"][0].__setitem__("label", 1.0), "state c0 has label 1.0, expected -1 or 1"),
        (lambda doc: doc["states"][2].__setitem__("support", "many"), 'state c2 has support "many", expected a'),
        (lambda doc: doc["states"][2].__setitem__("support", -5), "state c2 has support -5, expected a non-negative"),
        (lambda doc: doc["transitions"][0].__setitem__(1, 0.5),
         r'transition row 0 is \["c1", 0.5, "c0", 0.5\], not \[src, act, dst, p\] with an integer act'),
        (lambda doc: doc["transitions"][1].__setitem__(1, True), r'transition row 1 is \["c1", true, "c2", 0.5\]'),
        (lambda doc: doc["transitions"][2].__setitem__(3, True),
         r'transition row 2 is \["c2", 0, "c1", true\], not .* and a number p'),
        (lambda doc: doc["classifiers"].append({"cell": 0, "w": ["1.5"], "b": 0.0}),
         r'classifier of cell 0 has w \["1.5"\] and b 0.0, expected 1 finite numbers and one'),
        (lambda doc: doc["classifiers"].append({"cell": 0, "w": [float("nan")], "b": 0.0}),
         r"classifier of cell 0 has w \[NaN\]"),
        (lambda doc: doc["classifiers"].append({"cell": 0, "w": [1.0], "b": "1.5"}),
         r'classifier of cell 0 has w \[1.0\] and b "1.5"'),
        (lambda doc: doc["classifiers"].extend([{"cell": 1, "w": [1.0], "b": 0.0}] * 2), "cell 1 has two classifiers"),
        (lambda doc: doc["classifiers"].append({"cell": 1.0, "w": [1.0], "b": 0.0}),
         "classifier 0 has cell 1.0, not an integer"),
        (lambda doc: doc["pca"].__setitem__("mean", [float("nan")]),
         r"pca.mean is \[NaN\], not a list of finite numbers"),
        (lambda doc: doc["abstraction"]["bounds"][0].__setitem__(1, "1"),
         r'abstraction.bounds is \[\[0.0, "1"\]\], not a list of lists'),
        (lambda doc: doc["abstraction"]["bounds"][0].append(2.0),
         r"abstraction.bounds has shape \(1, 3\), expected \(1, 2\)"),
        (lambda doc: doc["states"].__setitem__(1, ["c1", 1, 3]), r'state entry 1 is \["c1", 1, 3\], not an object'),
        (lambda doc: doc["transitions"].__setitem__(1, "c1 0 c2 1"), 'transition row 1 is "c1 0 c2 1", not'),
        (lambda doc: doc["transitions"].__setitem__(1, 5), "transition row 1 is 5, not"),
        (lambda doc: doc["states"][1].__setitem__("label", 0), "state c1 has label 0, expected -1 or 1"),
        (lambda doc: doc["states"][1].__setitem__("support", 2.5), "state c1 has support 2.5, expected a non-negative"),
        (lambda doc: doc["states"][1].__setitem__("support", True), "state c1 has support true, expected a"),
        (lambda doc: doc["transitions"][1].pop(), r'transition row 1 is \["c1", 0, "c2"\], not'),
        (lambda doc: doc["classifiers"].append({"cell": 0, "w": [1.0, 2.0], "b": 0.0}),
         r"classifier of cell 0 has w \[1.0, 2.0\] and b 0.0, expected 1 finite"),
        (lambda doc: doc["classifiers"].append({"cell": 0, "w": [1.0], "b": float("inf")}),
         "classifier of cell 0 has w .* and b Infinity"),
        (lambda doc: doc["classifiers"].append([0, [1.0], 0.0]), r"classifier 0 is \[0, \[1.0\], 0.0\], not an object"),
    ])
    def test_bad_rows_are_refused_naming_the_file(self, tmp_path, defect, message):
        doc = json.loads(model_to_json(slow_chain(3)))
        defect(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_hand_built_rows_are_checked_too(self):
        with pytest.raises(ValueError, match="sum to 0.5"):
            make_mdp(2, {(0, 0): {1: 0.5}})
        with pytest.raises(ValueError, match="names a state"):
            make_mdp(2, {(0, 0): {5: 1.0}})
        with pytest.raises(ValueError, match="lies outside"):
            make_mdp(2, {(0, 0): {0: 1.5, 1: -0.5}})
