"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them). The expensive artifacts (cloned and
corrupted controllers, the 2000-trace model) are built once per module
from fixed seeds, so every number here is reproducible.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest
from oracles import (
    labels_of,
    oracle_bounded_reach,
    random_mdp,
    random_stl_case,
    rob_oracle,
    separable_cell_pairs,
    transitions_of,
)

from cpsguard import cli, pmc, stl
from cpsguard.abstraction import (
    AbstractionConfig,
    abstract_state_of,
    build_abstraction,
    model_to_json,
    preciseness,
    refine,
)
from cpsguard.controllers import bc_loss_and_grads, init_mlp, perturb_weights, save_mlp, train_bc
from cpsguard.falsify import GUIDED, OPT_ONLY, RANDOM, FalsifyConfig, run_baseline, trial_stats
from cpsguard.monitor import MonitorConfig, eval_metrics, run_monitored
from cpsguard.plants import (
    ClosedLoopSystem,
    SimConfig,
    default_input_spec,
    default_pid,
    default_sim_config,
    make_plant,
    observe,
    simulate,
)
from cpsguard.signals import Trace, make_input, random_signal

pytestmark = pytest.mark.acceptance

PHI1_TEXT = "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)"
SAFETY_TEXT = "G[0,50](d_rel - d_safe >= 0)"
PERF_TEXT = "G[0,50](abs(v_ego - v_target) <= 0.2)"
QUERY_TEXT = 'P>0.8 [ F<=10 "rob=-1" ]'

_timings: dict = {}


def report(n, name, ok, detail):
    print(f"\nACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def clone_controller(plant, spec, simcfg, teacher_plant=None, seed=1000):
    """Behavior-clone the fallback controller from closed-loop runs."""
    teacher_plant = teacher_plant or plant
    pid = default_pid(teacher_plant)
    rng = np.random.default_rng(seed)
    obs_rows, acts = [], []
    for _ in range(40):
        sig = random_signal(spec, rng)
        tr = simulate(teacher_plant, pid, sig, simcfg)
        for i in range(len(tr) - 1):
            obs_rows.append(observe(teacher_plant, tr.states[i, :4], tr.inputs[i], i * simcfg.dt))
            acts.append(tr.actions[i])
    net, _ = train_bc((np.array(obs_rows), np.array(acts)), (24, 24),
                      {"lr": 0.01, "epochs": 100, "batch": 64, "seed": 0},
                      out_range=plant.control_range)
    return net


def collect_pairs(plant, controller, spec, simcfg, n, seed, labeling):
    """n closed-loop traces with their labeling robustness: the input signals drawn in turn from
    one seeded stream, then each simulated and labeled on every usable CPU by `cli._run_jobs`."""
    rng = np.random.default_rng(seed)
    sigs = [random_signal(spec, rng) for _ in range(n)]

    def one(sig):
        tr = simulate(plant, controller, sig, simcfg)
        return tr, stl.labeling_robustness(tr, labeling)

    return cli._run_jobs(one, sigs, simcfg.n_steps)


@pytest.fixture(scope="module")
def acc_world():
    plant = make_plant("acc")
    simcfg = default_sim_config(plant)
    spec = default_input_spec(plant, num_control_points=6, duration=simcfg.horizon)
    return {
        "plant": plant,
        "simcfg": simcfg,
        "spec": spec,
        "pid": default_pid(plant),
        "phi1": stl.parse_stl(PHI1_TEXT),
        "safety": stl.parse_stl(SAFETY_TEXT),
        "perf": stl.parse_stl(PERF_TEXT),
        "query": pmc.parse_pctl(QUERY_TEXT),
    }


@pytest.fixture(scope="module")
def unsafe_controller(acc_world):
    t0 = time.perf_counter()
    net = clone_controller(acc_world["plant"], acc_world["spec"], acc_world["simcfg"])
    bad = perturb_weights(net, 0.15, seed=77)
    _timings["unsafe_controller"] = time.perf_counter() - t0
    return bad


@pytest.fixture(scope="module")
def unsafe_pairs(acc_world, unsafe_controller):
    t0 = time.perf_counter()
    pairs = collect_pairs(acc_world["plant"], unsafe_controller, acc_world["spec"],
                          acc_world["simcfg"], 2000, seed=2000, labeling=acc_world["phi1"])
    _timings["unsafe_pairs"] = time.perf_counter() - t0
    return pairs


@pytest.fixture(scope="module")
def unsafe_model(unsafe_pairs):
    t0 = time.perf_counter()
    model = build_abstraction(unsafe_pairs, AbstractionConfig(k=3, c=10))
    model = refine(model, unsafe_pairs)
    _timings["unsafe_model"] = time.perf_counter() - t0
    return model


def test_forked_collect_pairs_equal_the_serial_loop(acc_world, unsafe_controller, monkeypatch):
    w = acc_world
    rng = np.random.default_rng(2000)
    serial = []
    for _ in range(5):  # signal, trace, robustness in turn, as one process would
        tr = simulate(w["plant"], unsafe_controller, random_signal(w["spec"], rng), w["simcfg"])
        serial.append((tr, stl.labeling_robustness(tr, w["phi1"])))
    forks, real_fork = [], os.fork
    monkeypatch.setattr(cli, "_FORK_MIN_COST", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cli, "_cgroup_cpu_quota", lambda: None)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    forked = collect_pairs(w["plant"], unsafe_controller, w["spec"], w["simcfg"], 5, seed=2000, labeling=w["phi1"])
    assert len(forks) == 2 and len(forked) == len(serial)
    for (got, got_robs), (want, want_robs) in zip(forked, serial):
        assert (got.dt, got.channels) == (want.dt, want.channels)
        for column in ("states", "actions", "inputs"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert np.array_equal(got_robs, want_robs)


@pytest.fixture(scope="module")
def falsify_target(acc_world):
    # cloned from a wider-headway teacher, lightly corrupted: violations
    # exist but are rare under random inputs, so the search matters
    teacher = make_plant("acc", {"pid_headway_factor": 3.6})
    net = clone_controller(acc_world["plant"], acc_world["spec"], acc_world["simcfg"],
                           teacher_plant=teacher)
    return perturb_weights(net, 0.05, seed=77)


@pytest.fixture(scope="module")
def falsify_model(acc_world, falsify_target):
    pairs = collect_pairs(acc_world["plant"], falsify_target, acc_world["spec"],
                          acc_world["simcfg"], 500, seed=2500, labeling=acc_world["phi1"])
    return refine(build_abstraction(pairs, AbstractionConfig(k=3, c=10)), pairs)


class TestCriterion1:
    def test_pmc_oracle_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(200):
            model = random_mdp(rng, max_states=6, max_actions=3)
            target = {sid for sid, label in labels_of(model).items() if label == -1}
            k = int(rng.integers(0, 6))
            for semantics in ("MAX", "MIN"):
                got = pmc.reach_prob(model, target, k=k, semantics=semantics).probs
                want = oracle_bounded_reach(model, target, k, semantics)
                for sid in model.table.order:
                    worst = max(worst, abs(got[sid] - want[sid]))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 60.0
        report(1, "pmc-oracle-equivalence", ok, f"max |diff|={worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-9
        assert elapsed < 60.0


class TestCriterion2:
    def test_stl_oracle_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(1000):
            trace, formula = random_stl_case(rng)
            got = stl.robustness(trace, formula, 0.0)
            want = rob_oracle(formula, trace, 0)
            if got != want or stl.satisfied(trace, formula) != (want >= 0.0):
                mismatches += 1
        elapsed = time.perf_counter() - t0
        ok = mismatches == 0 and elapsed < 60.0
        report(2, "stl-oracle-equivalence", ok, f"{mismatches} mismatches in 1000, {elapsed:.1f}s")
        assert mismatches == 0
        assert elapsed < 60.0


class TestCriterion3:
    def test_abstraction_soundness(self, unsafe_pairs, unsafe_model):
        from cpsguard.abstraction import _reduce_batch, _state_ids

        model = unsafe_model
        # probability normalization
        worst = max(abs(sum(d.values()) - 1.0) for d in transitions_of(model).values())
        # state-map totality on the whole construction set
        unmapped = 0
        for trace, _ in unsafe_pairs:
            reduced = _reduce_batch(model.pca, trace.states)
            for sid in _state_ids(model.config, model.classifiers, reduced):
                if sid not in model.rank:
                    unmapped += 1
        # deterministic rebuild on a subset, bit-identical serialization
        subset = unsafe_pairs[:300]
        m1 = refine(build_abstraction(subset, AbstractionConfig(k=3, c=10)), subset)
        m2 = refine(build_abstraction(subset, AbstractionConfig(k=3, c=10)), subset)
        identical = model_to_json(m1) == model_to_json(m2)
        # PCA orthonormality
        gram = model.pca.components @ model.pca.components.T
        ortho = float(np.max(np.abs(gram - np.eye(model.config.k))))
        # count-ratio example: three transitions from one cell, 2 vs 1
        values = [0.1, 1.1, 0.1, 1.1, 0.1, 2.1]
        t = Trace(dt=1.0, channels=("x",), states=np.array(values).reshape(-1, 1),
                  actions=np.full(6, 0.2), inputs=np.zeros((6, 1)))
        synth = build_abstraction([(t, np.ones(6))], AbstractionConfig(k=1, c=4))
        a = abstract_state_of(synth, np.array([0.1]))
        b = abstract_state_of(synth, np.array([1.1]))
        c = abstract_state_of(synth, np.array([2.1]))
        ratios = transitions_of(synth)[(a, 0)]
        ratio_ok = abs(ratios[b] - 2 / 3) < 1e-15 and abs(ratios[c] - 1 / 3) < 1e-15
        ok = worst <= 1e-9 and unmapped == 0 and identical and ortho <= 1e-8 and ratio_ok
        report(3, "abstraction-soundness", ok,
               f"norm={worst:.1e}, unmapped={unmapped}, rebuild identical={identical}, "
               f"ortho={ortho:.1e}, ratio 2/3-1/3 ok={ratio_ok}")
        assert worst <= 1e-9
        assert unmapped == 0
        assert identical
        assert ortho <= 1e-8
        assert ratio_ok


class TestCriterion4:
    def test_refinement_efficacy(self):
        pairs = separable_cell_pairs(n_cluster=100, margin=0.2)  # 200 cluster points
        model = build_abstraction(pairs, AbstractionConfig(k=1, c=2))
        refined = refine(model, pairs)
        split = len(refined.classifiers) == 1
        pure = True
        trace, robs = pairs[0]
        for row, rob in zip(trace.states, robs):
            sid = abstract_state_of(refined, row)
            if refined.label[refined.rank[sid]] != (1 if rob >= 0 else -1):
                pure = False
        blocked = refine(model, pairs, AbstractionConfig(k=1, c=2, variance_threshold=1e9))
        never_split = blocked.classifiers == {}
        ok = split and pure and never_split
        report(4, "refinement-efficacy", ok,
               f"split={split}, training purity={pure}, high-threshold split blocked={never_split}")
        assert split
        assert pure
        assert never_split


class TestCriterion5:
    def test_preciseness_floor(self, acc_world, unsafe_controller, unsafe_model):
        t0 = time.perf_counter()
        fresh = collect_pairs(acc_world["plant"], unsafe_controller, acc_world["spec"],
                              acc_world["simcfg"], 100, seed=3000, labeling=acc_world["phi1"])
        rep = preciseness(unsafe_model, fresh)
        elapsed = (time.perf_counter() - t0 + _timings["unsafe_controller"]
                   + _timings["unsafe_pairs"] + _timings["unsafe_model"])
        ok = rep.matched_fraction >= 0.80 and elapsed < 600.0
        report(5, "preciseness-floor", ok,
               f"matched={rep.matched_fraction:.4f}, unknown={rep.unknown_fraction:.4f}, "
               f"total {elapsed:.0f}s")
        assert rep.matched_fraction >= 0.80, rep
        assert elapsed < 600.0


class TestCriterion6:
    def test_monitoring_improves_safety(self, acc_world, unsafe_controller, unsafe_model):
        t0 = time.perf_counter()
        w = acc_world
        mcfg = MonitorConfig(w["query"], period=5.0, unknown_policy="SAFE", switch_back=True)
        rng = np.random.default_rng(4000)
        ai_s, ai_p, mon_s, mon_p = [], [], [], []
        for _ in range(20):
            sig = random_signal(w["spec"], rng)
            tr = simulate(w["plant"], unsafe_controller, sig, w["simcfg"])
            s, p = eval_metrics(tr, w["safety"], w["perf"])
            ai_s.append(s)
            ai_p.append(p)
            mt = run_monitored(w["plant"], unsafe_controller, w["pid"], unsafe_model,
                               mcfg, sig, w["simcfg"])
            s, p = eval_metrics(mt.trace, w["safety"], w["perf"])
            mon_s.append(s)
            mon_p.append(p)
        elapsed = time.perf_counter() - t0
        safety_gain = statistics.fmean(mon_s) - statistics.fmean(ai_s)
        perf_drop = statistics.fmean(ai_p) - statistics.fmean(mon_p)
        ok = safety_gain > 0.0 and perf_drop <= 0.15 and elapsed < 600.0
        report(6, "monitoring-improves-safety", ok,
               f"safety {statistics.fmean(ai_s):.4f} -> {statistics.fmean(mon_s):.4f}, "
               f"perf {statistics.fmean(ai_p):.4f} -> {statistics.fmean(mon_p):.4f}, {elapsed:.0f}s")
        assert safety_gain > 0.0
        assert perf_drop <= 0.15
        assert elapsed < 600.0


class TestCriterion7:
    def test_falsification_ordering(self, acc_world, falsify_target, falsify_model):
        t0 = time.perf_counter()
        w = acc_world
        system = ClosedLoopSystem(w["plant"], falsify_target, w["simcfg"], w["spec"])
        fsr = {}
        resim_ok = True
        for kind in (GUIDED, RANDOM, OPT_ONLY):
            outcomes = []
            for trial in range(10):
                cfg = FalsifyConfig(stl_spec=w["phi1"], safety_query=w["query"],
                                    queue_seed_count=4, global_budget=5, local_budget=10,
                                    checkpoint_time=5.0, seed=9000 + trial)
                out = run_baseline(kind, system, falsify_model if kind == GUIDED else None, cfg)
                outcomes.append(out)
                if out.success:
                    tr = system.run(out.falsifying_input)
                    if stl.robustness(tr, w["phi1"], 0.0) >= 0.0:
                        resim_ok = False
            fsr[kind] = trial_stats(outcomes)["fsr"]
        elapsed = time.perf_counter() - t0
        ordering = fsr[GUIDED] >= fsr[RANDOM] and fsr[GUIDED] >= fsr[OPT_ONLY] - 1
        ok = ordering and resim_ok and elapsed < 1200.0
        report(7, "falsification-ordering", ok,
               f"FSR guided={fsr[GUIDED]}/10 random={fsr[RANDOM]}/10 opt={fsr[OPT_ONLY]}/10, "
               f"re-simulation sound={resim_ok}, {elapsed:.0f}s")
        assert ordering, fsr
        assert resim_ok
        assert elapsed < 1200.0


class TestCriterion8:
    def test_query_latency_and_overhead(self, acc_world, unsafe_controller, unsafe_model, tmp_path, capsys):
        # cold-cache latency of the safety query on the desk-scale model
        latencies = []
        for _ in range(21):
            unsafe_model.caches.clear()
            t0 = time.perf_counter()
            pmc.check_all(unsafe_model, acc_world["query"])
            latencies.append(time.perf_counter() - t0)
        median_latency = statistics.median(latencies)
        # overhead ratio as reported by the monitor command
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "model.json").write_text(model_to_json(unsafe_model))
        save_mlp(unsafe_controller, tmp_path / "controller.txt")
        config = {
            "seed": 31,
            "output_dir": "out",
            "plant": {"name": "acc"},
            "controller": {"kind": "mlp", "path": "controller.txt"},
            "monitor": {"num_runs": 10},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main(["--config", str(tmp_path / "config.json"), "monitor"]) == 0
        stdout = capsys.readouterr().out
        ratio = float(stdout.split("overhead_ratio=")[1].split("%")[0]) / 100.0
        n_states = len(unsafe_model.table.order)
        ok = median_latency < 0.050 and ratio < 0.10 and n_states <= 2000
        report(8, "overhead-shape", ok,
               f"median query latency {median_latency * 1e3:.2f} ms on {n_states} states, "
               f"monitor overhead {ratio:.2%}")
        assert median_latency < 0.050
        assert ratio < 0.10


class TestCriterion9:
    def test_numerical_hygiene(self):
        # gradient check: analytic vs central differences on 20 parameters
        rng = np.random.default_rng(12)
        net = init_mlp(3, (6, 5), (-2.0, 2.0), seed=2)
        X = rng.uniform(-1, 1, size=(12, 3))
        y = rng.uniform(-1, 1, size=12)
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        _, gw, gb = bc_loss_and_grads(weights, biases, X, y)
        eps = 1e-6
        worst_rel = 0.0
        for _ in range(20):
            layer = int(rng.integers(len(weights)))
            if rng.random() < 0.7:
                r = int(rng.integers(weights[layer].shape[0]))
                c = int(rng.integers(weights[layer].shape[1]))
                weights[layer][r, c] += eps
                hi = bc_loss_and_grads(weights, biases, X, y)[0]
                weights[layer][r, c] -= 2 * eps
                lo = bc_loss_and_grads(weights, biases, X, y)[0]
                weights[layer][r, c] += eps
                analytic = gw[layer][r, c]
            else:
                r = int(rng.integers(biases[layer].shape[0]))
                biases[layer][r] += eps
                hi = bc_loss_and_grads(weights, biases, X, y)[0]
                biases[layer][r] -= 2 * eps
                lo = bc_loss_and_grads(weights, biases, X, y)[0]
                biases[layer][r] += eps
                analytic = gb[layer][r]
            numeric = (hi - lo) / (2 * eps)
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst_rel = max(worst_rel, abs(numeric - analytic) / scale)
        # RK4 order: halving dt moves the final state by < 1e-4 relative
        worst_step = 0.0
        for name, level in (("acc", 0.2), ("cstr", 1.0), ("watertank", 1.1)):
            plant = make_plant(name)
            cfg = default_sim_config(plant)
            fine = SimConfig(dt=cfg.dt / 2, horizon=cfg.horizon, control_period=cfg.control_period)
            spec = default_input_spec(plant, num_control_points=1, duration=cfg.horizon)
            sig = make_input(spec, [[level]])
            a = simulate(plant, default_pid(plant), sig, cfg).states[-1]
            b = simulate(plant, default_pid(plant), sig, fine).states[-1]
            rel = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))
            worst_step = max(worst_step, rel)
        ok = worst_rel < 1e-4 and worst_step < 1e-4
        report(9, "numerical-hygiene", ok,
               f"max gradient rel err {worst_rel:.2e}, max dt-halving rel change {worst_step:.2e}")
        assert worst_rel < 1e-4
        assert worst_step < 1e-4


class TestCriterion10:
    CONFIG = {
        "seed": 7,
        "output_dir": "out",
        "plant": {"name": "watertank"},
        "sim": {"dt": 0.05, "horizon": 5.0, "control_period": 0.05},
        "input": {"num_control_points": 4},
        "labeling_spec": "G[0,5](1.2 - level >= 0)",
        "collect": {"num_traces": 10},
        "abstraction": {"k": 2, "c": 4},
        "monitor": {
            "period": 1.0,
            "unknown_policy": "AI",
            "num_runs": 2,
            "safety_metric": "G[0,5](level >= 0.05)",
            "performance_metric": "G[0,5](abs(level - level_ref) <= 0.6)",
        },
        "falsify": {"spec": "G[0,1](level >= 100)", "trials": 2,
                    "global_budget": 2, "local_budget": 3, "checkpoint_time": 2.0},
    }

    def run_pipeline(self, root):
        root.mkdir(parents=True, exist_ok=True)
        cfg = root / "config.json"
        cfg.write_text(json.dumps(self.CONFIG, indent=1))
        for args in (["collect"], ["build"], ["refine"], ["monitor"],
                     ["falsify", "--algo", "random"], ["falsify", "--algo", "guided"], ["report"]):
            code = cli.main(["--config", str(cfg), *args])
            assert code == 0, args
        return {p.relative_to(root): p.read_bytes()
                for p in sorted((root / "out").rglob("*")) if p.is_file()}

    def test_cli_determinism(self, tmp_path):
        first = self.run_pipeline(tmp_path / "a")
        second = self.run_pipeline(tmp_path / "b")
        same_names = set(first) == set(second)
        diffs = [str(name) for name in first if same_names and first[name] != second[name]]
        ok = same_names and not diffs
        report(10, "cli-determinism", ok,
               f"{len(first)} output files, differing: {diffs if diffs else 'none'}")
        assert same_names
        assert not diffs
