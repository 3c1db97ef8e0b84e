import json

import numpy as np
import pytest

from cpsguard import abstraction, cli, monitor, plants, signals, stl
from cpsguard.cli import main


def write_config(tmp_path, **overrides):
    config = {
        "seed": 7,
        "output_dir": "out",
        "plant": {"name": "watertank", "params": {}},
        "sim": {"dt": 0.05, "horizon": 5.0, "control_period": 0.05},
        "input": {"num_control_points": 4, "interpolation": "pconst", "duration": None, "ranges": None},
        "controller": {"kind": "pid"},
        "safety_controller": {"kind": "pid"},
        "labeling_spec": "G[0,5](1.2 - level >= 0)",
        "collect": {"num_traces": 12},
        "abstraction": {"k": 2, "c": 4, "label_threshold": 0.0, "variance_threshold": 0.0},
        "monitor": {
            "query": 'P>0.8 [ F<=10 "rob=-1" ]',
            "period": 1.0,
            "unknown_policy": "AI",
            "switch_back": True,
            "num_runs": 3,
            "safety_metric": "G[0,5](level >= 0.05)",
            "performance_metric": "G[0,5](abs(level - level_ref) <= 0.6)",
        },
        "falsify": {
            "spec": None,
            "query": 'P>0.8 [ F<=10 "rob=-1" ]',
            "queue_seed_count": 2,
            "global_budget": 2,
            "local_budget": 3,
            "checkpoint_time": 2.0,
            "step_init": 0.1,
            "step_decay": 0.85,
            "step_growth": 1.5,
            "trials": 3,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def run(args):
    return main([str(a) for a in args])


class TestCollect:
    def test_single_trace_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["--config", cfg, "collect", "--num", "1"]) == 0
        out = tmp_path / "out"
        assert (out / "traces" / "trace_0000.txt").exists()
        manifest = json.loads((out / "collect_manifest.json").read_text())
        assert len(manifest["traces"]) == 1
        assert manifest["failures"] == []
        assert "config_hash" in manifest

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "3"])
        first = {p.name: p.read_bytes() for p in (tmp_path / "out" / "traces").iterdir()}
        run(["--config", cfg, "collect", "--num", "3"])
        second = {p.name: p.read_bytes() for p in (tmp_path / "out" / "traces").iterdir()}
        assert first == second

    def test_trace_files_embed_config_hash(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "1"])
        text = (tmp_path / "out" / "traces" / "trace_0000.txt").read_text()
        manifest = json.loads((tmp_path / "out" / "collect_manifest.json").read_text())
        assert f"# config={manifest['config_hash']}" in text

    def test_blowup_in_rk4_stage_is_contained(self, tmp_path):
        # a 0.5 s step drives one CSTR run to an overflow inside an RK4
        # stage; collect records it as a failure and keeps the others
        cfg = write_config(tmp_path, seed=1, plant={"name": "cstr", "params": {}},
                           sim={"dt": 0.5, "horizon": 30.0, "control_period": 0.5},
                           labeling_spec="G[0,25](abs(error) <= 0.3)",
                           collect={"num_traces": 6})
        assert run(["--config", cfg, "collect"]) == 2
        out = tmp_path / "out"
        manifest = json.loads((out / "collect_manifest.json").read_text())
        assert len(manifest["traces"]) == 5
        assert len(manifest["failures"]) == 1
        assert "diverged" in manifest["failures"][0]["error"]
        for entry in manifest["traces"]:
            assert (out / entry["file"]).exists()
        failed = manifest["failures"][0]["index"]
        assert not (out / "traces" / f"trace_{failed:04d}.txt").exists()


class TestBlowupContained:
    """The CSTR set-up of `test_blowup_in_rk4_stage_is_contained`: some
    monitored runs and falsification trials diverge too."""

    def collect_and_build(self, tmp_path):
        cfg = write_config(tmp_path, seed=1, plant={"name": "cstr", "params": {}},
                           sim={"dt": 0.5, "horizon": 30.0, "control_period": 0.5},
                           labeling_spec="G[0,25](abs(error) <= 0.3)", collect={"num_traces": 6},
                           input={"num_control_points": 6}, abstraction={"k": 3, "c": 10},
                           monitor={"period": 5.0, "unknown_policy": "SAFE", "safety_metric": "G[0,25](conc >= 0)",
                                    "performance_metric": "G[0,25](abs(error) <= 0.3)"},
                           falsify={"queue_seed_count": 4, "global_budget": 5, "local_budget": 10,
                                    "checkpoint_time": 5.0})
        assert run(["--config", cfg, "collect"]) == 2
        assert run(["--config", cfg, "build"]) == 0
        return cfg, tmp_path / "out"

    def test_monitor_records_failed_runs_and_goes_on(self, tmp_path, capsys):
        cfg, out = self.collect_and_build(tmp_path)
        assert run(["--config", cfg, "monitor", "--runs", "8"]) == 2
        doc = json.loads((out / "monitor_metrics.json").read_text())
        assert len(doc["runs"]) == 8
        failed = [i for i, r in enumerate(doc["runs"]) if "error" in r]
        assert failed == [2, 3]
        assert doc["runs"][3] == {"seed": doc["runs"][3]["seed"], "error": "cstr: state diverged at t=23.000"}
        done = [r for r in doc["runs"] if "error" not in r]
        assert doc["mean_safety_frac"] == pytest.approx(np.mean([r["safety_frac"] for r in done]))
        assert doc["mean_perf_frac"] == pytest.approx(np.mean([r["perf_frac"] for r in done]))
        assert sorted(p.name for p in (out / "monitored").iterdir()) == \
            [f"monitored_{i:04d}.txt" for i in range(8) if i not in failed]
        assert "(2 failed)" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["random", "guided"])
    def test_falsify_records_failed_trials_and_goes_on(self, tmp_path, algo):
        cfg, out = self.collect_and_build(tmp_path)
        assert run(["--config", cfg, "falsify", "--algo", algo, "--trials", "3"]) == 2
        doc = json.loads((out / f"falsify_{algo}.json").read_text())
        assert doc["trials"] == 3 and len(doc["per_trial"]) == 3
        errors = [t for t in doc["per_trial"] if "error" in t]
        assert len(errors) == 1 and set(errors[0]) == {"seed", "error"}
        assert "diverged" in errors[0]["error"]
        assert doc["fsr"] == sum(1 for t in doc["per_trial"] if t.get("success"))

    def test_report_prints_missing_means_as_na(self, tmp_path, capsys):
        cfg, out = self.collect_and_build(tmp_path)
        doc = {"config_hash": "x", "runs": [{"seed": 1, "error": "diverged"}],
               "mean_safety_frac": None, "mean_perf_frac": None}
        (out / "monitor_metrics.json").write_text(json.dumps(doc))
        assert run(["--config", cfg, "report"]) == 0
        assert "mean safety fraction n/a, mean performance fraction n/a over 1 runs" in capsys.readouterr().out


class TestBuild:
    def test_build_single_trace(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "1"])
        assert run(["--config", cfg, "build"]) == 0
        model = abstraction.load_model(tmp_path / "out" / "model.json")
        assert len(model.states) >= 1
        for dests in model.transitions.values():
            assert abs(sum(dests.values()) - 1.0) <= 1e-9
        assert (tmp_path / "out" / "model.tra").exists()
        assert (tmp_path / "out" / "model.lab").exists()

    def test_state_count_matches_hand_enumerated_cells(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        model = abstraction.load_model(tmp_path / "out" / "model.json")
        # enumerate occupied cells directly from the traces
        manifest = json.loads((tmp_path / "out" / "collect_manifest.json").read_text())
        occupied = set()
        starts = set()
        for entry in manifest["traces"]:
            trace, _ = signals.load_trace(tmp_path / "out" / entry["file"])
            for row in trace.states:
                reduced = model.pca.components @ (row - model.pca.mean)
                idx = 0
                radix = 1
                for j, v in enumerate(reduced):
                    lo, hi = model.config.bounds[j]
                    pos = min(int(model.config.c * (v - lo) / (hi - lo)), model.config.c - 1)
                    idx += pos * radix
                    radix *= model.config.c
                occupied.add(idx)
            first = trace.states[0]
            reduced = model.pca.components @ (first - model.pca.mean)
        expected = len(occupied)
        n_synthetic = 1 if model.initial == abstraction.INIT_STATE else 0
        assert len(model.states) == expected + n_synthetic

    def test_refine_with_infinite_threshold_is_identity(self, tmp_path):
        cfg = write_config(tmp_path, abstraction={"variance_threshold": 1e18})
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        before = (tmp_path / "out" / "model.json").read_bytes()
        assert run(["--config", cfg, "refine"]) == 0
        after = (tmp_path / "out" / "model.json").read_bytes()
        assert before == after

    def test_model_json_roundtrips(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        path = tmp_path / "out" / "model.json"
        model = abstraction.load_model(path)
        assert abstraction.model_to_json(model, json.loads(path.read_text())["config_hash"]) == path.read_text()

    @pytest.mark.parametrize("defect, where", [
        ("header wider than rows", ":5: 6 values for 7 columns"),
        ("ragged row", ":10: 5 values for 6 columns"),
        ("no action column", ":4: the column row needs 'time' first and an 'action' column"),
    ])
    def test_malformed_trace_names_the_file(self, tmp_path, capsys, defect, where):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "2"])
        path = tmp_path / "out" / "traces" / "trace_0001.txt"
        lines = path.read_text().splitlines()
        assert lines[3].startswith("time ")  # the column row follows three comment lines
        if defect == "header wider than rows":
            lines[3] += " extra"
        elif defect == "ragged row":
            lines[9] = lines[9].rsplit(" ", 1)[0]
        else:
            lines[3] = lines[3].replace("action", "act")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["--config", cfg, "build"]) == 2
        assert f"error: {path}{where}" in capsys.readouterr().err

    def test_missing_traces_is_runtime_failure(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["--config", cfg, "build"]) == 2


class TestCheck:
    def build_model(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        return cfg, abstraction.load_model(tmp_path / "out" / "model.json")

    def test_unsafe_state_probability_one(self, tmp_path, capsys):
        cfg, model = self.build_model(tmp_path)
        bad = [sid for sid, info in model.states.items() if info.label == -1]
        assert bad, "expected at least one unsafe-labeled state in the test model"
        sid = abstraction.state_id_str(bad[0])
        assert run(["--config", cfg, "check", "--state", sid]) == 0
        out = capsys.readouterr().out
        assert "holds=True" in out and "probability=1.000000" in out

    def test_assert_mode_exit_code(self, tmp_path):
        from cpsguard import pmc

        cfg, model = self.build_model(tmp_path)
        query = pmc.parse_pctl('P>0.8 [ F<=10 "rob=-1" ]')
        safe_states = [s for s, info in model.states.items()
                       if info.label == +1 and not pmc.check(model, s, query).holds]
        if not safe_states:
            pytest.skip("no safe state in this model")
        sid = abstraction.state_id_str(safe_states[0])
        assert run(["--config", cfg, "check", "--state", sid, "--assert-holds"]) == 3

    def test_unknown_state_id_fails(self, tmp_path):
        cfg, _ = self.build_model(tmp_path)
        assert run(["--config", cfg, "check", "--state", "c999999"]) == 2

    def test_state_file_route(self, tmp_path, capsys):
        cfg, model = self.build_model(tmp_path)
        manifest = json.loads((tmp_path / "out" / "collect_manifest.json").read_text())
        trace, _ = signals.load_trace(tmp_path / "out" / manifest["traces"][0]["file"])
        vec = tmp_path / "state.json"
        vec.write_text(json.dumps(list(map(float, trace.states[0]))))
        assert run(["--config", cfg, "check", "--state-file", vec]) == 0
        assert "holds=" in capsys.readouterr().out


MODEL_DEFECTS = {
    "row_sum": lambda doc: doc["transitions"][0].__setitem__(3, doc["transitions"][0][3] + 0.25),
    "unknown_src": lambda doc: doc["transitions"][0].__setitem__(0, "c999999"),
    "unknown_dst": lambda doc: doc["transitions"][0].__setitem__(2, "c999999"),
    "label": lambda doc: doc["states"][0].__setitem__("label", 0),
    "bounds": lambda doc: doc["abstraction"]["bounds"].pop(),
    "pca_shape": lambda doc: doc["pca"]["components"].pop(),
    "classifier_width": lambda doc: doc.__setitem__("classifiers", [{"cell": 0, "w": [1.0], "b": 0.0}]),
}


class TestModelValidation:
    @pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
    def test_broken_model_exits_2(self, tmp_path, capsys, defect):
        cfg, _ = TestCheck().build_model(tmp_path)
        path = tmp_path / "out" / "model.json"
        assert run(["--config", cfg, "check"]) == 0
        doc = json.loads(path.read_text())
        MODEL_DEFECTS[defect](doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["--config", cfg, "check"]) == 2
        assert f"error: {path}:" in capsys.readouterr().err


class TestMonitorCmd:
    def test_all_safe_model_matches_ai_only_metrics(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, labeling_spec="G[0,5](level >= -100)")
        run(["--config", cfg_path, "collect"])
        run(["--config", cfg_path, "build"])
        assert run(["--config", cfg_path, "monitor", "--runs", "2"]) == 0
        metrics = json.loads((tmp_path / "out" / "monitor_metrics.json").read_text())
        # recompute the AI-only metrics with the same seeds
        cfg = cli.load_config(str(cfg_path))
        plant = cfg.plant()
        simcfg = cfg.simcfg()
        spec = cfg.input_spec()
        controller = cfg.controller()
        safety = stl.parse_stl(cfg.raw["monitor"]["safety_metric"])
        perf = stl.parse_stl(cfg.raw["monitor"]["performance_metric"])
        for row, seed in zip(metrics["runs"], cli._spawn_seeds(cfg.seed, "monitor", 2)):
            rng = np.random.default_rng(seed)
            sig = signals.random_signal(spec, rng)
            trace = plants.simulate(plant, controller, sig, simcfg)
            s, p = monitor.eval_metrics(trace, safety, perf)
            assert row["safety_frac"] == pytest.approx(s)
            assert row["perf_frac"] == pytest.approx(p)
        assert "overhead_ratio" in capsys.readouterr().out

    def test_monitored_outputs_have_no_wall_times(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        run(["--config", cfg, "monitor", "--runs", "1"])
        metrics = (tmp_path / "out" / "monitor_metrics.json").read_text()
        assert "wall" not in metrics
        assert "time" not in json.loads(metrics)["runs"][0]


class TestFalsifyCmd:
    def test_random_on_always_violating_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path, falsify={"spec": "G[0,1](level >= 100)"})
        assert run(["--config", cfg, "falsify", "--algo", "random", "--trials", "5"]) == 0
        doc = json.loads((tmp_path / "out" / "falsify_random.json").read_text())
        assert doc["fsr"] == 5
        assert all(row["simulations"] == 1 for row in doc["per_trial"])
        assert "FSR=5/5" in capsys.readouterr().out

    def test_guided_needs_model(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["--config", cfg, "falsify", "--algo", "guided", "--trials", "1"]) == 2

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, falsify={"spec": "G[0,1](level >= 100)"})
        run(["--config", cfg, "falsify", "--algo", "random", "--trials", "2"])
        first = (tmp_path / "out" / "falsify_random.json").read_bytes()
        run(["--config", cfg, "falsify", "--algo", "random", "--trials", "2"])
        assert (tmp_path / "out" / "falsify_random.json").read_bytes() == first

    def test_unknown_algo_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["--config", cfg, "falsify", "--algo", "cmaes"]) == 1


class TestReport:
    def test_aggregates_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, falsify={"spec": "G[0,1](level >= 100)"})
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        run(["--config", cfg, "falsify", "--algo", "random", "--trials", "2"])
        assert run(["--config", cfg, "report"]) == 0
        report = (tmp_path / "out" / "report.md").read_text()
        assert "## Traces" in report and "## Model" in report and "## Falsification" in report

    def test_empty_dir_fails(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["--config", cfg, "report"]) == 2


class TestUsage:
    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/cfg.json", "collect"]) == 1

    def test_bad_flag_value(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "collect", "--num", "notanumber"]) == 1

    def test_determinism_of_whole_pipeline(self, tmp_path):
        cfg_a = write_config(tmp_path / "a") if (tmp_path / "a").mkdir() is None else None
        cfg_b = write_config(tmp_path / "b") if (tmp_path / "b").mkdir() is None else None
        for cfg in (cfg_a, cfg_b):
            run(["--config", cfg, "collect"])
            run(["--config", cfg, "build"])
        bytes_a = (tmp_path / "a" / "out" / "model.json").read_bytes()
        bytes_b = (tmp_path / "b" / "out" / "model.json").read_bytes()
        assert bytes_a == bytes_b
