import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpsguard import abstraction, cli, monitor, plants, signals
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


def read_trace_file(path):
    """A trace file's prelude lines (text) and its .npy body (bytes)."""
    data = path.read_bytes()
    cut = data.index(b"\x93NUMPY")
    return data[:cut].decode().splitlines(), data[cut:]


def write_trace_file(path, lines, body):
    path.write_bytes(("\n".join(lines) + "\n").encode() + body)


class TestCollect:
    def test_single_trace_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["--config", cfg, "collect", "--num", "1"]) == 0
        out = tmp_path / "out"
        assert (out / "traces" / "trace_0000.trace").exists()
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
        lines, _ = read_trace_file(tmp_path / "out" / "traces" / "trace_0000.trace")
        manifest = json.loads((tmp_path / "out" / "collect_manifest.json").read_text())
        assert f"# config={manifest['config_hash']}" in lines

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
        assert not (out / "traces" / f"trace_{failed:04d}.trace").exists()

    def test_non_finite_number_in_spec_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, labeling_spec="G[0,5](F[0,1e999](level >= 0))")
        assert run(["--config", cfg, "collect", "--num", "1"]) == 2
        assert "number 1e999 is not finite (at position 11)" in capsys.readouterr().err

    def test_truncated_weights_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "net.txt").write_text("dims 4 2 1\n")
        cfg = write_config(tmp_path, controller={"kind": "mlp", "path": "net.txt"})
        assert run(["--config", cfg, "collect", "--num", "1"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "net.txt") in err and "range" in err


UNSAFE_MLP = Path(__file__).resolve().parent.parent / "bench" / "data" / "acc_unsafe.txt"
# (config overrides, collect's exit code); the last is the CSTR blow-up of test_blowup_in_rk4_stage_is_contained
PIPELINES = {
    "acc_mlp": ({"plant": {"name": "acc", "params": {}}, "sim": {"dt": 0.1, "horizon": 50.0, "control_period": 0.1},
                 "controller": {"kind": "mlp", "path": str(UNSAFE_MLP)}, "collect": {"num_traces": 8},
                 "labeling_spec": "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)", "abstraction": {"k": 3, "c": 10}}, 0),
    "cstr_pid": ({"plant": {"name": "cstr", "params": {}}, "sim": {"dt": 0.05, "horizon": 30.0, "control_period": 0.05},
                  "labeling_spec": "G[0,25]((abs(error) <= 0.3) U[0,5] (abs(error) <= 0.15))",
                  "collect": {"num_traces": 8}, "abstraction": {"k": 2, "c": 20}}, 0),
    "cstr_blowup": ({"seed": 1, "plant": {"name": "cstr", "params": {}}, "input": {"num_control_points": 6},
                     "sim": {"dt": 0.5, "horizon": 30.0, "control_period": 0.5}, "collect": {"num_traces": 6},
                     "labeling_spec": "G[0,25](abs(error) <= 0.3)", "abstraction": {"k": 3, "c": 10}}, 2),
}


@pytest.fixture
def forks(monkeypatch):
    """`forks(cpus)` puts `_run_jobs` on its fork path with `cpus` bins, whatever the cgroup
    of this process allows, and returns the list that counts its forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    def force(cpus=3):
        monkeypatch.setattr(cli, "_FORK_MIN_COST", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(cli, "_cgroup_cpu_quota", lambda: None)
        monkeypatch.setattr(os, "fork", counting_fork)
        return calls
    return force


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def square_or_fail(job):
    if job in (3, 6):
        raise ValueError(f"job {job} failed")
    return np.full(2, float(job)) ** 2


class Stop(BaseException):
    pass


class TestRunJobs:
    def test_results_in_job_order(self, forks):
        jobs = list(range(40))
        serial = [np.sqrt(np.arange(j + 1.0)) for j in jobs]
        calls = forks(6)  # more bins than this machine may have CPUs
        got = cli._run_jobs(lambda j: np.sqrt(np.arange(j + 1.0)), jobs, 1)
        assert len(calls) == 5
        assert all(np.array_equal(a, b) for a, b in zip(got, serial)) and len(got) == len(serial)
        assert no_children_left()

    def test_serial_below_the_threshold_or_on_one_cpu(self, forks, monkeypatch):
        calls = forks(1)
        assert cli._run_jobs(lambda j: j + 1, [1, 2, 3], 10**9) == [2, 3, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "_FORK_MIN_COST", 100)
        assert cli._run_jobs(lambda j: j + 1, [1, 2, 3], 33) == [2, 3, 4]
        assert calls == []

    def test_lowest_failing_job_raises_as_in_the_serial_loop(self, forks):
        # three bins of two: the first child's second job fails, and the second child's first
        jobs = [0, 1, 2, 3, 6, 5]
        with pytest.raises(ValueError) as serial:
            [square_or_fail(j) for j in jobs]
        calls = forks(3)
        with pytest.raises(type(serial.value), match=f"^{serial.value}$"):
            cli._run_jobs(square_or_fail, jobs, 1)
        assert str(serial.value) == "job 3 failed"
        assert len(calls) == 2 and no_children_left()

    def test_failure_in_the_parents_bin_reaps_the_children(self, forks):
        calls = forks(2)
        with pytest.raises(ValueError, match="^job 6 failed$"):
            cli._run_jobs(square_or_fail, [6, 1, 2], 1)
        assert len(calls) == 1 and no_children_left()

    def test_interrupted_parent_kills_its_children(self, forks):
        parent = os.getpid()

        def stop_or_sleep(job):
            if os.getpid() == parent:
                raise Stop
            time.sleep(60)

        calls = forks(3)
        start = time.perf_counter()
        with pytest.raises(Stop):
            cli._run_jobs(stop_or_sleep, [0, 1, 2], 1)
        assert time.perf_counter() - start < 30
        assert len(calls) == 2 and no_children_left()

    def test_child_that_dies_is_an_error(self, forks):
        parent = os.getpid()
        forks(2)
        with pytest.raises(RuntimeError, match="worker process ended without sending its results"):
            cli._run_jobs(lambda job: job if os.getpid() == parent else os._exit(3), [0, 1], 1)
        assert no_children_left()

    def test_warnings_are_reissued_in_job_order(self, forks):
        def warn(job):
            warnings.warn(f"job {job}")
            return square_or_fail(job)

        def messages(jobs, cost):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    cli._run_jobs(warn, jobs, cost)
                except ValueError:
                    pass
            return [str(w.message) for w in seen if w.category is UserWarning]  # not fork's own warnings

        serial = messages(list(range(8)), 0)
        assert serial == [f"job {j}" for j in range(4)]  # up to the failing job 3
        forks(3)
        assert messages(list(range(8)), 1) == serial
        assert messages([0, 1, 2], 1) == ["job 0", "job 1", "job 2"]


class TestCgroupQuota:
    """collect's workers are capped by the CPU quota of the process's cgroup, read through a
    stand-in for the files."""

    @pytest.mark.parametrize("files, quota", [
        ({"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/cpu.max": "150000 100000\n"}, 2),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "200000 100000\n"}, 2),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "50000 100000\n"}, 1),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "max 100000\n"}, None),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": "a lot\n"}, None),
        ({"/proc/self/cgroup": "0::/\n"}, None),
        ({}, None),
        ({"/proc/self/cgroup": "4:cpu,cpuacct:/box\n0::/\n", "/sys/fs/cgroup/cpu/box/cpu.cfs_quota_us": "300000\n",
          "/sys/fs/cgroup/cpu/box/cpu.cfs_period_us": "100000\n"}, 3),
        ({"/proc/self/cgroup": "1:cpu:/\n0::/\n", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "-1\n",
          "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"/proc/self/cgroup": "1:cpu:/\n", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "100000\n"}, None),
    ])
    def test_quota_of_the_own_cgroup(self, monkeypatch, files, quota):
        monkeypatch.setattr(cli, "_read_text", files.get)
        assert cli._cgroup_cpu_quota() == quota

    @pytest.mark.parametrize("cpus, limit, forks", [(4, "200000 100000", 1), (2, "800000 100000", 1),
                                                    (3, "max 100000", 2)])
    def test_quota_caps_the_workers(self, monkeypatch, cpus, limit, forks):
        files = {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/cpu.max": limit}
        monkeypatch.setattr(cli, "_read_text", files.get)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(cli, "_FORK_MIN_COST", 0)
        calls = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
        assert cli._run_jobs(lambda j: j * j, list(range(8)), 1) == [j * j for j in range(8)]
        assert len(calls) == forks and no_children_left()


class TestWorkerProcesses:
    """collect's traces run on forked workers once their cost reaches `cli._FORK_MIN_COST`, and
    refine runs serially; every output byte is that of the serial loop."""

    def pipeline(self, tmp_path, monkeypatch, overrides, collect_rc, cpus):
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(cli, "_cgroup_cpu_quota", lambda: None)
        monkeypatch.setattr(cli, "_FORK_MIN_COST", 0)
        tmp_path.mkdir()
        cfg = write_config(tmp_path, **overrides)
        assert run(["--config", cfg, "collect"]) == collect_rc
        assert run(["--config", cfg, "build"]) == 0
        assert run(["--config", cfg, "refine"]) == 0
        out = tmp_path / "out"
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}, len(forks)

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_forked_pipeline_writes_the_serial_bytes(self, tmp_path, monkeypatch, name):
        overrides, collect_rc = PIPELINES[name]
        serial, no_forks = self.pipeline(tmp_path / "serial", monkeypatch, overrides, collect_rc, cpus=1)
        forked, forks = self.pipeline(tmp_path / "forked", monkeypatch, overrides, collect_rc, cpus=3)
        assert no_forks == 0 and forks == 2  # collect's two children; refine forks none
        assert list(forked) == list(serial)
        for path, data in serial.items():
            assert forked[path] == data, path
        assert {"collect_manifest.json", "model.json", "model.tra", "model.lab"} <= {str(p) for p in serial}
        manifest = json.loads(serial[Path("collect_manifest.json")])
        if collect_rc:
            assert len(manifest["traces"]) == 5 and len(manifest["failures"]) == 1
            assert manifest["failures"][0]["error"].startswith("cstr: state diverged at t=")
        assert len(json.loads(serial[Path("model.json")])["classifiers"]) >= 2


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
            [f"monitored_{i:04d}.trace" for i in range(8) if i not in failed]
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

    def test_refine_refuses_rows_outside_the_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "2"])
        assert run(["--config", cfg, "build"]) == 0
        path = tmp_path / "out" / "traces" / "trace_0001.trace"
        trace, extras = signals.load_trace(path)
        states = trace.states.copy()
        states[2, 0] = 1000.0
        config_hash = json.loads((tmp_path / "out" / "collect_manifest.json").read_text())["config_hash"]
        path.write_bytes(signals.trace_bytes(trace.replace(states=states), config_hash, extras))
        capsys.readouterr()
        assert run(["--config", cfg, "refine"]) == 2
        assert "error: trace 1: row 2 lies outside the grid of the model it refines" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"abstraction": {"c": 5}},
         "error: abstraction schema mismatch: model was built with k=2, c=4, config asks for k=2, c=5\n"),
        (None, "model.json missing (run build first)\n"),
    ], ids=["other_c", "no_model"])
    def test_refine_needs_the_model_of_its_config(self, tmp_path, capsys, change, message):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "2"])
        assert run(["--config", cfg, "build"]) == 0
        if change is None:
            (tmp_path / "out" / "model.json").unlink()
        else:
            cfg = write_config(tmp_path, **change)
        capsys.readouterr()
        assert run(["--config", cfg, "refine"]) == 2
        assert capsys.readouterr().err.endswith(message)

    def test_model_json_roundtrips(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect"])
        run(["--config", cfg, "build"])
        path = tmp_path / "out" / "model.json"
        model = abstraction.load_model(path)
        assert abstraction.model_to_json(model, json.loads(path.read_text())["config_hash"]) == path.read_text()

    @pytest.mark.parametrize("defect, where", [
        ("column row wider than the body", ": the body has 6 columns, the column row names 7"),
        ("body narrower than the column row", ": the body has 5 columns, the column row names 6"),
        ("no action column", ":4: the column row needs 'time' first and an 'action' column"),
        ("truncated body", ": body: Failed to read all data for array"),
        ("bytes after the array", ": bytes after the body's array"),
        ("v1 text trace", ":1: not a cpsguard-trace v2 file: its first line is '# cpsguard-trace v1'"),
    ])
    def test_malformed_trace_names_the_file(self, tmp_path, capsys, defect, where):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "2"])
        path = tmp_path / "out" / "traces" / "trace_0001.trace"
        lines, body = read_trace_file(path)
        assert lines[3].startswith("time ")  # the column row follows three comment lines
        data = np.lib.format.read_array(io.BytesIO(body), allow_pickle=False)
        if defect == "column row wider than the body":
            lines[3] += " extra"
        elif defect == "body narrower than the column row":
            out = io.BytesIO()
            np.lib.format.write_array(out, data[:, :-1], allow_pickle=False)
            body = out.getvalue()
        elif defect == "no action column":
            lines[3] = lines[3].replace("action", "act")
        elif defect == "truncated body":
            body = body[:-8]
        elif defect == "bytes after the array":
            body += b"\n"
        else:
            lines[0] = "# cpsguard-trace v1"
            body = "".join(" ".join(map(repr, row)) + "\n" for row in data.tolist()).encode()
        write_trace_file(path, lines, body)
        capsys.readouterr()
        assert run(["--config", cfg, "build"]) == 2
        assert f"error: {path}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["abc", "-0.5", "0", "nan", "inf"])
    def test_bad_dt_names_the_file(self, tmp_path, capsys, dt):
        cfg = write_config(tmp_path)
        run(["--config", cfg, "collect", "--num", "2"])
        path = tmp_path / "out" / "traces" / "trace_0001.trace"
        lines, body = read_trace_file(path)
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("# dt="))
        lines[lineno - 1] = f"# dt={dt}"
        write_trace_file(path, lines, body)
        capsys.readouterr()
        assert run(["--config", cfg, "build"]) == 2
        assert (f"error: {path}:{lineno}: dt must be a finite positive number, got {dt!r}"
                in capsys.readouterr().err)

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

    def test_check_prints_the_error_bound(self, tmp_path, capsys):
        cfg, _ = self.build_model(tmp_path)
        line = re.compile(r"state \S+: holds=(True|False) probability=\S+ \((MAX|MIN)\)( error<=(\S+))?\n")
        for query, bounded in (('P>0.5 [ F "rob=-1" ]', False), ('P>0.5 [ G "rob=+1" ]', False),
                               ('P>0.5 [ "rob=+1" U "rob=-1" ]', False), ('P>0.8 [ F<=10 "rob=-1" ]', True),
                               ('P>0.5 [ X "rob=-1" ]', True)):
            for sem in ("MAX", "MIN"):
                capsys.readouterr()
                assert run(["--config", cfg, "check", "--query", query, "--semantics", sem]) == 0
                match = line.fullmatch(capsys.readouterr().out)
                assert match and match.group(2) == sem
                assert (match.group(4) == "0.0e+00") if bounded else (float(match.group(4)) <= 1e-12)
        assert run(["--config", cfg, "check", "--query", '"rob=+1"']) == 0
        assert line.fullmatch(capsys.readouterr().out).group(3) is None

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

    @pytest.mark.parametrize("flags, code", [([], 0), (["--assert-holds"], 3)], ids=["plain", "assert"])
    def test_state_file_outside_every_cell_is_unknown(self, tmp_path, capsys, flags, code):
        cfg, model = self.build_model(tmp_path)
        vec = tmp_path / "state.json"
        vec.write_text(json.dumps([1e6] * len(model.pca.mean)))
        capsys.readouterr()
        assert run(["--config", cfg, "check", "--state-file", vec, *flags]) == code
        assert capsys.readouterr().out == "state: UNKNOWN (outside every observed cell)\n"

    @pytest.mark.parametrize("text", [
        lambda width: '{"a": 1}',
        lambda width: json.dumps([float("nan")] + [0.0] * (width - 1)),
        lambda width: json.dumps([1.0, 2.0] + [0.0] * width),
        lambda width: json.dumps([True] * width),
        lambda width: "[1, 2",
    ])
    def test_bad_state_file_exits_2_naming_it(self, tmp_path, capsys, text):
        cfg, model = self.build_model(tmp_path)
        width = len(model.pca.mean)
        vec = tmp_path / "state.json"
        vec.write_text(text(width))
        capsys.readouterr()
        assert run(["--config", cfg, "check", "--state-file", vec]) == 2
        assert capsys.readouterr().err == f"error: {vec}: expected a JSON list of {width} finite numbers\n"


MODEL_DEFECTS = {
    "row_sum": lambda doc: doc["transitions"][0].__setitem__(3, doc["transitions"][0][3] + 0.25),
    "unknown_src": lambda doc: doc["transitions"][0].__setitem__(0, "c999999"),
    "unknown_dst": lambda doc: doc["transitions"][0].__setitem__(2, "c999999"),
    "label": lambda doc: doc["states"][0].__setitem__("label", 0),
    "bounds": lambda doc: doc["abstraction"]["bounds"].__delitem__(-1),
    "pca_shape": lambda doc: doc["pca"]["components"].__delitem__(-1),
    "classifier_width": lambda doc: doc.__setitem__("classifiers", [{"cell": 0, "w": [1.0], "b": 0.0}]),
    "nan_prob": lambda doc: doc["transitions"][0].__setitem__(3, float("nan")),
    "duplicate_row": lambda doc: doc["transitions"].insert(1, list(doc["transitions"][0])),
    "not_an_object": lambda doc: [],
    "missing_section": lambda doc: doc.__delitem__("abstraction"),
    "unlisted_initial": lambda doc: doc.__setitem__("initial", "c99999"),
    "not_json": lambda doc: "{not json",
    "states_not_a_list": lambda doc: doc.__setitem__("states", 5),
    "abstraction_not_an_object": lambda doc: doc.__setitem__("abstraction", []),
    "missing_nested_key": lambda doc: doc["abstraction"].__delitem__("k"),
    "missing_state_key": lambda doc: doc["states"][0].__delitem__("support"),
    "bad_state_id": lambda doc: doc["states"][0].__setitem__("id", "x1"),
    "short_row": lambda doc: doc["transitions"][0].pop(),
    "long_row": lambda doc: doc["transitions"][-1].append(0.0),
}  # each edits the model in place and returns None, or returns what replaces it (text as it is)


class TestModelValidation:
    @pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
    def test_broken_model_exits_2(self, tmp_path, capsys, defect):
        cfg, _ = TestCheck().build_model(tmp_path)
        path = tmp_path / "out" / "model.json"
        assert run(["--config", cfg, "check"]) == 0
        doc = json.loads(path.read_text())
        replaced = MODEL_DEFECTS[defect](doc)
        path.write_text(replaced if isinstance(replaced, str) else json.dumps(doc if replaced is None else replaced))
        capsys.readouterr()
        assert run(["--config", cfg, "check"]) == 2
        assert f"error: {path}:" in capsys.readouterr().err


class TestTransitionView:
    def test_check_monitor_and_guided_falsify_never_build_the_dict_view(self, tmp_path, monkeypatch):
        cfg, _ = TestCheck().build_model(tmp_path)
        path = tmp_path / "out" / "model.json"
        doc = json.loads(path.read_text())
        doc["transitions"].reverse()  # a hand-edited row and state order takes the sorting paths too
        doc["states"].reverse()
        (tmp_path / "rev").mkdir()
        (tmp_path / "rev" / "model.json").write_text(json.dumps(doc))

        def refuse(model):
            raise AssertionError("a dict view of the model was built")

        monkeypatch.setattr(abstraction.AbstractMdp, "transitions", property(refuse))
        monkeypatch.setattr(abstraction.AbstractMdp, "states", property(refuse))
        for out in ("out", "rev"):
            for query in ('P>0.8 [ F<=10 "rob=-1" ]', 'P>0.5 [ "rob=+1" U "rob=-1" ]', 'P>0.5 [ G "rob=+1" ]'):
                for sem in ("MAX", "MIN"):
                    assert run(["--config", cfg, "--out-dir", out, "check", "--query", query, "--semantics", sem]) == 0
            assert run(["--config", cfg, "--out-dir", out, "monitor", "--runs", "2"]) == 0
            assert run(["--config", cfg, "--out-dir", out, "falsify", "--algo", "guided", "--trials", "2"]) == 0
            assert run(["--config", cfg, "--out-dir", out, "report"]) == 0

    def test_reversed_rows_check_the_same(self, tmp_path, capsys):
        cfg, _ = TestCheck().build_model(tmp_path)
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        doc["transitions"].reverse()
        (tmp_path / "rev").mkdir()
        (tmp_path / "rev" / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        lines = []
        for out in ("out", "rev"):
            assert run(["--config", cfg, "--out-dir", out, "check", "--query", 'P>0.5 [ F "rob=-1" ]']) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] and lines[0].startswith("state ")


class TestMonitorCmd:
    def test_all_safe_model_matches_ai_only_metrics(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, labeling_spec="G[0,5](level >= -100)")
        run(["--config", cfg_path, "collect"])
        run(["--config", cfg_path, "build"])
        assert run(["--config", cfg_path, "monitor", "--runs", "2"]) == 0
        metrics = json.loads((tmp_path / "out" / "monitor_metrics.json").read_text())
        # recompute the AI-only metrics with the same seeds
        cfg = cli.load_config(str(cfg_path))
        controller = cfg.controller()
        for row, seed in zip(metrics["runs"], cli._spawn_seeds(cfg.seed, "monitor", 2)):
            rng = np.random.default_rng(seed)
            sig = signals.random_signal(cfg.input_spec, rng)
            trace = plants.simulate(cfg.plant, controller, sig, cfg.simcfg)
            s, p = monitor.eval_metrics(trace, cfg.safety_metric, cfg.performance_metric)
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


# (command, the file it reads back, its text, what the error says after the file name)
READ_BACK_DEFECTS = [
    ("build", "collect_manifest.json", '{"traces": 5}', ": 'traces' must be a JSON list"),
    ("refine", "collect_manifest.json", '{"traces": 5}', ": 'traces' must be a JSON list"),
    ("build", "collect_manifest.json", '{"traces": [{"file": 3}]}',
     ": each entry of 'traces' must be an object with a string 'file'"),
    ("build", "collect_manifest.json", '{"traces": [5]}',
     ": each entry of 'traces' must be an object with a string 'file'"),
    ("build", "collect_manifest.json", "not json", ": Expecting value: line 1 column 1 (char 0)"),
    ("report", "collect_manifest.json", "[1]", ": expected a JSON object"),
    ("report", "collect_manifest.json", '{"traces": [], "failures": 0}', ": 'failures' must be a JSON list"),
    ("report", "monitor_metrics.json", '{"runs": 3, "mean_safety_frac": 1.0, "mean_perf_frac": 1.0}',
     ": 'runs' must be a JSON list"),
    ("report", "falsify_random.json", '"random"', ": expected a JSON object"),
    ("report", "monitor_metrics.json", '{"runs": [], "mean_perf_frac": 1.0}',
     ": 'mean_safety_frac' must be a finite number or null"),
    ("report", "monitor_metrics.json", '{"runs": [], "mean_safety_frac": "x", "mean_perf_frac": 1.0}',
     ": 'mean_safety_frac' must be a finite number or null"),
    ("report", "monitor_metrics.json", '{"runs": [], "mean_safety_frac": 1.0, "mean_perf_frac": [1]}',
     ": 'mean_perf_frac' must be a finite number or null"),
    ("report", "falsify_random.json", '{"fsr": 1, "trials": 2, "mean_sims_success": 1.5}',
     ": 'algo' must be a string"),
    ("report", "falsify_random.json", '{"algo": 3, "fsr": 1, "trials": 2, "mean_sims_success": 1.5}',
     ": 'algo' must be a string"),
    ("report", "falsify_random.json", '{"algo": "random", "fsr": "1", "trials": 2, "mean_sims_success": 1.5}',
     ": 'fsr' must be an integer"),
    ("report", "falsify_random.json", '{"algo": "random", "fsr": 1, "mean_sims_success": null}',
     ": 'trials' must be an integer"),
    ("report", "falsify_random.json", '{"algo": "random", "fsr": 1, "trials": true, "mean_sims_success": null}',
     ": 'trials' must be an integer"),
    ("report", "falsify_random.json", '{"algo": "random", "fsr": 1, "trials": 2}', ": 'mean_sims_success' must be a"),
    ("report", "falsify_random.json", '{"algo": "random", "fsr": 1, "trials": 2, "mean_sims_success": "x"}',
     ": 'mean_sims_success' must be a finite number or null"),
]


class TestReadBack:
    @pytest.mark.parametrize("command, name, text, message", READ_BACK_DEFECTS)
    def test_malformed_file_exits_2_naming_it(self, tmp_path, capsys, command, name, text, message):
        cfg = write_config(tmp_path)
        path = tmp_path / "out" / name
        path.parent.mkdir()
        path.write_text(text)
        assert run(["--config", cfg, command]) == 2
        assert f"error: {path}{message}" in capsys.readouterr().err


# (overrides, the dotted path the error names, what a value there takes; None for an unknown key)
CONFIG_DEFECTS = [
    ({"monitor": {"perod": 1.0}}, "monitor.perod", None),
    ({"sede": 3}, "sede", None),
    ({"controller": {"kind": "pid", "kP": 1.0}}, "controller.kP", None),
    # a value of the wrong JSON type
    ({"monitor": {"period": "1"}}, "monitor.period", "a finite number"),
    ({"sim": {"dt": None}}, "sim.dt", "a finite number"),
    ({"input": {"duration": "5"}}, "input.duration", "a finite number"),
    ({"controller": {"kind": "pid", "kp": [1]}}, "controller.kp", "a finite number"),
    ({"falsify": {"trials": 2.5}}, "falsify.trials", "an integer"),
    ({"sim": {"horizon": float("inf")}}, "sim.horizon", "a finite number"),
    ({"seed": 3.7}, "seed", "an integer"),
    ({"abstraction": {"k": True}}, "abstraction.k", "an integer"),
    ({"monitor": {"switch_back": 1}}, "monitor.switch_back", "true or false"),
    ({"monitor": 5}, "monitor", "an object"),
    ({"plant": {"name": "acc", "params": None}}, "plant.params", "an object"),
    # contents of the two values whose shape their type does not fix
    ({"plant": {"params": {"inflow_max": [1]}}}, "plant.params.inflow_max", "a finite number"),
    ({"plant": {"params": {"area": "2"}}}, "plant.params.area", "a finite number"),
    ({"input": {"ranges": [1, 2]}}, "input.ranges[0]", "a [lo, hi] pair of finite numbers"),
    ({"input": {"ranges": [[0.0, 1.0], [0.0, "1"]]}}, "input.ranges[1]", "a [lo, hi] pair of finite numbers"),
    ({"input": {"ranges": [[0.0, 1.0, 2.0]]}}, "input.ranges[0]", "a [lo, hi] pair of finite numbers"),
    # every integer key is a count or a seed
    ({"collect": {"num_traces": -2}}, "collect.num_traces", "a non-negative integer, not -2"),
    ({"falsify": {"trials": -1}}, "falsify.trials", "a non-negative integer, not -1"),
    ({"seed": -4}, "seed", "a non-negative integer, not -4"),
]


# (what the config file holds, the usage error it gets; {path} is the file, {dir} its directory;
# None makes the path a directory)
CONFIG_FILE_DEFECTS = [
    ("[1]", "config file {path}: expected a JSON object"),
    ("{not json", "config file {path}: Expecting property name enclosed in double quotes"),
    (b'{"seed": 1}\xff', "config file {path}: 'utf-8' codec can't decode byte 0xff in position 11"),
    (None, "config file {path}: Is a directory"),
    ({"controller": {"kind": "mlp"}}, "controller: mlp controller needs a 'path'"),
    ({"controller": {"kind": "mlp", "path": "missing.txt"}}, "controller: weights file {dir}/missing.txt does not exist"),
    ({"controller": {"kind": "lqr"}}, "controller: unknown controller kind 'lqr'"),
]

SPEC = "G[0,1](level >= 100)"  # violated at once: one simulation per trial
QUERY = 'P>0.5 [ F<=5 "rob=-1" ]'
FALSIFY = ["falsify", "--algo", "random", "--trials", "2"]
# (arguments with a flag, the same without it, the config values the flag stands for)
FLAG_CASES = [
    (["--seed", "8", "collect", "--num", "2"], ["collect", "--num", "2"], {"seed": 8}),
    ([*FALSIFY, "--spec", SPEC], FALSIFY, {"falsify": {"spec": SPEC}}),
    ([*FALSIFY, "--spec", SPEC, "--query", QUERY], [*FALSIFY, "--spec", SPEC], {"falsify": {"query": QUERY}}),
    (["collect", "--num", "2"], ["collect"], {"collect": {"num_traces": 2}}),
    (["monitor", "--runs", "2"], ["monitor"], {"monitor": {"num_runs": 2}}),
    ([*FALSIFY, "--spec", SPEC], ["falsify", "--algo", "random", "--spec", SPEC], {"falsify": {"trials": 2}}),
]

# (a value of the right JSON type that the type its section builds refuses, the section, the message)
SECTION_DEFECTS = [
    ({"falsify": {"queue_seed_count": 0}}, "falsify", "queue_seed_count must be >= 1"),
    ({"input": {"num_control_points": 0}}, "input", "num_control_points must be >= 1"),
    ({"abstraction": {"c": 1}}, "abstraction", "c must be >= 2"),
    ({"monitor": {"unknown_policy": "X"}}, "monitor", "unknown_policy must be SAFE or AI, got 'X'"),
    ({"sim": {"dt": 0}}, "sim", "dt must be positive"),
    ({"sim": {"horizon": 1e300}}, "sim", "horizon 1e+300 at dt 0.05 takes more steps than an array can hold"),
    ({"falsify": {"trials": 0}}, "falsify", "trials must be >= 1"),
    ({"plant": {"params": {"area": 0}}}, "plant", "watertank parameter 'area' must be positive, got 0.0"),
    ({"plant": {"name": "acc", "params": {"t_gap": 0}}}, "plant", "acc parameter 't_gap' must be positive, got 0.0"),
    ({"plant": {"name": "cstr", "params": {"theta": 0}}}, "plant", "cstr parameter 'theta' must be positive, got 0.0"),
    ({"plant": {"name": "cstr", "params": {"temp0": 0}}}, "plant", "cstr parameter 'temp0' must be positive, got 0.0"),
    ({"plant": {"params": {"inflow_min": 3, "inflow_max": 0}}}, "plant",
     "watertank control range is empty: inflow_min 3.0 is not below inflow_max 0.0"),
]


@pytest.fixture(scope="module")
def built_model(tmp_path_factory):
    """A model.json of `write_config`'s config, for a command that reads one."""
    tmp_path = tmp_path_factory.mktemp("built")
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "collect"]) == 0 and run(["--config", cfg, "build"]) == 0
    return tmp_path / "out" / "model.json"


class TestUsage:
    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/cfg.json", "collect"]) == 1

    def test_bad_flag_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for args, message in (
            (["collect", "--num", "notanumber"], "argument --num: invalid int value: 'notanumber'"),
            (["collect", "--num", "-3"], "config key 'collect.num_traces' takes a non-negative integer, not -3"),
            (["monitor", "--runs", "-2"], "config key 'monitor.num_runs' takes a non-negative integer, not -2"),
            (["falsify", "--trials", "-1"], "config key 'falsify.trials' takes a non-negative integer, not -1"),
            (["--seed", "-1", "build"], "config key 'seed' takes a non-negative integer, not -1"),
            (["check", "--state", "c0", "--state-file", "f.json"],
             "argument --state-file: not allowed with argument --state"),
        ):
            assert main(["--config", str(cfg), *args]) == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,path,takes", CONFIG_DEFECTS,
                             ids=[f"overrides{i}-{path}" for i, (_, path, _) in enumerate(CONFIG_DEFECTS)])
    def test_unknown_config_key_exits_1_naming_it(self, tmp_path, capsys, overrides, path, takes):
        cfg = write_config(tmp_path, **overrides)
        assert run(["--config", cfg, "collect", "--num", "1"]) == 1
        message = f"unknown config key {path!r}" if takes is None else f"config key {path!r} takes {takes}"
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", CONFIG_FILE_DEFECTS,
                             ids=["list", "not_json", "not_utf8", "directory", "mlp_no_path", "mlp_missing_file",
                                  "lqr"])
    def test_bad_config_file_or_controller_exits_1(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "config.json"
        if content is None:
            cfg.mkdir()
        elif isinstance(content, bytes):
            cfg.write_bytes(content)
        elif isinstance(content, str):
            cfg.write_text(content)
        else:
            write_config(tmp_path, **content)
        assert run(["--config", cfg, "collect", "--num", "1"]) == 1
        assert capsys.readouterr().err.startswith("usage error: " + message.format(path=cfg, dir=tmp_path))

    @pytest.mark.parametrize("with_flag, without, config", FLAG_CASES,
                             ids=["seed", "spec", "query", "num", "runs", "trials"])
    def test_a_flag_writes_what_its_config_value_writes(self, tmp_path, built_model, with_flag, without, config):
        """Byte-identical outputs, config hash included, whether a value comes from a flag or the file."""
        outputs = []
        for side, args, values in (("flag", with_flag, {}), ("file", without, config)):
            out = tmp_path / side / "out"
            out.mkdir(parents=True)
            shutil.copy(built_model, out)
            assert run(["--config", write_config(tmp_path / side, **values), *args]) == 0
            outputs.append({path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()})
        assert outputs[0] == outputs[1] and outputs[0]

    @pytest.mark.parametrize("command", [["collect"], ["falsify", "--algo", "random"]], ids=["collect", "falsify"])
    @pytest.mark.parametrize("overrides, section, message", SECTION_DEFECTS,
                             ids=["falsify", "input", "abstraction", "monitor", "sim", "sim_steps", "trials", "area",
                                  "t_gap", "theta", "temp0", "control_range"])
    def test_a_value_its_section_refuses_exits_2_before_any_output(self, tmp_path, capsys, overrides, section,
                                                                   message, command):
        cfg = write_config(tmp_path, **overrides)
        assert run(["--config", cfg, *command]) == 2
        assert capsys.readouterr() == ("", f"error: config section '{section}': {message}\n")
        assert not (tmp_path / "out").exists()

    def test_an_array_too_large_to_allocate_exits_2(self, tmp_path, capsys, built_model):
        # 10**18 steps: within what an array can index, but 8 EB, more than any address space,
        # so the allocation fails at once whatever the kernel's overcommit policy
        cfg = write_config(tmp_path, sim={"horizon": 5e16})
        assert run(["--config", cfg, "collect", "--num", "1"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out" / "traces").exists()  # no output directory is made before its first file
        (tmp_path / "out").mkdir()
        shutil.copy(built_model, tmp_path / "out")
        assert run(["--config", cfg, "monitor", "--runs", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "monitored").exists()

    def test_every_null_default_has_a_type(self):
        def null_paths(section, prefix=""):
            for key, value in section.items():
                if isinstance(value, dict):
                    yield from null_paths(value, prefix + key + ".")
                elif value is None:
                    yield prefix + key
        assert sorted(null_paths(cli.DEFAULT_CONFIG)) == sorted(cli._NULL_DEFAULT_TYPES)

    def test_values_of_the_right_type_are_taken(self, tmp_path):
        cfg = write_config(tmp_path, sim={"horizon": 4}, controller={"kind": "pid", "kp": 2, "path": None},
                           input={"duration": 3, "ranges": [[0.0, 1.0]]}, falsify={"spec": "G[0,1](level >= 0)"})
        cfg = cli.load_config(str(cfg))
        assert (cfg.simcfg.horizon, cfg.controller().kp, cfg.input_spec.duration) == (4, 2.0, 3)

    def test_plant_params_are_left_to_the_plant(self, tmp_path, capsys):
        cfg = write_config(tmp_path, plant={"name": "watertank", "params": {"inflow_max": 2.5}})
        assert cli.load_config(str(cfg)).plant.control_range == (0.0, 2.5)
        cfg = write_config(tmp_path, plant={"name": "watertank", "params": {"inflow_mx": 2.5}})
        assert run(["--config", cfg, "collect", "--num", "1"]) == 2
        assert "unknown watertank parameter 'inflow_mx'" in capsys.readouterr().err

    def test_determinism_of_whole_pipeline(self, tmp_path):
        cfg_a = write_config(tmp_path / "a") if (tmp_path / "a").mkdir() is None else None
        cfg_b = write_config(tmp_path / "b") if (tmp_path / "b").mkdir() is None else None
        for cfg in (cfg_a, cfg_b):
            run(["--config", cfg, "collect"])
            run(["--config", cfg, "build"])
        bytes_a = (tmp_path / "a" / "out" / "model.json").read_bytes()
        bytes_b = (tmp_path / "b" / "out" / "model.json").read_bytes()
        assert bytes_a == bytes_b


# in-process calls in a row, each compared with the same call alone in a fresh process
CALL_SEQUENCES = [
    [["check", "--query", QUERY, "--semantics", "MIN"], ["check"]],
    [["--seed", "5", "falsify", "--trials", "1"], ["falsify"]],
    [["check", "--semantics", "AVG"], ["check"]],
]
FRESH_MAIN = "import sys; from cpsguard.cli import main; sys.exit(main(sys.argv[1:]))"


def without_times(stdout):
    """A command's stdout with falsify's wall times, which no two runs share, blanked."""
    stdout = re.sub(r"time=\S+", "time=-", stdout)
    return re.sub(r"(?m)^(\s*\d+\s+(?:True|False)\s+)\S+", r"\1-", stdout)


class TestParserReuse:
    @pytest.mark.parametrize("calls", CALL_SEQUENCES, ids=["check", "falsify", "usage_error"])
    def test_each_call_gives_what_it_gives_alone(self, tmp_path, built_model, capsys, calls):
        """One parser serves every main call of a process; no flag of one call reaches the next."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                             os.environ.get("PYTHONPATH", "")])}
        configs = []
        for side in ("reused", "fresh"):
            (tmp_path / side / "out").mkdir(parents=True)
            shutil.copy(built_model, tmp_path / side / "out")
            configs.append(write_config(tmp_path / side))
        for args in calls:
            results = []
            for cfg in configs:
                argv = ["--config", str(cfg), *args]
                if cfg.parent.name == "reused":
                    code = main(argv)
                    out, err = capsys.readouterr()
                else:
                    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], capture_output=True, text=True,
                                          env=env, check=False)
                    code, out, err = proc.returncode, proc.stdout, proc.stderr
                files = {path.relative_to(cfg.parent): path.read_bytes()
                         for path in (cfg.parent / "out").rglob("*") if path.is_file()}
                results.append((code, without_times(out), err, files))
            assert results[0] == results[1], args
