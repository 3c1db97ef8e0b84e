"""Command-line front end and experiment orchestration.

Subcommands: collect, build, refine, check, monitor, falsify, report.
A single JSON config file describes a whole experiment; a flag that
stands for a config key overrides it, and every section is built, and so
checked, when the config loads. Every output file embeds a short hash of
the resolved config, all writes are atomic (temp file + rename), and all
randomness flows from the root seed through per-trace / per-trial spawned
streams, so a command with a fixed seed produces byte-identical outputs
across runs, whatever the number of CPUs `collect`, `monitor` and
`falsify` run on. Wall-clock timings are printed, never persisted:
falsify's per-trial times and monitor's per-run query and wall times
come from the clocks of the workers that ran them, and the parent's one
solve of the monitor query's verdicts, made before any run, is added
once to both sides of monitor's overhead ratio.

Exit codes: 0 ok, 1 usage error, 2 runtime failure, 3 property violated
(check with --assert-holds).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import pickle
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from signal import SIGKILL

import numpy as np

from . import abstraction, controllers, falsify, monitor, pmc, plants, signals, stl

DEFAULT_CONFIG = {
    "seed": 0,
    "output_dir": "out",
    "plant": {"name": "acc", "params": {}},
    "sim": {"dt": 0.1, "horizon": 50.0, "control_period": 0.1},
    "input": {"num_control_points": 6, "interpolation": "pconst", "duration": None, "ranges": None},
    "controller": {"kind": "pid", "path": None, "kp": None, "ki": None, "kd": None},
    "safety_controller": {"kind": "pid", "path": None, "kp": None, "ki": None, "kd": None},
    "labeling_spec": "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)",
    "collect": {"num_traces": 2000},
    "abstraction": {"k": 3, "c": 10, "label_threshold": 0.0, "variance_threshold": 0.0},
    "monitor": {
        "query": 'P>0.8 [ F<=10 "rob=-1" ]',
        "period": 5.0,
        "unknown_policy": "SAFE",
        "switch_back": True,
        "num_runs": 20,
        "safety_metric": "G[0,50](d_rel - d_safe >= 0)",
        "performance_metric": "G[0,50](abs(v_ego - v_target) <= 0.2)",
    },
    "falsify": {
        "spec": None,  # defaults to labeling_spec
        "query": 'P>0.8 [ F<=10 "rob=-1" ]',
        "queue_seed_count": 4,
        "global_budget": 5,
        "local_budget": 10,
        "checkpoint_time": 5.0,
        "step_init": 0.1,
        "step_decay": 0.85,
        "step_growth": 1.5,
        "trials": 10,
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The type of each key whose default is null, by dotted path; such a key also takes null.
_NULL_DEFAULT_TYPES = {
    "input.duration": float, "input.ranges": list, "falsify.spec": str,
    **{f"{section}.{key}": kind for section in ("controller", "safety_controller")
       for key, kind in (("path", str), ("kp", float), ("ki", float), ("kd", float))},
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
               dict: "an object", list: "a list"}


def _finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """`override` laid over `base`. A UsageError names the dotted path of a key
    `base` lacks or of a value of another JSON type than the one `base` holds:
    an integer takes a non-negative integer (every one is a count or a seed),
    a float any finite number, and a bool is not a number; a key in
    `_NULL_DEFAULT_TYPES` takes null or its type there.
    plant.params takes an object of finite numbers, whose names `make_plant`
    checks, and input.ranges a list of [lo, hi] pairs of finite numbers."""
    out = dict(base)
    for key, value in override.items():
        path = prefix + key
        if key not in base:
            raise UsageError(f"unknown config key {path!r}")
        kind = _NULL_DEFAULT_TYPES.get(path, type(base[key]))
        fits = _finite(value) if kind is float else type(value) is kind
        if not (fits or value is None and path in _NULL_DEFAULT_TYPES):
            raise UsageError(f"config key {path!r} takes {_TYPE_NAMES[kind]}, not {json.dumps(value)}")
        if kind is int and value < 0:
            raise UsageError(f"config key {path!r} takes a non-negative integer, not {value}")
        if path == "plant.params":
            for name, param in value.items():
                if not _finite(param):
                    raise UsageError(f"config key '{path}.{name}' takes a finite number, not {json.dumps(param)}")
        if path == "input.ranges":
            for i, pair in enumerate(value or ()):
                if not (type(pair) is list and len(pair) == 2 and all(map(_finite, pair))):
                    raise UsageError(f"config key '{path}[{i}]' takes a [lo, hi] pair of finite numbers, "
                                     f"not {json.dumps(pair)}")
        out[key] = _merge(base[key], value, path + ".") if kind is dict and path != "plant.params" else value
    return out


class RunConfig(stl.Record):
    """A merged and hashed config with each section built by `load_config`. The controllers
    alone are built on demand, since an mlp one reads its weights file."""

    # falsify_config has seed 0; each trial replaces it with its own
    __slots__ = ("raw", "config_hash", "base_dir", "plant", "simcfg", "input_spec", "labeling_spec",
                 "abstraction_config", "monitor_config", "safety_metric", "performance_metric", "falsify_config")

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def output_dir(self) -> Path:
        return self.base_dir / self.raw["output_dir"]

    def controller(self, which: str = "controller"):
        section = self.raw[which]
        if section["kind"] == "mlp":
            if not section["path"]:
                raise UsageError(f"{which}: mlp controller needs a 'path'")
            full = self.base_dir / section["path"]
            if not full.exists():
                raise UsageError(f"{which}: weights file {full} does not exist")
            return controllers.load_mlp(full)
        if section["kind"] == "pid":
            gains = {gain: float(section[gain]) for gain in ("kp", "ki", "kd") if section[gain] is not None}
            return plants.default_pid(self.plant).replace(**gains)
        raise UsageError(f"{which}: unknown controller kind {section['kind']!r}")


@contextmanager
def _section(name: str):
    """Prefixes a ValueError raised while building a config section with the section's name."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config section {name!r}: {exc}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """The defaults, then the file at `path`, then `overrides`, merged and hashed, with every
    section built. A file or key the config cannot take is a UsageError; a value that the
    type of its section refuses is a ValueError naming the section."""
    raw = DEFAULT_CONFIG
    base_dir = Path.cwd()
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:  # missing, a directory, unreadable
            raise UsageError(f"config file {path}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise UsageError(f"config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"config file {path}: expected a JSON object")
        raw = _merge(raw, doc)
        base_dir = Path(path).parent
    if overrides:
        raw = _merge(raw, overrides)
    canonical = json.dumps(raw, sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    with _section("plant"):
        plant = plants.make_plant(raw["plant"]["name"], raw["plant"]["params"])
    with _section("sim"):
        simcfg = plants.SimConfig(**raw["sim"])
    with _section("input"):
        section = raw["input"]
        duration = section["duration"] if section["duration"] is not None else simcfg.horizon
        input_spec = plants.default_input_spec(plant, section["num_control_points"], duration, section["interpolation"])
        if section["ranges"] is not None:
            input_spec = input_spec.replace(dims=len(section["ranges"]), ranges=section["ranges"])
    with _section("labeling_spec"):
        labeling_spec = stl.parse_stl(raw["labeling_spec"])
    with _section("abstraction"):
        abstraction_config = abstraction.AbstractionConfig(**raw["abstraction"])
    with _section("monitor"):
        m = raw["monitor"]
        monitor_config = monitor.MonitorConfig(query=pmc.parse_pctl(m["query"]), period=m["period"],
                                               unknown_policy=m["unknown_policy"], switch_back=m["switch_back"])
        safety_metric = stl.parse_stl(m["safety_metric"])
        performance_metric = stl.parse_stl(m["performance_metric"])
    with _section("falsify"):
        f = raw["falsify"]  # every key but the command-level spec, query and trials is a FalsifyConfig field
        search = {key: value for key, value in f.items() if key not in ("spec", "query", "trials")}
        if f["trials"] < 1:
            raise ValueError("trials must be >= 1")
        falsify_config = falsify.FalsifyConfig(stl_spec=stl.parse_stl(f["spec"]) if f["spec"] else labeling_spec,
                                               safety_query=pmc.parse_pctl(f["query"]), **search)
    return RunConfig(raw=raw, config_hash=digest, base_dir=base_dir, plant=plant, simcfg=simcfg,
                     input_spec=input_spec, labeling_spec=labeling_spec, abstraction_config=abstraction_config,
                     monitor_config=monitor_config, safety_metric=safety_metric,
                     performance_metric=performance_metric, falsify_config=falsify_config)


def _atomic_write(path: Path, data: str | bytes) -> None:
    """Writes `data` to `path`, making its directory first: the one place an output directory is made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _spawn_seeds(root: int, purpose: str, n: int) -> list[int]:
    """Deterministic per-run seed streams, one child per index."""
    base = np.random.SeedSequence([root, int.from_bytes(purpose.encode(), "big") % (2**32)])
    return [int(child.generate_state(1)[0]) for child in base.spawn(n)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_collect(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = cfg.output_dir / "traces"
    seeds = _spawn_seeds(cfg.seed, "collect", cfg.raw["collect"]["num_traces"])
    collect_one = functools.partial(_collect_one, cfg, cfg.controller(), out)
    done = _run_jobs(collect_one, list(enumerate(seeds)), cfg.simcfg.n_steps)
    entries = [entry for entry, failure in done if entry]
    failures = [failure for entry, failure in done if failure]
    manifest = {
        "config_hash": cfg.config_hash,
        "labeling_spec": cfg.raw["labeling_spec"],
        "traces": entries,
        "failures": failures,
    }
    _atomic_write(cfg.output_dir / "collect_manifest.json", signals.json_text(manifest))
    print(f"collected {len(entries)} traces ({len(failures)} failures) -> {out}")
    return 0 if not failures else 2


def _collect_one(cfg: RunConfig, controller, out: Path, job: tuple[int, int]) -> tuple[dict | None, dict | None]:
    """Simulates, labels and writes the trace of one (index, seed) job of `collect`: its
    manifest entry, or its failure when the run blew up."""
    i, seed = job
    signal = signals.random_signal(cfg.input_spec, np.random.default_rng(seed))
    try:
        trace = plants.simulate(cfg.plant, controller, signal, cfg.simcfg)
    except plants.SimulationBlowup as exc:
        return None, {"index": i, "seed": seed, "error": str(exc)}
    robs = stl.labeling_robustness(trace, cfg.labeling_spec)
    name = f"trace_{i:04d}.trace"
    _atomic_write(out / name, signals.trace_bytes(trace, cfg.config_hash, {"rob": robs}))
    return {"file": f"traces/{name}", "seed": seed}, None


# Below this total cost (simulation steps: some 10-25 us each) jobs run serially: a fork
# costs the parent 3-5 ms, and its copy-on-write faults about 3 ms more in the next command.
_FORK_MIN_COST = 4_000


def _run_jobs(fn, jobs: list, cost: int) -> list:
    """[fn(job) for job in jobs], run on every CPU this process may use (its affinity, capped by
    its cgroup's CPU quota) when the jobs, each costing `cost`, cost enough: one run of
    consecutive jobs per CPU, the parent running the first and a forked child each other one,
    which sends its outcome back pickled through a pipe. Every job is seeded by itself, so the
    results, the error raised (the lowest failing job's) and the warnings (reissued in job
    order) are those of the serial loop. A forked child starts with the caller's state, where
    a spawned one would import numpy and cpsguard again (about 0.1 s), and ends in `os._exit`,
    flushing none of it: the caller's buffered output is written once, and a job prints nothing
    (the caller prints from the results)."""
    n = 1
    if len(jobs) > 1 and len(jobs) * cost >= _FORK_MIN_COST:  # only work that may fork reads the quota (80 us)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        n = min(cpus, _cgroup_cpu_quota() or cpus, len(jobs))
    if n < 2:
        return [fn(job) for job in jobs]
    bins = [jobs[len(jobs) * i // n:len(jobs) * (i + 1) // n] for i in range(n)]
    children = []  # (pid, read end of its pipe)
    try:
        for part in bins[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child never returns into the caller's stack
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(_run_bin(fn, part), pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        outcomes = [_run_bin(fn, bins[0])]
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                try:
                    outcomes.append(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError("a worker process ended without sending its results") from None
    finally:
        for pid, read in children:
            os.close(read)
            os.kill(pid, SIGKILL)  # harmless to one that has sent its results
            os.waitpid(pid, 0)
    results = []  # the bins in job order, so the first failure met is the lowest failing job's
    for done, caught, failure in outcomes:
        results += done
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if failure:
            raise failure
    return results


def _run_bin(fn, jobs: list):
    """Runs the jobs up to the first that raises: their results, the warnings they raised,
    and the exception or None."""
    results, failure = [], None
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for job in jobs:
            try:
                results.append(fn(job))
            except Exception as exc:
                failure = exc
                break
    return results, [w.message for w in seen], failure


def _cgroup_cpu_quota() -> int | None:
    """ceil(quota / period) of the CPU quota of this process's own cgroup: its `cpu.max` (v2),
    else its `cpu.cfs_quota_us` and `cpu.cfs_period_us` (v1). None where no quota is set or
    the files cannot be read."""
    paths = {}  # controller ("" for v2) -> this process's cgroup under it
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        _, controllers, path = line.split(":", 2)
        paths.update(dict.fromkeys(controllers.split(","), path.rstrip("/")))
    limit = ("" in paths and _read_text(f"/sys/fs/cgroup{paths['']}/cpu.max") or "").split()  # "max 100000"
    if not limit and "cpu" in paths:
        limit = [_read_text(f"/sys/fs/cgroup/cpu{paths['cpu']}/cpu.cfs_{key}_us") for key in ("quota", "period")]
    try:
        quota, period = map(int, limit)
    except (TypeError, ValueError):  # no file, or "max"
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None  # v1 writes -1 for no quota


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError):
        return None


_READ_KINDS = {list: "a JSON list", str: "a string", int: "an integer", float: "a finite number or null"}


def _read_json(path: Path, **kinds: type) -> dict:
    """The JSON object in a file that a command reads back, each key of `kinds` holding a value
    of its kind (`float` takes any finite number or null); a ValueError naming the file otherwise."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key, kind in kinds.items():
        value = doc.get(key)
        fits = key in doc and (value is None or _finite(value)) if kind is float else type(value) is kind
        if not fits:
            raise ValueError(f"{path}: {key!r} must be {_READ_KINDS[kind]}")
    return doc


def _load_trace_pairs(cfg: RunConfig) -> list[tuple[signals.Trace, np.ndarray]]:
    manifest_path = cfg.output_dir / "collect_manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no collected traces: {manifest_path} missing (run collect first)")
    pairs = []
    for entry in _read_json(manifest_path, traces=list)["traces"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise ValueError(f"{manifest_path}: each entry of 'traces' must be an object with a string 'file'")
        trace, extras = signals.load_trace(cfg.output_dir / entry["file"])
        if "rob" not in extras:
            raise ValueError(f"{entry['file']}: missing rob column")
        pairs.append((trace, extras["rob"]))
    return pairs


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    pairs = _load_trace_pairs(cfg)
    model = abstraction.build_abstraction(pairs, cfg.abstraction_config)
    _write_model(cfg, model)
    print(f"model: {len(model.label)} states, {model.num_transitions()} transitions")
    return 0


def cmd_refine(cfg: RunConfig, args: argparse.Namespace) -> int:
    pairs = _load_trace_pairs(cfg)
    model_path = cfg.output_dir / "model.json"
    if not model_path.exists():
        raise FileNotFoundError(f"{model_path} missing (run build first)")
    model = abstraction.load_model(model_path)
    acfg = cfg.abstraction_config
    if (acfg.k, acfg.c) != (model.config.k, model.config.c):
        raise ValueError(
            f"abstraction schema mismatch: model was built with k={model.config.k}, "
            f"c={model.config.c}, config asks for k={acfg.k}, c={acfg.c}"
        )
    before = len(model.label)
    refined = abstraction.refine(model, pairs, acfg)
    _write_model(cfg, refined)
    print(
        f"refined: {before} -> {len(refined.label)} states, "
        f"{refined.num_transitions()} transitions, {len(refined.classifiers)} split cells"
    )
    return 0


def _write_model(cfg: RunConfig, model: abstraction.AbstractMdp) -> None:
    _atomic_write(cfg.output_dir / "model.json", abstraction.model_to_json(model, cfg.config_hash))
    tra, lab = abstraction.tra_lab_text(model)
    _atomic_write(cfg.output_dir / "model.tra", tra)
    _atomic_write(cfg.output_dir / "model.lab", lab)


def cmd_check(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = abstraction.load_model(cfg.output_dir / "model.json")
    formula = pmc.parse_pctl(args.query) if args.query else cfg.monitor_config.query
    if args.state_file:
        width, vec = len(model.pca.mean), None
        try:
            doc = json.loads(Path(args.state_file).read_text(encoding="utf-8"))
            if isinstance(doc, list) and all(type(v) in (int, float) for v in doc):
                vec = np.array(doc, dtype=float)
        except (ValueError, OverflowError):  # not UTF-8, not JSON, or a number no float holds
            pass
        if vec is None or vec.shape != (width,) or not np.isfinite(vec).all():
            raise ValueError(f"{args.state_file}: expected a JSON list of {width} finite numbers")
        sid = abstraction.abstract_state_of(model, vec)
        if sid is None:
            print("state: UNKNOWN (outside every observed cell)")
            return 3 if args.assert_holds else 0
    elif args.state:
        sid = abstraction.parse_state_id(args.state)
        if sid not in model.rank:
            raise ValueError(f"state {args.state!r} not in the model")
    else:
        sid = model.initial
    verdict = pmc.check(model, sid, formula, args.semantics)
    prob = f"{verdict.probability:.6f}" if verdict.probability is not None else "n/a"
    bound = f" error<={verdict.error_bound:.1e}" if verdict.error_bound is not None else ""
    print(f"state {abstraction.state_id_str(sid)}: holds={verdict.holds} probability={prob} ({verdict.semantics}){bound}")
    if args.assert_holds and not verdict.holds:
        return 3
    return 0


def cmd_monitor(cfg: RunConfig, args: argparse.Namespace) -> int:
    ai = cfg.controller("controller")
    safe = cfg.controller("safety_controller")
    model = abstraction.load_model(cfg.output_dir / "model.json")
    start = time.perf_counter()
    pmc.check_all(model, cfg.monitor_config.query)  # every query of every run reads these verdicts
    solve = time.perf_counter() - start
    n = cfg.raw["monitor"]["num_runs"]
    seeds = _spawn_seeds(cfg.seed, "monitor", n)
    monitor_one = functools.partial(_monitor_one, cfg, ai, safe, model)
    runs = _run_jobs(monitor_one, list(enumerate(seeds)), cfg.simcfg.n_steps)
    rows = [row for row, _, _ in runs]
    done = [r for r in rows if "error" not in r]
    mean_safety = math.fsum(r["safety_frac"] for r in done) / len(done) if done else None  # as statistics.fmean
    mean_perf = math.fsum(r["perf_frac"] for r in done) / len(done) if done else None
    total_query, total_wall = solve + sum(run[1] for run in runs), solve + sum(run[2] for run in runs)
    overhead = total_query / total_wall if total_wall > 0 else 0.0
    metrics = {"config_hash": cfg.config_hash, "runs": rows,
               "mean_safety_frac": mean_safety, "mean_perf_frac": mean_perf}
    _atomic_write(cfg.output_dir / "monitor_metrics.json", signals.json_text(metrics))
    print(f"monitored {n} runs ({n - len(done)} failed): safety_frac={_fmt_opt(mean_safety, 4, 'n/a')} "
          f"perf_frac={_fmt_opt(mean_perf, 4, 'n/a')} overhead_ratio={overhead:.4%}")
    return 0 if len(done) == n else 2


def _monitor_one(cfg: RunConfig, ai, safe, model, job: tuple[int, int]) -> tuple[dict, float, float]:
    """Runs, scores and writes the monitored trace of one (index, seed) job of `monitor`: its
    row of `monitor_metrics.json` with the run's query and wall times, or its error row and
    zero times when the run blew up."""
    i, seed = job
    signal = signals.random_signal(cfg.input_spec, np.random.default_rng(seed))
    try:
        mt = monitor.run_monitored(cfg.plant, ai, safe, model, cfg.monitor_config, signal, cfg.simcfg)
    except plants.SimulationBlowup as exc:
        return {"seed": seed, "error": str(exc)}, 0.0, 0.0
    safety_frac, perf_frac = monitor.eval_metrics(mt.trace, cfg.safety_metric, cfg.performance_metric)
    _atomic_write(cfg.output_dir / "monitored" / f"monitored_{i:04d}.trace",
                  signals.trace_bytes(mt.trace, cfg.config_hash, {"controller": mt.controller_tags}))
    row = {
        "seed": seed,
        "safety_frac": safety_frac,
        "perf_frac": perf_frac,
        "switched_steps": int(np.sum(mt.controller_tags == monitor.SAFE_TAG)),
        "queries": [
            {"t": q.t, "verdict": q.verdict, "unknown": q.raw_unknown, "probability": q.probability}
            for q in mt.queries
        ],
    }
    return row, mt.query_time, mt.wall_time


def cmd_falsify(cfg: RunConfig, args: argparse.Namespace) -> int:
    system = plants.ClosedLoopSystem(cfg.plant, cfg.controller(), cfg.simcfg, cfg.input_spec)
    kinds = {"guided": falsify.GUIDED, "random": falsify.RANDOM,
             "opt": falsify.OPT_ONLY, "guided-rand": falsify.GUIDED_RAND}
    algo = args.algo
    if algo not in kinds:
        raise UsageError(f"unknown algorithm {algo!r}, expected one of {sorted(kinds)}")
    kind = kinds[algo]
    model = None
    if kind == falsify.GUIDED:
        model = abstraction.load_model(cfg.output_dir / "model.json")
    fcfg = cfg.falsify_config
    seeds = _spawn_seeds(cfg.seed, f"falsify-{algo}", cfg.raw["falsify"]["trials"])
    falsify_one = functools.partial(_falsify_one, kind, system, model, fcfg)
    results = _run_jobs(falsify_one, seeds, fcfg.global_budget * fcfg.local_budget * cfg.simcfg.n_steps)
    outcomes, per_trial = [], []
    print(f"{'trial':>5} {'success':>8} {'time[s]':>8} {'#sim':>5} {'best rob':>10}")
    for i, (trial_seed, outcome) in enumerate(zip(seeds, results)):
        if isinstance(outcome, str):  # the trial blew up
            outcomes.append(None)
            per_trial.append({"seed": trial_seed, "error": outcome})
            print(f"{i:>5} error: {outcome}")
            continue
        outcomes.append(outcome)
        best = min(outcome.robustness_history)  # every trial simulates at least once
        per_trial.append({"seed": trial_seed, "success": outcome.success, "simulations": outcome.simulations,
                          "best_robustness": best})
        print(f"{i:>5} {str(outcome.success):>8} {outcome.wall_time:>8.2f} {outcome.simulations:>5} {best:>10.4f}")
    stats = falsify.trial_stats(outcomes)
    print(f"algo={algo} FSR={stats['fsr']}/{stats['trials']} "
          f"time={_fmt_opt(stats['mean_time_success'])} #sim={_fmt_opt(stats['mean_sims_success'])}")
    doc = {
        "config_hash": cfg.config_hash,
        "algo": algo,
        "fsr": stats["fsr"],
        "trials": stats["trials"],
        "mean_sims_success": stats["mean_sims_success"],
        "per_trial": per_trial,
    }
    _atomic_write(cfg.output_dir / f"falsify_{algo}.json", signals.json_text(doc))
    return 0 if None not in outcomes else 2


def _falsify_one(kind: str, system, model, fcfg: falsify.FalsifyConfig,
                 seed: int) -> falsify.FalsificationOutcome | str:
    """One trial of `falsify`, seeded by `seed`: its outcome, or its error text when a run blew up."""
    try:
        return falsify.run_baseline(kind, system, model, fcfg.replace(seed=seed))
    except plants.SimulationBlowup as exc:
        return str(exc)


def _fmt_opt(value, digits: int = 1, missing: str = "-") -> str:
    return missing if value is None else f"{value:.{digits}f}"


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = cfg.output_dir
    sections = []
    manifest = out / "collect_manifest.json"
    if manifest.exists():
        doc = _read_json(manifest, traces=list, failures=list)
        sections.append(f"## Traces\n\n{len(doc['traces'])} collected, {len(doc['failures'])} failed.")
    model_path = out / "model.json"
    if model_path.exists():
        model = abstraction.load_model(model_path)
        sections.append(
            "## Model\n\n"
            f"{len(model.label)} states ({int(np.sum(model.label == -1))} labeled rob=-1), "
            f"{model.num_transitions()} transitions, {len(model.classifiers)} split cells."
        )
    metrics_path = out / "monitor_metrics.json"
    if metrics_path.exists():
        doc = _read_json(metrics_path, runs=list, mean_safety_frac=float, mean_perf_frac=float)
        sections.append(
            "## Monitoring\n\n"
            f"mean safety fraction {_fmt_opt(doc['mean_safety_frac'], 4, 'n/a')}, "
            f"mean performance fraction {_fmt_opt(doc['mean_perf_frac'], 4, 'n/a')} over {len(doc['runs'])} runs."
        )
    fals_lines = []
    for path in sorted(out.glob("falsify_*.json")):
        doc = _read_json(path, algo=str, fsr=int, trials=int, mean_sims_success=float)
        fals_lines.append(f"| {doc['algo']} | {doc['fsr']}/{doc['trials']} | {_fmt_opt(doc['mean_sims_success'])} |")
    if fals_lines:
        sections.append("## Falsification\n\n| algorithm | FSR | #sim |\n|---|---|---|\n" + "\n".join(fals_lines))
    if not sections:
        print(f"nothing to report in {out}")
        return 2
    body = f"# Run report\n\nconfig hash `{cfg.config_hash}`\n\n" + "\n\n".join(sections) + "\n"
    _atomic_write(out / "report.md", body)
    print(body)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built by the first `main` call of a process and reused:
    building it takes about a millisecond, and `parse_args` returns a fresh namespace."""
    parser = _Parser(prog="cpsguard", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; defaults apply without one")
    parser.add_argument("--seed", type=int, help="override the root seed")
    parser.add_argument("--out-dir", dest="output_dir", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="simulate seeded random inputs and write traces")
    p.add_argument("--num", dest="collect.num_traces", type=int, help="number of traces")

    sub.add_parser("build", help="build the abstract model from collected traces")
    sub.add_parser("refine", help="refine the model (split mixed states)")

    p = sub.add_parser("check", help="check a safety query at a state")
    p.add_argument("--query", help="PCTL query (defaults to the monitor query)")
    where = p.add_mutually_exclusive_group()
    where.add_argument("--state", help="state id, e.g. c123 (defaults to the initial state)")
    where.add_argument("--state-file", help="JSON file with a concrete channel vector")
    p.add_argument("--assert-holds", action="store_true", help="exit 3 when the query does not hold")
    p.add_argument("--semantics", choices=["MAX", "MIN"], default="MAX")

    p = sub.add_parser("monitor", help="run monitored simulations and report metrics")
    p.add_argument("--runs", dest="monitor.num_runs", type=int, help="number of monitored runs")

    p = sub.add_parser("falsify", help="run falsification trials")
    p.add_argument("--algo", default="guided", help="guided | random | opt | guided-rand")
    p.add_argument("--trials", dest="falsify.trials", type=int, help="number of trials")
    p.add_argument("--spec", dest="falsify.spec", help="STL specification to falsify")
    p.add_argument("--query", dest="falsify.query", help="PCTL safety query for the guided search")

    sub.add_parser("report", help="aggregate outputs into a summary")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        overrides = {}  # from each flag whose dest is a config key's dotted path
        for dest, value in vars(args).items():
            section, _, key = dest.rpartition(".")
            if value is not None and (section or key in DEFAULT_CONFIG):
                target = overrides.setdefault(section, {}) if section else overrides
                target[key] = value
        cfg = load_config(args.config, overrides)
        run = globals()["cmd_" + args.command]  # looked up per call, as the parser outlives a call
        return run(cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
