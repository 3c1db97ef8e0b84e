"""The cpsguard benchmark: the paper's pipeline, timed per command.

Run from the repository root:

    python3 bench/run.py --workload acc-monitor --seed 1 --seconds 30 --trace 0

Each workload drives `cpsguard.cli.main` (collect -> build -> refine ->
check battery -> monitor -> falsify) in this one process, single-threaded
(BLAS threads are pinned to 1 before numpy loads). It is a closed loop
with one client: each command starts when the previous one returns.

A run repeats rounds until `--seconds` is used up. A round sets up a
fresh directory under bench/work/ (re-importing `cpsguard`, writing the
config and copying the shipped controllers from bench/data/), then runs
every command of the workload and times each one from outside. Round r
of seed s uses the config seed SeedSequence([s, r]), so a seed fixes the
inputs of every round. Every command's outputs are checked, untimed, and
a command that exits non-zero or fails a check counts as a failed
operation. Each round's byte-deterministic `out/` files are digested;
the digest is remembered per (source, workload, config seed) in
bench/work/digests.json and a later run that disagrees counts a failed
operation too.

`--trace 0` reports the end-to-end metrics at the speed of a reference
kernel timed between stages (see REFERENCE_S): the interquartile mean
over rounds of each stage's time and of the whole pipeline, the median
over rounds of set-up, and the process's peak RSS. `--trace 1`
alternates plain and traced rounds of the same config seed; the traced ones wrap every public function of
`cpsguard` (bench/tracer.py) and give the per-layer metrics, the
tracing overhead, and a check that each command's layer self times add
up to its wall time. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The full result,
with sample counts, quartiles, digests and the machine, is written to
bench/work/results/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
WORK = BENCH / "work"

STAGES = ("collect", "build", "refine", "check", "monitor", "falsify")
FALSIFY_ALGOS = ("guided", "random", "opt")

# The shared machine this benchmark runs on changes speed by 20-40% from
# one minute to the next, which moves every stage alike. So a round also
# times a fixed reference kernel at each stage boundary, and end-to-end
# times are reported at the reference speed: each stage's raw seconds x
# REFERENCE_S / the mean kernel time just before and after it. REFERENCE_S
# is the kernel's typical time (see time_reference) on a 2-core KVM Xeon
# with Python 3.11 and numpy 2.4. Raw medians stay in the result file.
#
# The scaling is not exact: a numpy-heavy stage such as refine slows less
# than the kernel does when the machine slows. So a stage's scaled times
# still fall into a fast and a slow cluster within a run, and a median
# over rounds jumps between the clusters from one run to the next. A stage
# is therefore reported as the interquartile mean of its rounds (the mean
# of their middle half). Over 13 runs of cstr-until, the run-to-run
# standard deviation of log refine_s was 0.065 with the median and 0.037
# with the interquartile mean.
REFERENCE_S = 0.0056

PHI_ACC = "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)"
PHI_CSTR = "G[0,25]((abs(error) <= 0.3) U[0,5] (abs(error) <= 0.15))"
ACC_BATTERY = (
    'P>0.8 [ F<=10 "rob=-1" ]',
    'P>0.5 [ F "rob=-1" ]',
    'P>0.5 [ G "rob=+1" ]',
    'P>0.5 [ "rob=+1" U "rob=-1" ]',
)
# Step-bounded only: a fixed number of sweeps per query. On the CSTR
# models the cost of a cold unbounded query varies fivefold between seeds
# (coefficient of variation 0.5 whether a model comes from 8 or 24
# traces), too much for check_s to hold its bound there, so unbounded
# queries are measured on acc-monitor.
BOUNDED_BATTERY = (
    'P>0.8 [ F<=10 "rob=-1" ]',
    'P>0.5 [ X "rob=-1" ]',
    'P>0.5 [ "rob=+1" U<=10 "rob=-1" ]',
)
# bounded query -> the unbounded one it may not exceed
BOUNDED_BELOW = {'P>0.8 [ F<=10 "rob=-1" ]': 'P>0.5 [ F "rob=-1" ]'}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # cpsguard config; "seed" is set per round
    controllers: dict  # file in the round directory -> file in bench/data
    battery: tuple  # PCTL queries, each checked under MAX and MIN
    check_states: int  # states the battery runs at: the initial one, then the first others
    monitor_overrides: dict = field(default_factory=dict)  # config changes for `monitor` only

    @property
    def falsify_budget(self) -> int:
        f = self.config["falsify"]
        return f["global_budget"] * f["local_budget"]


def _merged(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        out[key] = _merged(out[key], value) if isinstance(value, dict) and key in out else value
    return out


def _acc_config(num_traces: int, monitor: dict, falsify: dict) -> dict:
    return {
        "output_dir": "out",
        "plant": {"name": "acc"},
        "controller": {"kind": "mlp", "path": "controller.txt"},
        "safety_controller": {"kind": "pid"},
        "labeling_spec": PHI_ACC,
        "collect": {"num_traces": num_traces},
        "abstraction": {"k": 3, "c": 10},
        "monitor": {"query": ACC_BATTERY[0], **monitor},
        "falsify": falsify,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="acc-monitor",
            why=('ACC under a corrupted MLP clone: MLP-in-the-loop collect, Pegasos-heavy '
                 'refine, unbounded F/G/U checks, and a monitor making thousands of cached model queries.'),
            # one candidate per falsify trial, so that stage's work does not
            # depend on when a violation turns up
            config=_acc_config(
                16, {"period": 0.2, "num_runs": 4},
                {"trials": 3, "global_budget": 1, "local_budget": 1},
            ),
            controllers={"controller.txt": "acc_unsafe.txt"},
            battery=ACC_BATTERY,
            check_states=1,
        ),
        Workload(
            name="acc-falsify",
            why=('ACC falsification target: short guided/random/opt trials run the simulator and '
                 'MLP one trace at a time, each candidate costing an STL robustness and a model lookup.'),
            # short trials keep the simulation count steady across seeds;
            # one queue seed lets the second outer iteration exploit a flagged candidate
            config=_acc_config(
                12, {"period": 1.0, "num_runs": 4},
                {"trials": 2, "global_budget": 2, "local_budget": 3, "queue_seed_count": 1},
            ),
            controllers={"controller.txt": "acc_falsify.txt"},
            battery=BOUNDED_BATTERY,
            check_states=3,
        ),
        Workload(
            name="cstr-until",
            why=('CSTR under its PID with an STL Until label: the O(T*W) Until dominates '
                 'collect, the MLP is bypassed there, and exp-based dynamics exercise plants differently.'),
            config={
                "output_dir": "out",
                "plant": {"name": "cstr"},
                "sim": {"dt": 0.05, "horizon": 30.0, "control_period": 0.05},
                "controller": {"kind": "pid"},
                "safety_controller": {"kind": "pid"},
                "labeling_spec": PHI_CSTR,
                "collect": {"num_traces": 10},
                "abstraction": {"k": 2, "c": 20},
                "monitor": {
                    "query": BOUNDED_BATTERY[0], "period": 1.0, "num_runs": 4,
                    "safety_metric": "G[0,30](abs(error) <= 0.3)",
                    "performance_metric": "G[5,30](abs(error) <= 0.05)",
                },
                "falsify": {"trials": 1, "global_budget": 5, "local_budget": 10},
            },
            controllers={"controller.txt": "cstr_clone.txt"},
            battery=BOUNDED_BATTERY,
            check_states=4,
            # the monitor switches from a corrupted MLP clone to the PID
            monitor_overrides={"controller": {"kind": "mlp", "path": "controller.txt"}},
        ),
    )
}


# ---------------------------------------------------------------------------
# one round


@dataclass
class Command:
    stage: str
    argv: list
    rc: int | None
    wall_s: float
    cpu_s: float
    stdout: str
    stderr: str
    layer_self: dict | None = None  # traced rounds: layer -> self seconds
    fn_self: dict | None = None  # traced rounds: function -> self seconds


@dataclass
class Round:
    config_seed: int
    traced: bool
    setup_s: float
    commands: list = field(default_factory=list)
    failed: set = field(default_factory=set)  # indices of failed commands
    problems: list = field(default_factory=list)
    digest: str = ""
    digest_ok: bool = True
    outputs: dict = field(default_factory=dict)  # parsed out/ files, for traced metrics
    reference: list = field(default_factory=list)  # kernel seconds before each stage and at the end

    def stage_seconds(self) -> dict:
        out = {stage: 0.0 for stage in STAGES}
        for cmd in self.commands:
            out[cmd.stage] += cmd.wall_s
        return out

    def scaled_stage_seconds(self) -> dict:
        """Stage seconds at the reference speed (see REFERENCE_S)."""
        raw = self.stage_seconds()
        return {stage: raw[stage] * 2.0 * REFERENCE_S / (self.reference[i] + self.reference[i + 1])
                for i, stage in enumerate(STAGES)}

    @property
    def attempted(self) -> int:
        return len(self.commands) + 1  # the digest comparison is one operation

    @property
    def failures(self) -> int:
        return len(self.failed) + (0 if self.digest_ok else 1)


def reference_kernel() -> float:
    """Fixed work in cpsguard's mix: scalar float arithmetic in a Python
    loop, small numpy calls, and JSON text. Independent of cpsguard."""
    x, v, acc = 1.0, 0.0, 0.0
    grid = np.linspace(0.0, 1.0, 8)
    for i in range(4000):
        k1x, k1v = v, -x - 0.1 * v
        k2x, k2v = v + 0.05 * k1v, -(x + 0.05 * k1x) - 0.1 * (v + 0.05 * k1v)
        x, v = x + 0.1 * k2x, v + 0.1 * k2v
        if i % 8 == 0:
            acc += float(np.dot(grid, grid * x))
    text = json.dumps([[i, repr(x * i), {"v": v}] for i in range(400)])
    return acc + len(json.loads(text))


def time_reference() -> float:
    """The faster of two kernel runs: one run in 25 is stretched by a
    preemption, which would shrink the scaled time of the stages beside it."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def fresh_cli():
    """(Re-)import cpsguard from this checkout's src/."""
    for name in [m for m in sys.modules if m == "cpsguard" or m.startswith("cpsguard.")]:
        del sys.modules[name]
    cli = importlib.import_module("cpsguard.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported cpsguard from {cli.__file__}, expected it under {SRC}")
    return cli


def set_up(wl: Workload, rdir: Path, config_seed: int):
    """Timed set-up: import cpsguard, write config and controllers."""
    start = time.perf_counter()
    cli = fresh_cli()
    rdir.mkdir(parents=True)
    config = {**wl.config, "seed": config_seed}
    (rdir / "config.json").write_text(json.dumps(config, indent=1))
    if wl.monitor_overrides:
        (rdir / "monitor.json").write_text(json.dumps(_merged(config, wl.monitor_overrides), indent=1))
    for dst, src in wl.controllers.items():
        shutil.copyfile(DATA / src, rdir / dst)
    return cli, time.perf_counter() - start


def run_round(wl: Workload, rdir: Path, config_seed: int, traced: bool = False) -> tuple[Round, object]:
    """Set up, run and check one round; returns it with its tracer, if traced."""
    cli, setup_s = set_up(wl, rdir, config_seed)
    rnd = Round(config_seed=config_seed, traced=traced, setup_s=setup_s)
    tracer = None
    if traced:
        tracer = make_tracer()
        tracer.install(sys.modules["cpsguard"])
    main = cli.main  # looked up after install: the traced round times the wrapped entry point
    config = str(rdir / "config.json")
    monitor_config = str(rdir / ("monitor.json" if wl.monitor_overrides else "config.json"))
    out = rdir / "out"
    try:
        def call(stage: str, *args: str) -> Command:
            argv = ["--config", monitor_config if stage == "monitor" else config, *args]
            stdout, stderr = io.StringIO(), io.StringIO()
            before = tracer.snapshot() if tracer else None
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    rc = main(argv)
            except Exception:  # an exception escaping cli.main is a failed command, not a crash
                rc = None
                stderr.write(traceback.format_exc())
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            cmd = Command(stage, args, rc, wall, cpu, stdout.getvalue(), stderr.getvalue())
            if tracer:
                cmd.fn_self = tracer.delta(before)
                cmd.layer_self = {}
                for name, secs in cmd.fn_self.items():
                    layer = name.split(".", 1)[0]
                    cmd.layer_self[layer] = cmd.layer_self.get(layer, 0.0) + secs
            rnd.commands.append(cmd)
            if rc != 0:
                fail(len(rnd.commands) - 1, f"{' '.join(args)}: exit {rc}: {cmd.stderr.strip()[-300:]}")
            return cmd

        def fail(index: int, message: str) -> None:
            rnd.failed.add(index)
            rnd.problems.append(message)

        def checked(stage: str, *args: str, check=None) -> None:
            cmd = call(stage, *args)
            index = len(rnd.commands) - 1
            if cmd.rc == 0 and check is not None:
                for message in _run_check(check):
                    fail(index, f"{' '.join(args)}: {message}")

        rnd.reference.append(time_reference())
        checked("collect", "collect", check=lambda: check_collect(out, wl))
        rnd.reference.append(time_reference())
        checked("build", "build", check=lambda: check_model(out))
        rnd.reference.append(time_reference())
        checked("refine", "refine", check=lambda: check_model(out))
        rnd.reference.append(time_reference())
        states = battery_states(out, wl.check_states)
        probs: dict = {}
        for sid in states:
            for query in wl.battery:
                for sem in ("MAX", "MIN"):
                    cmd = call("check", "check", "--state", sid, "--query", query, "--semantics", sem)
                    index = len(rnd.commands) - 1
                    if cmd.rc == 0:
                        p = parse_check(cmd.stdout, sid, sem)
                        if p is None or not 0.0 <= p <= 1.0:
                            fail(index, f"check {sid} {query} {sem}: probability {p!r} not in [0, 1]")
                        else:
                            probs[(sid, query, sem)] = (p, index)
        for message, indices in cross_check(probs):
            for index in indices:
                rnd.failed.add(index)
            rnd.problems.append(message)
        rnd.reference.append(time_reference())
        checked("monitor", "monitor", check=lambda: check_monitor(out, wl))
        rnd.reference.append(time_reference())
        for algo in FALSIFY_ALGOS:
            checked("falsify", "falsify", "--algo", algo, check=lambda a=algo: check_falsify(out, wl, a))
        rnd.reference.append(time_reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd.digest = digest_outputs(out)
    if tracer is not None:
        rnd.outputs = read_outputs(out)
    shutil.rmtree(rdir)
    return rnd, tracer


# ---------------------------------------------------------------------------
# output checks (untimed)


def _run_check(check) -> list[str]:
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_collect(out: Path, wl: Workload) -> list[str]:
    doc = _load(out / "collect_manifest.json")
    problems = []
    if doc["failures"]:
        problems.append(f"{len(doc['failures'])} simulation blow-ups")
    want = wl.config["collect"]["num_traces"]
    if len(doc["traces"]) + len(doc["failures"]) != want:
        problems.append(f"{len(doc['traces'])} traces listed, expected {want}")
    return problems


def check_model(out: Path) -> list[str]:
    doc = _load(out / "model.json")
    states = {s["id"] for s in doc["states"]}
    problems = [f"state {s['id']} has label {s['label']!r}" for s in doc["states"] if s["label"] not in (-1, 1)]
    if doc["initial"] not in states:
        problems.append(f"initial state {doc['initial']} is not a state")
    rows: dict = {}
    for src, act, dst, p in doc["transitions"]:
        if src not in states or dst not in states:
            problems.append(f"transition {src} -{act}-> {dst} names a missing state")
        rows[(src, act)] = rows.get((src, act), 0.0) + p
    problems += [f"row ({src}, {act}) sums to {total!r}" for (src, act), total in rows.items()
                 if abs(total - 1.0) > 1e-9]
    return problems[:10]


def battery_states(out: Path, count: int) -> list[str]:
    """The initial state, then the first other states in file order."""
    try:
        doc = _load(out / "model.json")
    except (OSError, ValueError):
        return []
    others = [s["id"] for s in doc["states"] if s["id"] != doc["initial"]]
    return [doc["initial"], *others[: count - 1]]


_CHECK_LINE = re.compile(r"state (\S+): holds=(True|False) probability=(\S+) \((MAX|MIN)\)")


def parse_check(stdout: str, sid: str, sem: str) -> float | None:
    match = _CHECK_LINE.search(stdout)
    if not match or match.group(1) != sid or match.group(4) != sem:
        return None
    try:
        return float(match.group(3))
    except ValueError:
        return None


def cross_check(probs: dict) -> list[tuple[str, tuple]]:
    """MIN <= MAX per query and state; a bounded query <= its unbounded one."""
    problems = []
    for (sid, query, sem), (p, index) in probs.items():
        if sem == "MIN" and (sid, query, "MAX") in probs:
            hi, other = probs[(sid, query, "MAX")]
            if p > hi + 1e-9:
                problems.append((f"check {sid} {query}: MIN {p} > MAX {hi}", (index, other)))
        unbounded = BOUNDED_BELOW.get(query)
        if unbounded and (sid, unbounded, sem) in probs:
            hi, other = probs[(sid, unbounded, sem)]
            if p > hi + 1e-9:
                problems.append((f"check {sid} {sem}: {query} = {p} > {unbounded} = {hi}", (index, other)))
    return problems


def check_monitor(out: Path, wl: Workload) -> list[str]:
    doc = _load(out / "monitor_metrics.json")
    problems = []
    want = wl.config["monitor"]["num_runs"]
    if len(doc["runs"]) != want:
        problems.append(f"{len(doc['runs'])} monitored runs, expected {want}")
    fracs = [doc["mean_safety_frac"], doc["mean_perf_frac"]]
    for run in doc["runs"]:
        fracs += [run["safety_frac"], run["perf_frac"]]
    if not all(0.0 <= f <= 1.0 for f in fracs):
        problems.append("a monitored fraction is outside [0, 1]")
    return problems


def check_falsify(out: Path, wl: Workload, algo: str) -> list[str]:
    doc = _load(out / f"falsify_{algo}.json")
    problems = []
    want = wl.config["falsify"]["trials"]
    if len(doc["per_trial"]) != want:
        problems.append(f"{len(doc['per_trial'])} trials, expected {want}")
    for i, trial in enumerate(doc["per_trial"]):
        best = trial["best_robustness"]
        if trial["success"] != (best is not None and best < 0.0):
            problems.append(f"trial {i}: success={trial['success']} but best robustness {best}")
        if not 1 <= trial["simulations"] <= wl.falsify_budget:
            problems.append(f"trial {i}: {trial['simulations']} simulations, budget {wl.falsify_budget}")
    return problems


def digest_outputs(out: Path) -> str:
    """sha256 over every out/ file, by relative path and bytes."""
    h = hashlib.sha256()
    if out.exists():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            name = path.relative_to(out).as_posix().encode()
            data = path.read_bytes()
            h.update(len(name).to_bytes(8, "big") + name + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def read_outputs(out: Path) -> dict:
    docs = {}
    for name in ("model.json", "monitor_metrics.json", *(f"falsify_{a}.json" for a in FALSIFY_ALGOS)):
        try:
            docs[name] = _load(out / name)
        except (OSError, ValueError):
            pass
    return docs


# ---------------------------------------------------------------------------
# per-layer metrics of a traced round


LAYERS = ("cli", "plants", "controllers", "signals", "stl", "abstraction", "pmc", "monitor", "falsify")
# functions reported with their call count and total (inclusive) seconds
COUNTED = ("plants.simulate", "plants.rk4_step", "controllers.mlp_forward", "controllers.pid_act",
           "signals.load_trace", "signals.sample", "stl.labeling_robustness", "stl.robustness",
           "stl.robustness_per_step", "abstraction.load_model", "abstraction.abstract_state_of",
           "monitor.run_monitored", "monitor.monitor_step", "falsify.run_baseline")
PER_LAYER_UNITS = {
    **{f"{fn}.{kind}": unit for fn in COUNTED for kind, unit in (("calls", "count"), ("s", "s"))},
    "plants.blowups": "count",
    "signals.trace_bytes_written": "B",
    "signals.trace_bytes_read": "B",
    "abstraction.build_abstraction.s": "s",
    "abstraction.refine.s": "s",
    "abstraction.unknown_ratio": "ratio",
    "abstraction.states": "count",
    "abstraction.transitions": "count",
    "abstraction.split_cells": "count",
    "pmc.check_all.calls": "count",
    "pmc.check_all.cold": "count",
    "pmc.check_all.cold_s": "s",
    "pmc.cache_hit_ratio": "ratio",
    "monitor.query_p50_us": "us",
    "monitor.query_p99_us": "us",
    "monitor.overhead_ratio": "ratio",
    "monitor.safety_frac": "ratio",
    "monitor.switched_steps": "count",
    "falsify.simulations": "count",
    "falsify.found": "count",
    "falsify.found_per_simulation": "ratio",
    **{f"cli.{stage}.{kind}": "s" for stage in STAGES for kind in ("self_s", "wait_s")},
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
}


def tracer_probes() -> dict:
    """Counters the traced round collects at layer boundaries."""

    def bump(counters, key, value=1.0):
        counters[key] = counters.get(key, 0.0) + value

    def atomic_write(fn, counters):
        def probe(path, text):
            if Path(path).parent.name in ("traces", "monitored"):
                bump(counters, "trace_bytes_written", len(text))
            return fn(path, text)
        return probe

    def load_trace(fn, counters):
        def probe(path):
            bump(counters, "trace_bytes_read", os.path.getsize(path))
            return fn(path)
        return probe

    def abstract_state_of(fn, counters):
        def probe(model, q):
            sid = fn(model, q)
            if sid is None:
                bump(counters, "unknown")
            return sid
        return probe

    def check_all(fn, counters):
        def probe(model, formula, semantics="MAX"):
            cached = len(model.caches)
            start = time.perf_counter()
            result = fn(model, formula, semantics)
            if len(model.caches) > cached:  # the verdict cache did not answer
                bump(counters, "cold")
                bump(counters, "cold_s", time.perf_counter() - start)
            return result
        return probe

    def run_monitored(fn, counters):
        def probe(*args, **kwargs):
            mt = fn(*args, **kwargs)
            bump(counters, "monitor_query_s", mt.query_time)
            bump(counters, "monitor_wall_s", mt.wall_time)
            return mt
        return probe

    return {
        "cli.atomic_write": atomic_write,
        "signals.load_trace": load_trace,
        "abstraction.abstract_state_of": abstract_state_of,
        "pmc.check_all": check_all,
        "monitor.run_monitored": run_monitored,
    }


def make_tracer():
    from tracer import Tracer

    return Tracer(timed_calls=("monitor.monitor_step",), probes=tracer_probes())


def layer_metrics(rnd: Round, tracer) -> dict:
    st, c = tracer.stats, tracer.counters

    def calls(name):
        return st[name].calls if name in st else 0

    def total(name):
        return st[name].total_s if name in st else 0.0

    m: dict[str, float] = {}
    for fn in COUNTED:
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.s"] = total(fn)
    m["abstraction.build_abstraction.s"] = total("abstraction.build_abstraction")
    m["abstraction.refine.s"] = total("abstraction.refine")
    m["pmc.check_all.calls"] = calls("pmc.check_all")
    m["plants.blowups"] = sum(st[n].errors.get("SimulationBlowup", 0)
                              for n in ("plants.simulate", "monitor.run_monitored") if n in st)
    m["signals.trace_bytes_written"] = c.get("trace_bytes_written", 0.0)
    m["signals.trace_bytes_read"] = c.get("trace_bytes_read", 0.0)
    lookups = calls("abstraction.abstract_state_of")
    m["abstraction.unknown_ratio"] = c.get("unknown", 0.0) / lookups if lookups else 0.0
    model = rnd.outputs.get("model.json", {})
    m["abstraction.states"] = len(model.get("states", ()))
    m["abstraction.transitions"] = len(model.get("transitions", ()))
    m["abstraction.split_cells"] = len(model.get("classifiers", ()))
    queries = m["pmc.check_all.calls"]
    m["pmc.check_all.cold"] = c.get("cold", 0.0)
    m["pmc.check_all.cold_s"] = c.get("cold_s", 0.0)
    m["pmc.cache_hit_ratio"] = 1.0 - c.get("cold", 0.0) / queries if queries else 0.0
    durations = sorted(st["monitor.monitor_step"].durations or ()) if "monitor.monitor_step" in st else []
    m["monitor.query_p50_us"] = _percentile(durations, 0.50) * 1e6
    m["monitor.query_p99_us"] = _percentile(durations, 0.99) * 1e6
    wall = c.get("monitor_wall_s", 0.0)
    m["monitor.overhead_ratio"] = c.get("monitor_query_s", 0.0) / wall if wall else 0.0
    mon = rnd.outputs.get("monitor_metrics.json", {})
    m["monitor.safety_frac"] = mon.get("mean_safety_frac", 0.0)
    m["monitor.switched_steps"] = sum(run["switched_steps"] for run in mon.get("runs", ()))
    trials = [t for a in FALSIFY_ALGOS for t in rnd.outputs.get(f"falsify_{a}.json", {}).get("per_trial", ())]
    m["falsify.simulations"] = sum(t["simulations"] for t in trials)
    m["falsify.found"] = sum(1 for t in trials if t["success"])
    m["falsify.found_per_simulation"] = m["falsify.found"] / m["falsify.simulations"] if trials else 0.0
    for stage in STAGES:
        cmds = [cmd for cmd in rnd.commands if cmd.stage == stage]
        own = ("cli.main", f"cli.cmd_{stage}")
        m[f"cli.{stage}.self_s"] = sum(cmd.fn_self.get(n, 0.0) for cmd in cmds for n in own)
        m[f"cli.{stage}.wait_s"] = sum(cmd.wall_s - cmd.cpu_s for cmd in cmds)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(cmd.layer_self.get(layer, 0.0) for cmd in rnd.commands)
    m["trace.unaccounted_s"] = sum(cmd.wall_s - sum(cmd.layer_self.values()) for cmd in rnd.commands)
    return m


def self_time_problems(rnd: Round) -> list[tuple[int, str]]:
    """Each traced command's layer self times must add up to its wall time."""
    out = []
    for i, cmd in enumerate(rnd.commands):
        accounted = sum(cmd.layer_self.values())
        if abs(cmd.wall_s - accounted) > 0.01 * cmd.wall_s + 0.002:
            out.append((i, f"{' '.join(cmd.argv)}: layer self times add up to {accounted:.4f} s, "
                           f"wall {cmd.wall_s:.4f} s"))
    return out


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# the run


def source_id() -> str:
    """Identifies the code a digest belongs to: cpsguard's sources and the
    benchmark's own files."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [BENCH / "run.py"] + sorted(DATA.iterdir())
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(workload: str, rounds: list) -> None:
    """A digest that differs from an earlier run's, for the same code,
    workload and config seed, marks the round's digest operation failed."""
    store = WORK / "digests.json"
    try:
        known = _load(store)
    except (OSError, ValueError):
        known = {}
    code = source_id()
    for rnd in rounds:
        key = f"{code} {workload} {rnd.config_seed}"
        if known.setdefault(key, rnd.digest) != rnd.digest:
            rnd.digest_ok = False
            rnd.problems.append(f"output digest {rnd.digest[:12]} differs from an earlier run's "
                                f"{known[key][:12]} (config seed {rnd.config_seed})")
    tmp = store.with_name(store.name + ".tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    os.replace(tmp, store)


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def quartiles(values: list) -> dict:
    vals = sorted(values)
    if len(vals) < 2:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": len(vals)}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def interquartile_mean(values: list) -> float:
    """The mean of the middle half of the values (a 25% trimmed mean)."""
    vals = sorted(values)
    cut = len(vals) // 4
    return statistics.fmean(vals[cut:len(vals) - cut])


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    rounds_dir = WORK / "rounds"
    if rounds_dir.exists():
        shutil.rmtree(rounds_dir)
    rounds_dir.mkdir(parents=True)
    plain, traced_rounds, tracers = [], [], []
    time_reference()  # the first call pays one-off costs
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        began = time.perf_counter()
        config_seed = round_seed(seed, index)
        rnd, _ = run_round(wl, rounds_dir / f"round-{index}", config_seed)
        plain.append(rnd)
        if traced:
            trnd, tracer = run_round(wl, rounds_dir / f"traced-{index}", config_seed, traced=True)
            traced_rounds.append(trnd)
            tracers.append(tracer)
            if trnd.digest != rnd.digest:
                trnd.digest_ok = False
                trnd.problems.append("traced round's output digest differs from the plain round's")
            for i, message in self_time_problems(trnd):
                trnd.failed.add(i)
                trnd.problems.append(message)
        index += 1
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now + longest > start + seconds:
            break
    shutil.rmtree(rounds_dir)
    compare_digests(wl.name, plain)
    every = plain + traced_rounds

    result = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine(), "source_id": source_id(),
        "rounds": [{"config_seed": r.config_seed, "traced": r.traced, "digest": r.digest,
                    "setup_s": r.setup_s, "stage_s": r.stage_seconds(), "reference_s": r.reference,
                    "commands": len(r.commands),
                    "failed": r.failures, "problems": r.problems} for r in every],
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failures for r in every),
    }
    reference = [k for r in plain for k in r.reference]
    result["reference_kernel"] = {**quartiles(reference), "scale": REFERENCE_S / statistics.median(reference)}
    pipeline = [sum(r.stage_seconds().values()) for r in plain]
    if not traced:
        # end-to-end times at the reference speed; per-layer metrics stay raw
        raw = {f"{stage}_s": [r.stage_seconds()[stage] for r in plain] for stage in STAGES}
        scaled = {f"{stage}_s": [r.scaled_stage_seconds()[stage] for r in plain] for stage in STAGES}
        raw["pipeline_s"] = pipeline
        scaled["pipeline_s"] = [sum(r.scaled_stage_seconds().values()) for r in plain]
        raw["setup_s"] = [r.setup_s for r in plain]
        scaled["setup_s"] = [r.setup_s * REFERENCE_S / r.reference[0] for r in plain]
        result["metrics"] = {}
        for name, values in scaled.items():
            # set-up is reported as its median over rounds, as the benchmark's contract asks
            statistic, value = (("median", statistics.median(values)) if name == "setup_s"
                                else ("interquartile mean", interquartile_mean(values)))
            result["metrics"][name] = {"unit": "s", "statistic": statistic, "value": value, **quartiles(values),
                                       "raw_median": statistics.median(raw[name]), "raw_samples": raw[name]}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"unit": "MB", "statistic": "peak", "value": rss, **quartiles([rss])}
        return result
    per_round = [layer_metrics(r, t) for r, t in zip(traced_rounds, tracers)]
    samples = {name: [m[name] for m in per_round] for name in per_round[0]}
    traced_pipeline = [sum(r.stage_seconds().values()) for r in traced_rounds]
    overhead = statistics.median(traced_pipeline) - statistics.median(pipeline)
    samples["trace.overhead_s"] = [overhead]
    samples["trace.overhead_ratio"] = [overhead / statistics.median(pipeline)]
    result["metrics"] = {name: {"unit": PER_LAYER_UNITS[name], "statistic": "median",
                                "value": statistics.median(vals), **quartiles(vals), "samples": vals}
                         for name, vals in samples.items()}
    spans_file = WORK / "results" / f"{wl.name}-seed{seed}-spans.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps([t.spans() for t in tracers]))
    result["spans_file"] = spans_file.relative_to(ROOT).as_posix()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "cpsguard" / "__init__.py").is_file():
        print(f"error: no cpsguard sources at {SRC / 'cpsguard'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    wl = WORKLOADS[args.workload]
    result = run(wl, args.seed, args.seconds, bool(args.trace))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']}")
    print(f"workload {wl.name}: {wl.why}")
    digests = sorted({r["digest"][:16] for r in result["rounds"]})
    print(f"rounds: {len(result['rounds'])}, output digests {', '.join(digests)}")
    for r in result["rounds"]:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    ref = result["reference_kernel"]
    print(f"reference kernel: median {ref['median'] * 1e3:.3f} ms of {ref['n']} "
          f"(end-to-end times at {REFERENCE_S * 1e3:.1f} ms)")
    for metric, doc in result["metrics"].items():
        raw = f", raw {doc['raw_median']:.6f}" if "raw_median" in doc and doc["unit"] == "s" else ""
        print(f"{metric:40s} {doc['value']:14.6f} {doc['unit']:6s} ({doc['statistic']} of {doc['n']}{raw})")
    print(f"full result: {(results / name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": doc["value"], "unit": doc["unit"]}
                    for metric, doc in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
