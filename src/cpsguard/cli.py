"""Command-line front end and experiment orchestration.

Subcommands: collect, build, refine, check, monitor, falsify, report.
A single JSON config file describes a whole experiment; flags override
file values. Every output file embeds a short hash of the resolved
config, all writes are atomic (temp file + rename), and all randomness
flows from the root seed through per-trace / per-trial spawned streams,
so a command with a fixed seed produces byte-identical outputs across
runs (wall-clock timings are printed, never persisted).

Exit codes: 0 ok, 1 usage error, 2 runtime failure, 3 property violated
(check with --assert-holds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

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


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    raw: dict
    config_hash: str
    base_dir: Path

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def output_dir(self) -> Path:
        return self.base_dir / self.raw["output_dir"]

    def plant(self) -> plants.PlantModel:
        section = self.raw["plant"]
        return plants.make_plant(section["name"], section.get("params") or {})

    def simcfg(self) -> plants.SimConfig:
        s = self.raw["sim"]
        return plants.SimConfig(dt=s["dt"], horizon=s["horizon"], control_period=s["control_period"])

    def input_spec(self) -> signals.InputSpec:
        plant = self.plant()
        section = self.raw["input"]
        duration = section["duration"] if section["duration"] is not None else self.raw["sim"]["horizon"]
        spec = plants.default_input_spec(
            plant,
            num_control_points=section["num_control_points"],
            duration=duration,
            interpolation=section["interpolation"],
        )
        if section["ranges"] is not None:
            spec = signals.InputSpec(
                dims=len(section["ranges"]),
                ranges=tuple(tuple(r) for r in section["ranges"]),
                num_control_points=spec.num_control_points,
                duration=spec.duration,
                interpolation=spec.interpolation,
            )
        return spec

    def controller(self, which: str = "controller"):
        section = self.raw[which]
        plant = self.plant()
        if section["kind"] == "mlp":
            path = section.get("path")
            if not path:
                raise UsageError(f"{which}: mlp controller needs a 'path'")
            full = self.base_dir / path
            if not full.exists():
                raise UsageError(f"{which}: weights file {full} does not exist")
            return controllers.load_mlp(full)
        if section["kind"] == "pid":
            pid = plants.default_pid(plant)
            for gain in ("kp", "ki", "kd"):
                if section.get(gain) is not None:
                    setattr(pid, gain, float(section[gain]))
            return pid
        raise UsageError(f"{which}: unknown controller kind {section['kind']!r}")

    def labeling_spec(self) -> stl.StlFormula:
        return stl.parse_stl(self.raw["labeling_spec"])

    def abstraction_config(self) -> abstraction.AbstractionConfig:
        a = self.raw["abstraction"]
        return abstraction.AbstractionConfig(
            k=a["k"], c=a["c"],
            label_threshold=a["label_threshold"],
            variance_threshold=a["variance_threshold"],
        )

    def monitor_config(self) -> monitor.MonitorConfig:
        m = self.raw["monitor"]
        return monitor.MonitorConfig(
            query=pmc.parse_pctl(m["query"]),
            period=m["period"],
            unknown_policy=m["unknown_policy"],
            switch_back=m["switch_back"],
        )

    def falsify_config(self, seed: int) -> falsify.FalsifyConfig:
        f = self.raw["falsify"]
        spec_text = f["spec"] if f["spec"] else self.raw["labeling_spec"]
        return falsify.FalsifyConfig(
            stl_spec=stl.parse_stl(spec_text),
            safety_query=pmc.parse_pctl(f["query"]),
            queue_seed_count=f["queue_seed_count"],
            global_budget=f["global_budget"],
            local_budget=f["local_budget"],
            checkpoint_time=f["checkpoint_time"],
            seed=seed,
            step_init=f["step_init"],
            step_decay=f["step_decay"],
            step_growth=f["step_growth"],
        )


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    raw = DEFAULT_CONFIG
    base_dir = Path.cwd()
    if path is not None:
        file = Path(path)
        if not file.exists():
            raise UsageError(f"config file {path} does not exist")
        with open(file) as fh:
            try:
                raw = _merge(raw, json.load(fh))
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file {path}: {exc}") from exc
        base_dir = file.parent
    if overrides:
        raw = _merge(raw, overrides)
    canonical = json.dumps(raw, sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return RunConfig(raw=raw, config_hash=digest, base_dir=base_dir)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _spawn_seeds(root: int, purpose: str, n: int) -> list[int]:
    """Deterministic per-run seed streams, one child per index."""
    base = np.random.SeedSequence([root, int.from_bytes(purpose.encode(), "big") % (2**32)])
    return [int(child.generate_state(1)[0]) for child in base.spawn(n)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_collect(cfg: RunConfig, num: int | None) -> int:
    plant = cfg.plant()
    simcfg = cfg.simcfg()
    spec = cfg.input_spec()
    controller = cfg.controller()
    labeling = cfg.labeling_spec()
    n = num if num is not None else cfg.raw["collect"]["num_traces"]
    out = cfg.output_dir / "traces"
    out.mkdir(parents=True, exist_ok=True)
    seeds = _spawn_seeds(cfg.seed, "collect", n)
    entries = []
    failures = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        signal = signals.random_signal(spec, rng)
        try:
            trace = plants.simulate(plant, controller, signal, simcfg)
        except plants.SimulationBlowup as exc:
            failures.append({"index": i, "seed": seed, "error": str(exc)})
            continue
        robs = stl.labeling_robustness(trace, labeling)
        name = f"trace_{i:04d}.txt"
        _atomic_write(out / name, signals.trace_text(trace, cfg.config_hash, {"rob": robs}))
        entries.append({"file": f"traces/{name}", "seed": seed})
    manifest = {
        "config_hash": cfg.config_hash,
        "labeling_spec": cfg.raw["labeling_spec"],
        "traces": entries,
        "failures": failures,
    }
    _atomic_write(cfg.output_dir / "collect_manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"collected {len(entries)} traces ({len(failures)} failures) -> {out}")
    return 0 if not failures else 2


def _load_trace_pairs(cfg: RunConfig) -> list[tuple[signals.Trace, np.ndarray]]:
    manifest_path = cfg.output_dir / "collect_manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no collected traces: {manifest_path} missing (run collect first)")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    pairs = []
    for entry in manifest["traces"]:
        trace, extras = signals.load_trace(cfg.output_dir / entry["file"])
        if "rob" not in extras:
            raise ValueError(f"{entry['file']}: missing rob column")
        pairs.append((trace, extras["rob"]))
    return pairs


def cmd_build(cfg: RunConfig) -> int:
    pairs = _load_trace_pairs(cfg)
    model = abstraction.build_abstraction(pairs, cfg.abstraction_config())
    _write_model(cfg, model)
    print(f"model: {len(model.states)} states, {model.num_transitions()} transitions")
    return 0


def cmd_refine(cfg: RunConfig) -> int:
    pairs = _load_trace_pairs(cfg)
    model_path = cfg.output_dir / "model.json"
    if not model_path.exists():
        raise FileNotFoundError(f"{model_path} missing (run build first)")
    model = abstraction.load_model(model_path)
    acfg = cfg.abstraction_config()
    if (acfg.k, acfg.c) != (model.config.k, model.config.c):
        raise ValueError(
            f"abstraction schema mismatch: model was built with k={model.config.k}, "
            f"c={model.config.c}, config asks for k={acfg.k}, c={acfg.c}"
        )
    before = len(model.states)
    refined = abstraction.refine(model, pairs, acfg)
    _write_model(cfg, refined)
    print(
        f"refined: {before} -> {len(refined.states)} states, "
        f"{refined.num_transitions()} transitions, {len(refined.classifiers)} split cells"
    )
    return 0


def _write_model(cfg: RunConfig, model: abstraction.AbstractMdp) -> None:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(cfg.output_dir / "model.json", abstraction.model_to_json(model, cfg.config_hash))
    tra, lab = abstraction.tra_lab_text(model)
    _atomic_write(cfg.output_dir / "model.tra", tra)
    _atomic_write(cfg.output_dir / "model.lab", lab)


def cmd_check(cfg: RunConfig, query: str | None, state: str | None, state_file: str | None,
              assert_holds: bool, semantics: str) -> int:
    model = abstraction.load_model(cfg.output_dir / "model.json")
    text = query if query else cfg.raw["monitor"]["query"]
    formula = pmc.parse_pctl(text)
    if state_file:
        vec = np.array(json.loads(Path(state_file).read_text()), dtype=float)
        sid = abstraction.abstract_state_of(model, vec)
        if sid is None:
            print("state: UNKNOWN (outside every observed cell)")
            return 3 if assert_holds else 0
    elif state:
        sid = abstraction.parse_state_id(state)
        if sid not in model.states:
            raise ValueError(f"state {state!r} not in the model")
    else:
        sid = model.initial
    verdict = pmc.check(model, sid, formula, semantics)
    prob = f"{verdict.probability:.6f}" if verdict.probability is not None else "n/a"
    print(f"state {abstraction.state_id_str(sid)}: holds={verdict.holds} probability={prob} ({verdict.semantics})")
    if assert_holds and not verdict.holds:
        return 3
    return 0


def cmd_monitor(cfg: RunConfig, runs: int | None) -> int:
    plant = cfg.plant()
    simcfg = cfg.simcfg()
    spec = cfg.input_spec()
    ai = cfg.controller("controller")
    safe = cfg.controller("safety_controller")
    model = abstraction.load_model(cfg.output_dir / "model.json")
    mcfg = cfg.monitor_config()
    safety_metric = stl.parse_stl(cfg.raw["monitor"]["safety_metric"])
    perf_metric = stl.parse_stl(cfg.raw["monitor"]["performance_metric"])
    n = runs if runs is not None else cfg.raw["monitor"]["num_runs"]
    seeds = _spawn_seeds(cfg.seed, "monitor", n)
    out = cfg.output_dir / "monitored"
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    total_query = total_wall = 0.0
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        signal = signals.random_signal(spec, rng)
        try:
            mt = monitor.run_monitored(plant, ai, safe, model, mcfg, signal, simcfg)
        except plants.SimulationBlowup as exc:
            rows.append({"seed": seed, "error": str(exc)})
            continue
        safety_frac, perf_frac = monitor.eval_metrics(mt.trace, safety_metric, perf_metric)
        total_query += mt.query_time
        total_wall += mt.wall_time
        rows.append({
            "seed": seed,
            "safety_frac": safety_frac,
            "perf_frac": perf_frac,
            "switched_steps": int(np.sum(mt.controller_tags == monitor.SAFE_TAG)),
            "queries": [
                {"t": q.t, "verdict": q.verdict, "unknown": q.raw_unknown, "probability": q.probability}
                for q in mt.queries
            ],
        })
        _atomic_write(out / f"monitored_{i:04d}.txt",
                      signals.trace_text(mt.trace, cfg.config_hash, {"controller": mt.controller_tags}))
    done = [r for r in rows if "error" not in r]
    mean_safety = statistics.fmean(r["safety_frac"] for r in done) if done else None
    mean_perf = statistics.fmean(r["perf_frac"] for r in done) if done else None
    overhead = total_query / total_wall if total_wall > 0 else 0.0
    metrics = {"config_hash": cfg.config_hash, "runs": rows,
               "mean_safety_frac": mean_safety, "mean_perf_frac": mean_perf}
    _atomic_write(cfg.output_dir / "monitor_metrics.json", json.dumps(metrics, sort_keys=True, indent=1) + "\n")
    print(f"monitored {n} runs ({n - len(done)} failed): safety_frac={_fmt_opt(mean_safety, 4, 'n/a')} "
          f"perf_frac={_fmt_opt(mean_perf, 4, 'n/a')} overhead_ratio={overhead:.4%}")
    return 0 if len(done) == n else 2


def cmd_falsify(cfg: RunConfig, algo: str, trials: int | None,
                model_path: str | None = None) -> int:
    plant = cfg.plant()
    system = plants.ClosedLoopSystem(plant, cfg.controller(), cfg.simcfg(), cfg.input_spec())
    kinds = {"guided": falsify.GUIDED, "random": falsify.RANDOM,
             "opt": falsify.OPT_ONLY, "guided-rand": falsify.GUIDED_RAND}
    if algo not in kinds:
        raise UsageError(f"unknown algorithm {algo!r}, expected one of {sorted(kinds)}")
    kind = kinds[algo]
    model = None
    if kind == falsify.GUIDED:
        model = abstraction.load_model(model_path if model_path else cfg.output_dir / "model.json")
    n = trials if trials is not None else cfg.raw["falsify"]["trials"]
    seeds = _spawn_seeds(cfg.seed, f"falsify-{algo}", n)
    outcomes, per_trial = [], []
    print(f"{'trial':>5} {'success':>8} {'time[s]':>8} {'#sim':>5} {'best rob':>10}")
    for i, trial_seed in enumerate(seeds):
        fcfg = cfg.falsify_config(trial_seed)
        try:
            outcome = falsify.run_baseline(kind, system, model, fcfg)
        except plants.SimulationBlowup as exc:
            outcomes.append(None)
            per_trial.append({"seed": trial_seed, "error": str(exc)})
            print(f"{i:>5} error: {exc}")
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
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(cfg.output_dir / f"falsify_{algo}.json", json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0 if None not in outcomes else 2


def _fmt_opt(value, digits: int = 1, missing: str = "-") -> str:
    return missing if value is None else f"{value:.{digits}f}"


def cmd_report(cfg: RunConfig) -> int:
    out = cfg.output_dir
    sections = []
    manifest = out / "collect_manifest.json"
    if manifest.exists():
        with open(manifest) as fh:
            doc = json.load(fh)
        sections.append(f"## Traces\n\n{len(doc['traces'])} collected, {len(doc['failures'])} failed.")
    model_path = out / "model.json"
    if model_path.exists():
        model = abstraction.load_model(model_path)
        labels = [info.label for info in model.states.values()]
        sections.append(
            "## Model\n\n"
            f"{len(model.states)} states ({labels.count(-1)} labeled rob=-1), "
            f"{model.num_transitions()} transitions, {len(model.classifiers)} split cells."
        )
    metrics_path = out / "monitor_metrics.json"
    if metrics_path.exists():
        with open(metrics_path) as fh:
            doc = json.load(fh)
        sections.append(
            "## Monitoring\n\n"
            f"mean safety fraction {_fmt_opt(doc['mean_safety_frac'], 4, 'n/a')}, "
            f"mean performance fraction {_fmt_opt(doc['mean_perf_frac'], 4, 'n/a')} over {len(doc['runs'])} runs."
        )
    fals_lines = []
    for path in sorted(out.glob("falsify_*.json")):
        with open(path) as fh:
            doc = json.load(fh)
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpsguard", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; defaults apply without one")
    parser.add_argument("--seed", type=int, help="override the root seed")
    parser.add_argument("--out-dir", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="simulate seeded random inputs and write traces")
    p.add_argument("--num", type=int, help="number of traces")

    sub.add_parser("build", help="build the abstract model from collected traces")
    sub.add_parser("refine", help="refine the model (split mixed states)")

    p = sub.add_parser("check", help="check a safety query at a state")
    p.add_argument("--query", help="PCTL query (defaults to the monitor query)")
    p.add_argument("--state", help="state id, e.g. c123 (defaults to the initial state)")
    p.add_argument("--state-file", help="JSON file with a concrete channel vector")
    p.add_argument("--assert-holds", action="store_true", help="exit 3 when the query does not hold")
    p.add_argument("--semantics", choices=["MAX", "MIN"], default="MAX")

    p = sub.add_parser("monitor", help="run monitored simulations and report metrics")
    p.add_argument("--runs", type=int)

    p = sub.add_parser("falsify", help="run falsification trials")
    p.add_argument("--algo", default="guided", help="guided | random | opt | guided-rand")
    p.add_argument("--trials", type=int)
    p.add_argument("--spec", help="STL specification to falsify (overrides config)")
    p.add_argument("--query", help="PCTL safety query for the guided search (overrides config)")
    p.add_argument("--model", help="model file (defaults to <output_dir>/model.json)")

    sub.add_parser("report", help="aggregate outputs into a summary")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        overrides: dict = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out_dir is not None:
            overrides["output_dir"] = args.out_dir
        if args.command == "falsify":
            falsify_over = {}
            if args.spec:
                falsify_over["spec"] = args.spec
            if args.query:
                falsify_over["query"] = args.query
            if falsify_over:
                overrides["falsify"] = falsify_over
        cfg = load_config(args.config, overrides)
        if args.command == "collect":
            return cmd_collect(cfg, args.num)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "refine":
            return cmd_refine(cfg)
        if args.command == "check":
            return cmd_check(cfg, args.query, args.state, args.state_file, args.assert_holds, args.semantics)
        if args.command == "monitor":
            return cmd_monitor(cfg, args.runs)
        if args.command == "falsify":
            return cmd_falsify(cfg, args.algo, args.trials, args.model)
        if args.command == "report":
            return cmd_report(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
