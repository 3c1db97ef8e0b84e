"""Run the benchmark over several seeds and summarize, optionally writing
the baseline file.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --traced --out bench/BENCH_baseline.json

Runs `bench/run.py` once per (seed, workload), one process at a time,
seeds in the outer loop so that drift of the machine spreads evenly over
the workloads. For each end-to-end metric it reports the median over
seeds and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. With --traced it adds one traced
run per workload (the first seed) for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "work" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "process_s": elapsed, "line": line, "detail": detail}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary here (JSON)")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, args.seconds, 0)
            runs[w].append(r)
            line = r["line"]
            print(f"{w} seed {seed}: {r['process_s']:.1f}s correct={line['correct']} "
                  f"{line['failed']}/{line['attempted']} failed, pipeline_s="
                  f"{line['metrics']['pipeline_s']['value']:.3f}", flush=True)

    summary = {"machine": None, "source_id": None, "seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for w in workloads:
        first = runs[w][0]["detail"]
        summary["machine"], summary["source_id"] = first["machine"], first["source_id"]
        metrics = {}
        print(f"\n{w}: {'metric':14s} {'median':>10s} {'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["line"]["metrics"][name]["value"] for r in runs[w]]
            s = spread(values) if len(values) > 1 else 0.0
            if name != "setup_s":
                worst = max(worst, s / bound)
            unit = runs[w][0]["line"]["metrics"][name]["unit"]
            metrics[name] = {"unit": unit, "median": statistics.median(values), "spread": s,
                             "bound": bound, "values": values}
            flag = "" if s <= bound / 3 or name == "setup_s" else ("  > bound/3" if s <= bound else "  > BOUND")
            print(f"{'':{len(w) + 2}s}{name:14s} {statistics.median(values):10.4f} {s:7.3f} {bound:6.2f}{flag}")
        summary["workloads"][w] = {
            "why": first["why"],
            "metrics": metrics,
            "runs": [{"seed": r["seed"], "correct": r["line"]["correct"], "attempted": r["line"]["attempted"],
                      "failed": r["line"]["failed"],
                      "rounds": [{k: x[k] for k in ("config_seed", "digest", "stage_s")}
                                 for x in r["detail"]["rounds"]]}
                     for r in runs[w]],
        }
    if args.traced:
        for w in workloads:
            r = run_once(w, seeds[0], args.seconds, 1)
            print(f"{w} traced seed {seeds[0]}: correct={r['line']['correct']} "
                  f"overhead {r['line']['metrics']['trace.overhead_s']['value']:.3f}s", flush=True)
            summary["workloads"][w]["traced"] = {
                "seed": seeds[0], "correct": r["line"]["correct"], "attempted": r["line"]["attempted"],
                "failed": r["line"]["failed"],
                "metrics": {name: {"unit": d["unit"], "value": d["value"], "n": d["n"]}
                            for name, d in r["detail"]["metrics"].items()},
            }
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
