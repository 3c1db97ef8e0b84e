"""Online safety monitoring: periodic model queries drive switching
between the AI controller and the fallback safety controller.

At every monitoring period boundary (including t=0) the current
concrete state is abstracted and the safety query is checked on the
model. A holding query means the system can probably reach an
unsafe-labeled region, so the verdict is UNSAFE and the safety
controller takes over for the next period; otherwise the AI controller
runs (returning to it after a safe verdict only when switch_back is
set). States the model has never seen resolve per unknown_policy:
"SAFE" switches conservatively, "AI" stays.

The closed loop itself is `plants.simulate`; a monitored run supplies
its per-step hook, which queries the model at period boundaries, tags
each step with the active controller and hands that controller's policy
back. The AI controller is bound once per run, so a PID keeps its state
across a safety interlude; the safety controller is bound afresh (PID
state cleared) at every switch-in.

Query verdicts for a fixed (model, query) pair are computed for all
states in one pass and memoized on the model, so repeated queries are
lookups; wall time is recorded per query and for the run as a whole.
Recorded timings stay in memory (the serialized outputs are timing-free
so runs with equal seeds produce identical files).
"""

from __future__ import annotations

import time

import numpy as np

from . import pmc, stl
from .abstraction import AbstractMdp, abstract_state_of
from .plants import PlantModel, SimConfig, policy, simulate
from .signals import InputSignal, Trace

SAFE = "SAFE"
UNSAFE = "UNSAFE"
UNKNOWN = "UNKNOWN"

AI_TAG = 0
SAFE_TAG = 1


class MonitorConfig(stl.Record):
    __slots__ = ("query", "period", "unknown_policy", "switch_back")  # policy "SAFE" switches on unknown states
    _defaults = {"period": 5.0, "unknown_policy": "SAFE", "switch_back": True}

    def __post_init__(self):
        if self.unknown_policy not in ("SAFE", "AI"):
            raise ValueError(f"unknown_policy must be SAFE or AI, got {self.unknown_policy!r}")
        if not self.period > 0:
            raise ValueError("period must be positive")


class QueryRecord(stl.Record):
    # verdict: SAFE or UNSAFE after applying the unknown policy; raw_unknown: the state was not in the model
    __slots__ = ("t", "verdict", "raw_unknown", "probability", "wall_time")


class MonitoredTrace(stl.Record):
    # controller_tags: per step, AI_TAG or SAFE_TAG; wall_time: the whole run, queries included
    __slots__ = ("trace", "controller_tags", "queries", "wall_time")

    @property
    def query_time(self) -> float:
        return sum(q.wall_time for q in self.queries)

    @property
    def overhead_ratio(self) -> float:
        return self.query_time / self.wall_time if self.wall_time > 0 else 0.0


def monitor_step(model: AbstractMdp, config: MonitorConfig, q: np.ndarray, t: float = 0.0) -> QueryRecord:
    """One safety query against the model for a concrete state, under MAX
    semantics (the worst case over schedulers)."""
    start = time.perf_counter()
    sid = abstract_state_of(model, q)
    if sid is None:
        verdict = UNSAFE if config.unknown_policy == "SAFE" else SAFE
        return QueryRecord(t, verdict, True, None, time.perf_counter() - start)
    result = pmc.check_all(model, config.query)[sid]
    # The safety query asks for a high probability of reaching the
    # unsafe label, so a holding query means danger.
    verdict = UNSAFE if result.holds else SAFE
    return QueryRecord(t, verdict, False, result.probability, time.perf_counter() - start)


def run_monitored(plant: PlantModel, ai, safe, model: AbstractMdp, config: MonitorConfig,
                  input_signal: InputSignal, simcfg: SimConfig) -> MonitoredTrace:
    """Closed-loop run where the monitor picks the controller each period."""
    per = simcfg.steps_per_control
    period_steps = int(round(config.period / simcfg.dt))
    if abs(period_steps * simcfg.dt - config.period) > 1e-9 or period_steps % per != 0:
        raise ValueError(
            f"monitor period {config.period} must be a multiple of the control period {simcfg.control_period}"
        )
    run_start = time.perf_counter()
    n_steps, control_period = simcfg.n_steps, simcfg.control_period
    ai_policy = policy(ai, plant, control_period)
    active, active_tag = ai_policy, AI_TAG
    tags: list[int] = []
    queries: list[QueryRecord] = []

    def supervise(i: int, t: float, row: tuple):
        nonlocal active, active_tag
        if i % period_steps == 0 and i < n_steps:
            record = monitor_step(model, config, np.array(row), t)
            queries.append(record)
            if record.verdict == UNSAFE:
                if active_tag == AI_TAG:
                    active = policy(safe, plant, control_period)
                active_tag = SAFE_TAG
            elif config.switch_back or active_tag == AI_TAG:
                active, active_tag = ai_policy, AI_TAG
        tags.append(active_tag)
        return active

    trace = simulate(plant, ai, input_signal, simcfg, supervise)
    return MonitoredTrace(
        trace=trace,
        controller_tags=np.array(tags, dtype=int),
        queries=queries,
        wall_time=time.perf_counter() - run_start,
    )


def eval_metrics(trace: Trace, safety_spec: stl.StlFormula, perf_spec: stl.StlFormula) -> tuple[float, float]:
    """Per-step satisfaction fractions for two always-patterns.

    Both specs must be G[a,b](body) with a temporal-free body; the
    returned fractions count the grid steps inside [a, b] whose body
    evaluates non-negative.
    """
    return _step_fraction(trace, safety_spec), _step_fraction(trace, perf_spec)


def _step_fraction(trace: Trace, spec: stl.StlFormula) -> float:
    if not isinstance(spec, stl.Always):
        raise ValueError(f"metric spec must be an always-pattern, got {stl.format_stl(spec)}")
    if stl.horizon(spec.operand) != 0.0:
        raise ValueError("metric spec body must be temporal-free")
    body = stl.robustness_per_step(trace, spec.operand)
    j0, j1 = stl._offsets(spec.lo, spec.hi, trace.dt)
    j1 = min(j1, len(trace) - 1)
    if j1 < j0:
        raise ValueError("metric interval contains no grid point")
    window = body[j0 : j1 + 1]
    return float(np.mean(window >= 0.0))
