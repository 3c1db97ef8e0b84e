"""Offline falsification: model-guided search plus three baselines.

The guided algorithm keeps a FIFO queue of promising input signals.
Each outer iteration runs an inner loop of local_budget candidates: the
first comes from the queue (or a fresh random sample when the queue is
empty), later ones are adaptive hill-climbing perturbations of the
inner loop's best (input, robustness) so far. Every candidate is
simulated; a negative robustness returns immediately as a falsifying
input. Otherwise the concrete state at checkpoint_time is abstracted
and the safety query checked on the model: a holding query (the
candidate steers toward the unsafe region) enqueues it for later
exploitation. Queue seeds are generated eagerly but only cost a
simulation when actually run, so a trial runs at most
global_budget*local_budget simulations.

Baselines: RANDOM draws independent samples; OPT_ONLY restarts plain
hill climbing on the robustness objective; GUIDED_RAND is the guided
algorithm with the model check replaced by enqueueing a fresh random
sample (same budget accounting, no model needed).

All randomness flows from the config seed through one Generator, so
outcomes are reproducible; re-simulating a returned falsifying input
reproduces its violating trace bit-identically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import pmc, stl
from .abstraction import AbstractMdp, abstract_state_of
from .plants import ClosedLoopSystem
from .signals import InputSignal, InputSpec, make_input, random_signal, time_index

RANDOM = "RANDOM"
OPT_ONLY = "OPT_ONLY"
GUIDED = "GUIDED"
GUIDED_RAND = "GUIDED_RAND"


@dataclass(frozen=True)
class FalsifyConfig:
    stl_spec: stl.StlFormula
    safety_query: pmc.PctlFormula
    queue_seed_count: int = 4
    global_budget: int = 5
    local_budget: int = 10
    checkpoint_time: float = 5.0
    seed: int = 0
    step_init: float = 0.1  # initial step, fraction of each channel range
    step_decay: float = 0.85  # on a rejected candidate
    step_growth: float = 1.5  # on an accepted candidate

    def __post_init__(self):
        if self.queue_seed_count < 1:
            raise ValueError("queue_seed_count must be >= 1")
        if self.global_budget < 1 or self.local_budget < 1:
            raise ValueError("budgets must be >= 1")


@dataclass
class FalsificationOutcome:
    success: bool
    falsifying_input: InputSignal | None
    robustness_history: list[float]
    simulations: int
    wall_time: float


class _AdaptiveStep:
    """Per-coordinate Gaussian perturbation with multiplicative step control."""

    def __init__(self, spec: InputSpec, init: float, decay: float, growth: float):
        self.lo = np.array([r[0] for r in spec.ranges])[:, None]
        self.hi = np.array([r[1] for r in spec.ranges])[:, None]
        self.width = self.hi - self.lo
        self.frac = init
        self.decay = decay
        self.growth = growth

    def propose(self, base: InputSignal, rng: np.random.Generator) -> InputSignal:
        noise = rng.standard_normal(base.control_values.shape)
        vals = np.clip(base.control_values + self.frac * self.width * noise, self.lo, self.hi)
        return make_input(base.spec, vals)

    def accepted(self):
        self.frac = min(self.frac * self.growth, 1.0)

    def rejected(self):
        self.frac = max(self.frac * self.decay, 1e-9)


def hill_climb(objective, start: InputSignal, budget: int, rng: np.random.Generator, *,
               step_init: float = 0.1, step_decay: float = 0.85, step_growth: float = 1.5,
               stop_below: float | None = None):
    """(1+1) hill climbing over a signal's control values.

    Minimizes the objective; accepts strictly lower values only. Returns
    (best_input, best_value, evaluations). stop_below ends the search
    as soon as a value drops under the threshold.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    step = _AdaptiveStep(start.spec, step_init, step_decay, step_growth)
    best = start
    best_val = objective(start)
    evals = 1
    while evals < budget and not (stop_below is not None and best_val < stop_below):
        candidate = step.propose(best, rng)
        val = objective(candidate)
        evals += 1
        if val < best_val:
            best, best_val = candidate, val
            step.accepted()
        else:
            step.rejected()
    return best, best_val, evals


def _checkpoint_state(trace, checkpoint_time: float) -> np.ndarray:
    return trace.states[time_index(trace, checkpoint_time)]


def _unsafe_flag(model: AbstractMdp, cfg: FalsifyConfig, trace) -> bool:
    """Whether the trace's checkpoint state can reach the unsafe region
    per the safety query (MAX semantics); unknown states are not enqueued."""
    sid = abstract_state_of(model, _checkpoint_state(trace, cfg.checkpoint_time))
    if sid is None:
        return False
    return pmc.check_all(model, cfg.safety_query)[sid].holds


def model_guided_falsify(system: ClosedLoopSystem, model: AbstractMdp, cfg: FalsifyConfig,
                         event_log: list | None = None) -> FalsificationOutcome:
    """Model-guided falsification (see the module docs for the loop)."""
    return _guided(system, model, cfg, use_model=True, event_log=event_log)


def _guided(system: ClosedLoopSystem, model: AbstractMdp | None, cfg: FalsifyConfig,
            use_model: bool, event_log: list | None) -> FalsificationOutcome:
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    queue: list[tuple[int, InputSignal]] = []
    next_id = 0

    def enqueue(signal: InputSignal) -> None:
        nonlocal next_id
        queue.append((next_id, signal))
        if event_log is not None:
            event_log.append(("enqueue", next_id))
        next_id += 1

    for _ in range(cfg.queue_seed_count):
        enqueue(random_signal(system.input_spec, rng))
    history: list[float] = []
    sims = 0
    for _ in range(cfg.global_budget):
        step = _AdaptiveStep(system.input_spec, cfg.step_init, cfg.step_decay, cfg.step_growth)
        incumbent: InputSignal | None = None
        incumbent_rob = math.inf
        for i in range(cfg.local_budget):
            if i == 0:
                if queue:
                    cand_id, candidate = queue.pop(0)
                    if event_log is not None:
                        event_log.append(("dequeue", cand_id))
                else:
                    candidate = random_signal(system.input_spec, rng)
            else:
                candidate = step.propose(incumbent, rng)
            trace = system.run(candidate)
            sims += 1
            rob = stl.robustness(trace, cfg.stl_spec, 0.0)
            history.append(rob)
            if rob < incumbent_rob:
                incumbent, incumbent_rob = candidate, rob
                if i > 0:
                    step.accepted()
            elif i > 0:
                step.rejected()
            if rob < 0.0:
                return FalsificationOutcome(True, candidate, history, sims, time.perf_counter() - start)
            if use_model:
                if _unsafe_flag(model, cfg, trace):
                    enqueue(candidate)
            else:
                # GUIDED_RAND: the model check is replaced by pushing a
                # fresh random sample.
                enqueue(random_signal(system.input_spec, rng))
    assert sims <= cfg.global_budget * cfg.local_budget
    return FalsificationOutcome(False, None, history, sims, time.perf_counter() - start)


def run_baseline(kind: str, system: ClosedLoopSystem, model: AbstractMdp | None,
                 cfg: FalsifyConfig) -> FalsificationOutcome:
    """RANDOM, OPT_ONLY, GUIDED_RAND, or GUIDED by name."""
    if kind == GUIDED:
        return model_guided_falsify(system, model, cfg)
    if kind == GUIDED_RAND:
        return _guided(system, None, cfg, use_model=False, event_log=None)
    if kind == RANDOM:
        return _random_search(system, cfg)
    if kind == OPT_ONLY:
        return _opt_only(system, cfg)
    raise ValueError(f"unknown falsification algorithm {kind!r}")


def _random_search(system: ClosedLoopSystem, cfg: FalsifyConfig) -> FalsificationOutcome:
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    history: list[float] = []
    sims = 0
    for _ in range(cfg.global_budget * cfg.local_budget):
        candidate = random_signal(system.input_spec, rng)
        rob = stl.robustness(system.run(candidate), cfg.stl_spec, 0.0)
        sims += 1
        history.append(rob)
        if rob < 0.0:
            return FalsificationOutcome(True, candidate, history, sims, time.perf_counter() - start)
    return FalsificationOutcome(False, None, history, sims, time.perf_counter() - start)


def _opt_only(system: ClosedLoopSystem, cfg: FalsifyConfig) -> FalsificationOutcome:
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    history: list[float] = []
    sims = 0

    def objective(signal: InputSignal) -> float:
        nonlocal sims
        rob = stl.robustness(system.run(signal), cfg.stl_spec, 0.0)
        sims += 1
        history.append(rob)
        return rob

    for _ in range(cfg.global_budget):
        start_signal = random_signal(system.input_spec, rng)
        best, best_val, _ = hill_climb(
            objective, start_signal, cfg.local_budget, rng,
            step_init=cfg.step_init, step_decay=cfg.step_decay, step_growth=cfg.step_growth,
            stop_below=0.0,
        )
        if best_val < 0.0:
            return FalsificationOutcome(True, best, history, sims, time.perf_counter() - start)
    return FalsificationOutcome(False, None, history, sims, time.perf_counter() - start)


def trial_stats(outcomes: list[FalsificationOutcome]) -> dict:
    """FSR (success count) and means over the successful trials only."""
    if not outcomes:
        raise ValueError("no outcomes")
    wins = [o for o in outcomes if o.success]
    return {
        "trials": len(outcomes),
        "fsr": len(wins),
        "mean_time_success": (sum(o.wall_time for o in wins) / len(wins)) if wins else None,
        "mean_sims_success": (sum(o.simulations for o in wins) / len(wins)) if wins else None,
    }
