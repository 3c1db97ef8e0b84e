"""cpsguard: model-based safety analysis for closed-loop control systems.

Pipeline: simulate the closed loop (`plants`), score traces against
temporal specifications (`stl`), abstract them into a finite labeled
MDP (`abstraction`), verify probabilistic safety queries on it (`pmc`),
and use the verdicts online for controller switching (`monitor`) or
offline to guide falsification (`falsify`). The `cli` module wires the
pieces into reproducible experiments.
"""

from .abstraction import (
    AbstractionConfig,
    AbstractMdp,
    PcaTransform,
    abstract_action,
    abstract_state_of,
    build_abstraction,
    cell_of,
    fit_pca,
    load_model,
    preciseness,
    refine,
)
from .controllers import MlpNet, PidController, mlp_forward, pid_policy, train_bc
from .falsify import FalsificationOutcome, FalsifyConfig, hill_climb, run_baseline, trial_stats
from .monitor import MonitorConfig, MonitoredTrace, eval_metrics, monitor_step, run_monitored
from .plants import ClosedLoopSystem, PlantModel, SimConfig, make_plant, simulate
from .pmc import PctlFormula, Verdict, check, parse_pctl, reach_prob
from .signals import InputSignal, InputSpec, Trace, make_input, sample
from .stl import StlFormula, parse_stl, robustness, satisfied

__version__ = "0.1.0"
