"""Regenerate the two ACC controllers the benchmark ships in bench/data/.

The recipe is the acceptance suite's (tests/test_acceptance.py):
behavior-clone the ACC fallback PID from 40 closed-loop runs (input
seed 1000, a 24x24 tanh MLP, lr 0.01, 100 epochs, batch 64, seed 0),
then corrupt the weights with `perturb_weights`.

- acc_unsafe.txt: teacher = default ACC plant, perturb_weights(net, 0.15, seed=77)
  (the acceptance suite's `unsafe_controller`, used by acc-monitor).
- acc_falsify.txt: teacher = ACC with pid_headway_factor=3.6,
  perturb_weights(net, 0.05, seed=77) (the acceptance suite's
  `falsify_target`, used by acc-falsify).
- cstr_clone.txt: the same recipe on the CSTR plant (its default PID and
  sim config), perturb_weights(net, 0.15, seed=77); cstr-until's monitor
  switches from it to the PID. Its collect and falsify stay on the PID.

The benchmark only copies these files, so no workload trains a network
and no workload shifts when `controllers.train_bc` changes. Run from the
repository root:

    python3 bench/make_controllers.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cpsguard.controllers import perturb_weights, save_mlp, train_bc  # noqa: E402
from cpsguard.plants import (  # noqa: E402
    default_input_spec,
    default_pid,
    default_sim_config,
    make_plant,
    observe,
    simulate,
)
from cpsguard.signals import random_signal  # noqa: E402


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
            obs_rows.append(observe(teacher_plant, tr.states[i, :plant.state_dim], tr.inputs[i], i * simcfg.dt))
            acts.append(tr.actions[i])
    net, _ = train_bc((np.array(obs_rows), np.array(acts)), (24, 24),
                      {"lr": 0.01, "epochs": 100, "batch": 64, "seed": 0},
                      out_range=plant.control_range)
    return net


def main() -> int:
    plant = make_plant("acc")
    simcfg = default_sim_config(plant)
    spec = default_input_spec(plant, num_control_points=6, duration=simcfg.horizon)
    out = Path(__file__).resolve().parent / "data"
    out.mkdir(exist_ok=True)
    unsafe = perturb_weights(clone_controller(plant, spec, simcfg), 0.15, seed=77)
    save_mlp(unsafe, out / "acc_unsafe.txt")
    teacher = make_plant("acc", {"pid_headway_factor": 3.6})
    target = perturb_weights(clone_controller(plant, spec, simcfg, teacher_plant=teacher), 0.05, seed=77)
    save_mlp(target, out / "acc_falsify.txt")
    cstr = make_plant("cstr")
    cstr_sim = default_sim_config(cstr)
    cstr_spec = default_input_spec(cstr, num_control_points=6, duration=cstr_sim.horizon)
    save_mlp(perturb_weights(clone_controller(cstr, cstr_spec, cstr_sim), 0.15, seed=77), out / "cstr_clone.txt")
    print(f"wrote acc_unsafe.txt, acc_falsify.txt and cstr_clone.txt to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
