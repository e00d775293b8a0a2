#!/usr/bin/env python3
"""Optimize the two-input photonic-lantern toy and dump its artifacts.

Two tilted plane waves (+-1 FFT bin) are routed into the LP01 and LP11
modes of a step-index fiber through one 64x64x48 GRIN volume.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ove.design import OptimizerConfig
from ove.experiments import lantern_experiment
from ove.fields import Grid2D
from ove.io import export_volume, render_field, write_csv
from ove.propagation import PropagationSpec, bpm
from ove.sources import FiberSpec, lp_modes, tilt_angles


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/lantern", help="output directory")
    ap.add_argument("--iters", type=int, default=400)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    fiber = FiberSpec(core_radius_um=5.0, n_core=1.45, n_clad=1.444,
                      wavelength_um=1.55)
    grid = Grid2D(64, 64, 0.5, 0.5)
    angles = tilt_angles(grid, 1.55, (-1.0, 1.0))

    opt = OptimizerConfig(step_size=2e-3, max_iters=args.iters, seed=args.seed)
    run, report = lantern_experiment(fiber, angles, optimizer=opt)

    final = run.loss_history[-1]
    print(f"loss {run.initial_loss:.4f} -> {final:.4f} "
          f"(ratio {final / run.initial_loss:.3f}, {len(run.loss_history)} iters)")
    labels = [m.label for m in lp_modes(fiber, grid)[:2]]
    for t, lab in enumerate(labels):
        row = " ".join(f"{v:8.4f}" for v in report.matrix[t])
        print(f"  {lab}: {row}")
    print(f"diagonal_mean {report.diagonal_mean:.4f} offdiag_mean "
          f"{report.offdiag_mean:.6f} extinction {report.worst_extinction_db:.1f} dB")

    os.makedirs(args.out, exist_ok=True)
    export_volume(run.result, os.path.join(args.out, "design.ivol"))
    write_csv(os.path.join(args.out, "loss.csv"), ["iteration", "loss"],
              [(0, run.initial_loss)]
              + [(i + 1, v) for i, v in enumerate(run.loss_history)])
    rows = [(t, i, report.matrix[t, i])
            for t in range(report.matrix.shape[0])
            for i in range(report.matrix.shape[1])]
    write_csv(os.path.join(args.out, "coupling.csv"),
              ["target", "input", "power_coupling"], rows)
    from ove.experiments import lantern_inputs
    for k, inp in enumerate(lantern_inputs(grid, 1.55, angles)):
        out = bpm(run.result, inp, PropagationSpec())
        render_field(out, os.path.join(args.out, f"output_{k:02d}.pgm"))
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
