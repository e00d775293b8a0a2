"""Command-line front end.

Every run writes all its artifacts under the chosen output directory.
Design, propagate and holography runs also echo the fully resolved
configuration to stdout and write a ``resolved.cfg`` copy of that echo;
for holography that is ``experiments.fanout_config`` at the largest M.
``ove design`` builds its task and starting design with the library's
``design_task`` and ``initial_design``, so it runs what ``run_design``
runs. Nothing depends on wall-clock time, so re-running a command
reproduces its outputs byte for byte.

Exit codes: 0 success, 1 run/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .config import ConfigError, DesignConfig, default_config, parse_config, serialize_config
from .design import DesignRun, optimize
from .experiments import (
    CrosstalkReport,
    HolographySetup,
    design_task,
    fanout_config,
    initial_design,
    optimized_curve,
    superposed_curve,
)
from .fields import IndexVolume, MappingTask
from .interconnect import footprint_scaling, haar_filter_bank
from .io import (
    atomic_write_text,
    export_field,
    export_layers,
    export_volume,
    import_volume,
    read_pgm,
    render_field,
    write_csv,
)
from .propagation import propagate
from .sources import HAAR_KINDS, gaussian, plane_wave

__all__ = ["main"]


def _load_config(path: str | None) -> DesignConfig:
    if path is None:
        return default_config()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _emit_config(cfg: DesignConfig, outdir: str):
    text = serialize_config(cfg)
    sys.stdout.write(text)
    atomic_write_text(os.path.join(outdir, "resolved.cfg"), text)


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _export_design(design, outdir: str):
    """Volumes go out as ivol-1, layered elements as layers-1."""
    path = os.path.join(outdir, "design.ivol")
    if isinstance(design, IndexVolume):
        export_volume(design, path)
    else:
        export_layers(design, path)


def _write_run_outputs(run: DesignRun, task: MappingTask, outdir: str):
    _export_design(run.result, outdir)

    loss_rows = [(0, run.initial_loss)]
    loss_rows += [(i + 1, v) for i, v in enumerate(run.loss_history)]
    write_csv(os.path.join(outdir, "loss.csv"), ["iteration", "loss"], loss_rows)

    rows = []
    for t in range(run.coupling_before.shape[0]):
        for i in range(run.coupling_before.shape[1]):
            rows.append((t, i, run.coupling_before[t, i], run.coupling_after[t, i]))
    write_csv(os.path.join(outdir, "coupling.csv"),
              ["target", "input", "before", "after"], rows)

    report = CrosstalkReport.from_matrix(run.coupling_after, task.weights)
    final = run.loss_history[-1] if run.loss_history else run.initial_loss
    write_csv(os.path.join(outdir, "metrics.csv"), ["metric", "value"], [
        ("initial_loss", run.initial_loss),
        ("final_loss", final),
        ("iterations", len(run.loss_history)),
        ("diagonal_mean", report.diagonal_mean),
        ("offdiag_mean", report.offdiag_mean),
        ("worst_extinction_db", report.worst_extinction_db),
    ])

    for i, (inp, out) in enumerate(zip(task.inputs, run.outputs_after)):
        render_field(inp, os.path.join(outdir, f"input_{i:02d}.pgm"))
        render_field(inp.with_values(out), os.path.join(outdir, f"output_{i:02d}.pgm"))
    for t, target in enumerate(task.targets):
        render_field(target, os.path.join(outdir, f"target_{t:02d}.pgm"))


def _cmd_design(args) -> int:
    cfg = _load_config(args.config)
    initial = initial_design(cfg)
    outdir = _ensure_outdir(args.out)
    _emit_config(cfg, outdir)
    task = design_task(cfg)
    run = optimize(task, initial, cfg.loss, cfg.optimizer, cfg.propagation)
    _write_run_outputs(run, task, outdir)
    return 0


def _cmd_propagate(args) -> int:
    cfg = _load_config(args.config)
    volume = import_volume(args.volume)
    # Echo the volume that runs, not the config's design defaults.
    cfg = dataclasses.replace(
        cfg, n0=volume.n0, dn_min=volume.dn_min, dn_max=volume.dn_max, grid=volume.grid,
        element_kind="volume", volume_nz=volume.nz, volume_dz_um=volume.dz)
    outdir = _ensure_outdir(args.out)
    _emit_config(cfg, outdir)
    grid, lam = volume.grid, cfg.wavelength_um
    if args.source == "plane":
        src = plane_wave(grid, lam, math.radians(args.theta_x_deg),
                         math.radians(args.theta_y_deg))
    else:
        src = gaussian(grid, lam, args.waist_um)
    out = propagate(volume, src, cfg.propagation)
    export_field(out, os.path.join(outdir, "output.cfield"))
    render_field(out, os.path.join(outdir, "output.pgm"))
    return 0


def _cmd_holography(args) -> int:
    m_values = _parse_int_list(args.m)
    outdir = _ensure_outdir(args.out)
    setup = HolographySetup()
    _emit_config(fanout_config(max(m_values), args.budget, setup), outdir)
    if args.scheme == "superposed":
        curve = superposed_curve(m_values, args.budget, setup)
    else:
        curve, _runs = optimized_curve(m_values, args.budget, setup)
    write_csv(os.path.join(outdir, "efficiency.csv"), ["m", "eta_per_output"],
              list(zip(curve.m_values, curve.eta_per_output)))
    write_csv(os.path.join(outdir, "metrics.csv"), ["metric", "value"], [
        ("scheme", args.scheme),
        ("dn_budget", args.budget),
        ("fitted_log_slope", curve.fitted_log_slope),
    ])
    return 0


def _cmd_scaling(args) -> int:
    n_values = _parse_int_list(args.n)
    outdir = _ensure_outdir(args.out)
    rows = []
    for n in n_values:
        r = footprint_scaling(n, args.pitch)
        rows.append((r.n_neurons, r.elements_2d, r.planes_3d, r.elements_per_plane_3d,
                     r.pitch_um, r.footprint_2d_um2, r.footprint_3d_um2))
    write_csv(os.path.join(outdir, "scaling.csv"),
              ["n_neurons", "elements_2d", "planes_3d", "elements_per_plane_3d",
               "pitch_um", "footprint_2d_um2", "footprint_3d_um2"], rows)
    return 0


def _cmd_haar_bank(args) -> int:
    image = read_pgm(args.image)
    if image.shape != (21, 21):
        raise ValueError(f"{args.image}: image must be 21x21, got {image.shape}")
    kinds = HAAR_KINDS if args.kind == "all" else (args.kind,)
    outdir = _ensure_outdir(args.out)
    rows = []
    for kind in kinds:
        bank = haar_filter_bank(image, kind)
        for i in range(7):
            for j in range(7):
                rows.append((kind, i, j, bank.s_plus[i, j], bank.s_minus[i, j],
                             bank.response[i, j]))
    write_csv(os.path.join(outdir, "haar_bank.csv"),
              ["kind", "patch_x", "patch_y", "s_plus", "s_minus", "response"], rows)
    return 0


def _parse_int_list(raw: str) -> list[int]:
    try:
        vals = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {raw!r}") from None
    if not vals:
        raise ValueError(f"expected a non-empty integer list, got {raw!r}")
    return vals


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ove",
        description="Inverse design and analysis of 3D optical interconnects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_positional=True):
        if config_positional:
            p.add_argument("config", nargs="?", default=None,
                           help="config file (defaults apply when omitted)")
        p.add_argument("--out", default="ove-out", help="output directory")

    p = sub.add_parser("design", help="optimize an element for the configured task")
    add_common(p)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("propagate", help="run a source through a stored volume")
    add_common(p)
    p.add_argument("--volume", required=True, help="ivol-1 file")
    p.add_argument("--source", choices=("plane", "gaussian"), default="plane")
    p.add_argument("--theta-x-deg", type=float, default=0.0)
    p.add_argument("--theta-y-deg", type=float, default=0.0)
    p.add_argument("--waist-um", type=float, default=4.0)
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("holography", help="multiplexing efficiency vs M")
    p.add_argument("--m", default="1,2,4,8", help="comma-separated multiplexing degrees")
    p.add_argument("--budget", type=float, default=0.005, help="total |dn| budget")
    p.add_argument("--scheme", choices=("superposed", "optimized"), default="superposed")
    p.add_argument("--out", default="ove-out")
    p.set_defaults(fn=_cmd_holography)

    p = sub.add_parser("scaling", help="2D vs 3D interconnect footprint counts")
    p.add_argument("--n", default="15,225", help="comma-separated neuron counts")
    p.add_argument("--pitch", type=float, default=20.0, help="element pitch in um")
    p.add_argument("--out", default="ove-out")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("haar-bank", help="digital Haar responses of a 21x21 PGM")
    p.add_argument("--image", required=True, help="binary P5 PGM, 21x21")
    p.add_argument("--kind", choices=("all",) + HAAR_KINDS, default="all")
    p.add_argument("--out", default="ove-out")
    p.set_defaults(fn=_cmd_haar_bank)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
