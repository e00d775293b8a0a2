#!/usr/bin/env python3
"""Recompute every recorded regression baseline and freeze it as JSON.

The numbers written here are the reference values the test suite
compares against, at rtol 1e-9. A rerun reproduces them to rounding, not
necessarily bit for bit: on x86-64 Linux with Python 3.11.7, numpy 2.4.6
and scipy 1.17.1, where every pin passes, all five blocks of the
committed file came out different, thin_lens (no optimizer) included,
with a worst relative difference of 9.6e-12. The ``provenance`` block
records the versions, the FFT module ove calls and the platform, so a
pin failure can be told apart from a platform change; it also records
the complex dtype of each evaluation ``optimize`` makes (its start, its
candidates and its closing evaluation of the result), since the
candidates' dtype sets every loss history and so every optimized
design. The design blocks
run the canned configs of ``ove.experiments`` and record each one's
``config`` as ``to_mapping`` of the config that ran. Every pin that
differs from the file being replaced is printed as old -> new with its
relative difference. Run this only when a deliberate physics or
configuration change invalidates the committed numbers, and review the
printed changes before committing.
"""

import json
import math
import os
import platform
import sys
from unittest import mock

import numpy as np
import scipy.fft

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ove import design, propagation
from ove.config import to_mapping
from ove.design import LossSpec, OptimizerConfig
from ove.experiments import (
    HolographySetup,
    canned_config,
    design_task,
    fanout_config,
    fit_log_slope,
    optimized_fanout_efficiency,
    ring_positions,
    run_design,
    spot_centroid,
    superposed_grating_efficiency,
    weak_grating_efficiency,
)
from ove.fields import (
    ComplexField,
    Grid2D,
    IndexVolume,
    LayeredElement,
    MappingTask,
    normalize,
    overlap,
)
from ove.propagation import PropagationSpec, free_space, propagate
from ove.sources import gaussian, plane_wave

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures",
                            "baselines.json")

LANTERN_GRID = dict(nx=64, ny=64, dx=0.5, dy=0.5)


def design_block(cfg):
    """``run_design(cfg)`` of a canned config: the pins every design
    block records, under ``to_mapping`` of that config, and the run and
    its crosstalk report."""
    run, report = run_design(cfg)
    block = {
        "config": to_mapping(cfg),
        "initial_loss": run.initial_loss,
        "final_loss": run.loss_history[-1],
        "loss_ratio": run.loss_history[-1] / run.initial_loss,
        "coupling_matrix": report.matrix.tolist(),
        "diagonal_mean": report.diagonal_mean,
        "offdiag_mean": report.offdiag_mean,
    }
    return block, run, report


def lantern_block() -> dict:
    block, _, report = design_block(canned_config("lantern"))
    return {**block, "worst_extinction_db": report.worst_extinction_db}


def haar_grin_block() -> dict:
    cfg = canned_config("haar-grin")
    block, run, report = design_block(cfg)
    task = design_task(cfg)
    window = 3 * cfg.task_spot_radius_um
    centers = ring_positions(len(task.targets), cfg.task_spot_ring_um)
    worst = 0.0
    for inp, out, c in zip(task.inputs, run.outputs_after, centers):
        cx, cy = spot_centroid(inp.with_values(out), window_radius_um=window)
        worst = max(worst, math.hypot(cx - c[0], cy - c[1]))
    return {
        **block,
        "worst_extinction_db": report.worst_extinction_db,
        "worst_spot_centroid_um": worst,
        "centroid_window_radius_um": window,
    }


def holography_block() -> dict:
    sup_budget, opt_budget = 0.005, 0.05
    sup_m = [1, 2, 4, 8]
    opt_m = [1, 2, 4]

    sup_means = []
    for m in sup_m:
        etas = superposed_grating_efficiency(m, sup_budget)
        sup_means.append(float(np.mean(etas)))
    sup_slope = fit_log_slope(sup_m, sup_means)

    opt_means, opt_per_output, opt_uniformity = [], [], []
    for m in opt_m:
        etas, _run = optimized_fanout_efficiency(m, opt_budget)
        opt_per_output.append([float(e) for e in etas])
        opt_means.append(float(np.mean(etas)))
        opt_uniformity.append(float(etas.max() / etas.min()))
    opt_slope = fit_log_slope(opt_m, opt_means)

    # analytic weak-coupling formula vs a BPM read of one real grating
    weak_dn, weak_l = 1e-3, 20.0
    analytic = weak_grating_efficiency(weak_dn, weak_l, 1.55)
    weak_setup = HolographySetup(nz=40, dz=0.5)
    bpm_eta = float(superposed_grating_efficiency(1, weak_dn, weak_setup)[0])

    return {
        "superposed": {
            "dn_budget": sup_budget, "m_values": sup_m,
            "eta_per_output": sup_means, "fitted_log_slope": sup_slope,
        },
        "optimized": {
            "dn_budget": opt_budget, "m_values": opt_m,
            "eta_per_output": opt_means, "per_output_detail": opt_per_output,
            "uniformity_max_over_min": opt_uniformity,
            "fitted_log_slope": opt_slope,
            "config": to_mapping(fanout_config(max(opt_m), opt_budget)),
        },
        "slope_gap": abs(opt_slope - sup_slope),
        "weak_grating_point": {
            "dn_amplitude": weak_dn, "thickness_um": weak_l,
            "wavelength_um": 1.55, "analytic": analytic, "bpm": bpm_eta,
            "relative_error": abs(bpm_eta - analytic) / analytic,
        },
    }


def toy_sorter_block() -> dict:
    """Small two-way mode sorter at its canned settings."""
    block, _, report = design_block(canned_config("toy-sorter"))
    return {**block, "diag_over_offdiag": report.diagonal_mean / report.offdiag_mean}


def _rayleigh_sommerfeld(field: ComplexField, distance_um: float) -> ComplexField:
    """Direct RS-I integral, an oracle independent of any FFT propagator."""
    grid = field.grid
    k = 2.0 * math.pi / field.wavelength_um
    xs, ys = grid.meshgrid()
    src = field.values * grid.cell_area
    out = np.zeros_like(field.values)
    z = distance_um
    for i in range(grid.nx):
        dx2 = (xs[i, :, None, None] - xs[None, :, :]) ** 2
        dy2 = (ys[i, :, None, None] - ys[None, :, :]) ** 2
        r = np.sqrt(dx2 + dy2 + z * z)
        kern = (z / (1j * field.wavelength_um)) * np.exp(1j * k * r) / r**2
        kern = kern * (1.0 + 1j / (k * r))
        out[i, :] = np.tensordot(kern, src, axes=([1, 2], [0, 1]))
    return ComplexField(grid, field.wavelength_um, out)


def lens_block() -> dict:
    grid = Grid2D(64, 64, 0.5, 0.5)
    lam, f = 1.55, 60.0
    xs, ys = grid.meshgrid()
    phase = -(2 * math.pi / lam) * (xs**2 + ys**2) / (2 * f)
    element = LayeredElement(grid=grid, layers=(phase,), gaps=(f,), n_gap=1.0)
    src = plane_wave(grid, lam)
    spec = PropagationSpec(absorber_width=0.0)
    out = propagate(element, src, spec)

    spot_radius = 1.22 * lam * f / (grid.nx * grid.dx)
    r2 = xs**2 + ys**2
    inside = r2 <= (3 * spot_radius) ** 2

    def fraction(field: ComplexField) -> float:
        intensity = np.abs(field.values) ** 2
        return float(intensity[inside].sum() / intensity.sum())

    # oracle sanity: the direct integral must agree with the FFT
    # propagator on a beam that never reaches the window edge
    probe = gaussian(grid, lam, waist_um=4.0)
    probe_fft = free_space(probe, 30.0, 1.0, spec)
    probe_rs = _rayleigh_sommerfeld(probe, 30.0)
    oracle_agreement = abs(overlap(normalize(probe_fft), normalize(probe_rs)))

    focus_rs = _rayleigh_sommerfeld(
        ComplexField(grid, lam, src.values * np.exp(1j * phase)), f)
    return {
        "config": {
            "grid": LANTERN_GRID, "wavelength_um": lam, "focal_length_um": f,
            "spot_radius_um": spot_radius, "encircle_radius_um": 3 * spot_radius,
        },
        "encircled_fraction_package": fraction(out),
        "encircled_fraction_bruteforce": fraction(focus_rs),
        "oracle_overlap_with_fft": float(oracle_agreement),
    }


def fft_module() -> str:
    """The FFT module ove's propagator calls, observed on one tiny step:
    the public ``numpy.fft`` or ``scipy.fft`` entries, or the pocketfft
    binding every drift calls, named by the module that defines it."""
    grid = Grid2D(8, 8, 0.5, 0.5)
    used = []
    for label, module, name in (("numpy.fft", np.fft, "fft2"), ("scipy.fft", scipy.fft, "fft2"),
                                (propagation._c2c.__module__, propagation, "_c2c")):
        with mock.patch.object(module, name, wraps=getattr(module, name)) as spy:
            free_space(plane_wave(grid, 1.55), 1.0)
        if spy.called:
            used.append(label)
    return "+".join(used) or "unknown"


def optimizer_dtypes() -> dict:
    """The complex dtype of each evaluation ``optimize`` makes, observed on
    one tiny run: its start, its candidates and its closing evaluation of
    the result."""
    grid = Grid2D(8, 8, 0.5, 0.5)
    src = plane_wave(grid, 1.55)
    vol = IndexVolume(grid=grid, nz=2, dz=1.0, n0=1.5, dn=np.full((8, 8, 2), 0.025))
    evaluate, seen = design.evaluate, []

    def spy(*args, dtype=np.complex128, **kwargs):
        seen.append(np.dtype(dtype).name)
        return evaluate(*args, dtype=dtype, **kwargs)

    with mock.patch.object(design, "evaluate", spy):
        design.optimize(MappingTask.from_fields([src], [src]), vol, LossSpec(),
                        OptimizerConfig(step_size=1e-3, max_iters=1))
    start, *candidates, result = seen
    return {"start": start, "candidates": "+".join(sorted(set(candidates))), "result": result}


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_module": fft_module(),
        "optimizer_dtypes": optimizer_dtypes(),
        "platform": platform.platform(),
    }


def _leaves(node, path: str = ""):
    """(path, value) for every scalar in a nested dict/list, in file order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}/{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def changed_pins(old: dict, new: dict) -> list[str]:
    """One line per leaf that differs: ``path: old -> new`` and, for two
    numbers, their relative difference."""
    before = dict(_leaves(old))
    lines = []
    for path, value in _leaves(new):
        prior = before.pop(path, "(absent)")
        if prior == value:
            continue
        line = f"{path}: {prior!r} -> {value!r}"
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (prior, value))
        if numbers:
            scale = max(abs(prior), abs(value))
            rel = abs(value - prior) / scale if scale else 0.0
            line += f" (rel {rel:.2e})"
        lines.append(line)
    lines += [f"{path}: {value!r} -> (absent)" for path, value in before.items()]
    return lines


def main() -> int:
    baselines = {
        "provenance": provenance(),
        "lantern": lantern_block(),
        "haar_grin": haar_grin_block(),
        "holography": holography_block(),
        "toy_sorter": toy_sorter_block(),
        "thin_lens": lens_block(),
    }
    # Round-trip through JSON, so the comparison sees what the file holds.
    baselines = json.loads(json.dumps(baselines))
    old = {}
    if os.path.exists(FIXTURE_PATH):
        with open(FIXTURE_PATH, encoding="utf-8") as fh:
            old = json.load(fh)
    changes = changed_pins(old, baselines)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(baselines, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(FIXTURE_PATH)}")
    for name, block in baselines.items():
        keys = ", ".join(k for k in block if k != "config")
        print(f"  {name}: {keys}")
    print(f"{len(changes)} pins changed (old -> new):")
    for line in changes:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
