"""The four workloads: inputs made from a seed, one repetition, output checks.

A repetition runs one design or propagation through ove's public API or
its CLI, exactly as a user would, and returns its timings and the
problems its output checks found. ``setup_only`` runs the same calls but
stops at the optimizer's entry (or before the first propagation), so
set-up is sampled many times per run without paying for the body.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from ove import cli, experiments
from ove import io as ove_io
from ove.design import OptimizerConfig
from ove.fields import Grid2D, IndexVolume, power
from ove.sources import FiberSpec, plane_wave

# Relative roundoff allowed when checking that no power is created.
POWER_SLACK = 1e-9


class SetupDone(Exception):
    """Raised at the optimizer's entry to end a set-up-only call."""


class OptimizeProbe:
    """Timestamps entry to and exit from ``optimize`` in the namespaces
    that call it, and keeps the returned run for the output checks."""

    def __init__(self):
        self.stop_at_entry = False
        self.entered = 0.0
        self.exited = 0.0
        self.run = None

    def install(self):
        for module in (experiments, cli):
            module.optimize = self._wrap(module.optimize)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            self.entered = time.perf_counter()
            if self.stop_at_entry:
                raise SetupDone
            self.run = fn(*args, **kwargs)
            self.exited = time.perf_counter()
            return self.run

        return probe


@dataclass
class Rep:
    """One repetition. ``wall_s`` is its timed body; ``steps`` optimizer
    iterations or propagated fields, done in ``step_s`` seconds."""

    setup_s: float
    wall_s: float
    steps: int
    step_s: float
    loss_ratio: float
    digest: str
    problems: list[str] = field(default_factory=list)


def coupling_problems(label: str, mat) -> list[str]:
    mat = np.asarray(mat, dtype=float)
    problems = []
    if not np.all(np.isfinite(mat)) or mat.min() < 0.0 or mat.max() > 1.0:
        problems.append(f"{label}: coupling entries outside [0, 1]")
    if np.any(mat.sum(axis=0) > 1.0 + POWER_SLACK):
        problems.append(f"{label}: a column sums above 1 + {POWER_SLACK}")
    return problems


def design_problems(run) -> list[str]:
    history = (run.initial_loss,) + tuple(run.loss_history)
    problems = []
    if any(b > a for a, b in zip(history, history[1:])):
        problems.append("loss history increases")
    if not history[-1] < history[0]:
        problems.append("final loss is not below the initial loss")
    problems += coupling_problems("coupling before", run.coupling_before)
    problems += coupling_problems("coupling after", run.coupling_after)
    return problems


def run_digest(run, *extra) -> str:
    h = hashlib.sha256()
    result = run.result
    params = result.dn if hasattr(result, "dn") else np.stack(result.layers)
    for arr in (params, np.asarray((run.initial_loss,) + tuple(run.loss_history)),
                run.coupling_before, run.coupling_after, *extra):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def tree_digest(root: str) -> str:
    """Hash of every file's name and bytes under ``root``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def quiet_cli(argv: list[str]) -> int:
    """``ove`` CLI call with its config echo kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    default_steps = 1
    grid_n = 64
    pairs = 0
    trace_mb = 0.0

    def __init__(self, seed: int, workdir: str, probe: OptimizeProbe, steps: int | None):
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.steps = steps or self.default_steps

    def prepare(self):
        """Untimed work before each call."""

    def call(self):
        """The user-facing call; returns what the checks need."""
        raise NotImplementedError

    def setup_only(self) -> float:
        self.prepare()
        self.probe.stop_at_entry = True
        start = time.perf_counter()
        try:
            self.call()
        except SetupDone:
            pass
        else:
            raise RuntimeError(f"{self.name}: set-up ran past the optimizer's entry")
        finally:
            self.probe.stop_at_entry = False
        return self.probe.entered - start

    def repetition(self, after_body=lambda: None) -> Rep:
        """Time one call; ``after_body`` runs before the output checks."""
        self.prepare()
        start = time.perf_counter()
        out = self.call()
        end = time.perf_counter()
        after_body()
        run = self.probe.run
        rep = Rep(setup_s=self.probe.entered - start, wall_s=end - self.probe.entered,
                  steps=len(run.loss_history), step_s=self.probe.exited - self.probe.entered,
                  loss_ratio=run.loss_history[-1] / run.initial_loss,
                  digest=self.digest(run, out), problems=design_problems(run))
        rep.problems += self.extra_problems(out)
        return rep

    def digest(self, run, out) -> str:
        return run_digest(run)

    def extra_problems(self, out) -> list[str]:
        return []


class Lantern(Workload):
    """Baseline fiber, +-1-bin tilts to LP01/LP11; 64x64x48, absorber on."""

    name = "lantern"
    default_steps = 4
    pairs = 2
    trace_mb = 2 * 48 * 64 * 64 * 16 / 1e6

    def __init__(self, *args):
        super().__init__(*args)
        self.fiber = FiberSpec(core_radius_um=5.0, n_core=1.45, n_clad=1.444,
                               wavelength_um=1.55)
        window = 64 * 0.5
        self.angles = [(math.asin(b * 1.55 / window), 0.0) for b in (-1.0, 1.0)]
        self.optimizer = OptimizerConfig(step_size=0.04 * 0.05, max_iters=self.steps,
                                         seed=self.seed)

    def call(self):
        return experiments.lantern_experiment(self.fiber, self.angles,
                                              optimizer=self.optimizer)

    def digest(self, run, out) -> str:
        return run_digest(run, out[1].matrix)

    def extra_problems(self, out) -> list[str]:
        return coupling_problems("crosstalk report", out[1].matrix)


class Fanout(Workload):
    """Optimized 1-to-4 fanout, task [plane_wave] * 4; 64x64x32, no absorber."""

    name = "fanout"
    default_steps = 4
    pairs = 4
    trace_mb = 4 * 32 * 64 * 64 * 16 / 1e6

    def __init__(self, *args):
        super().__init__(*args)
        self.optimizer = OptimizerConfig(step_size=0.04 * 0.05, max_iters=self.steps,
                                         seed=self.seed)

    def call(self):
        return experiments.optimized_fanout_efficiency(4, 0.05, optimizer=self.optimizer)

    def digest(self, run, out) -> str:
        return run_digest(run, out[0])

    def extra_problems(self, out) -> list[str]:
        return coupling_problems("fanout efficiencies", np.asarray(out[0])[:, None])


class Layered(Workload):
    """``ove design``: 5 masks 40 um apart on 128x128, 4-pair tilted-wave
    sorter, absorber on, every artifact written."""

    name = "layered"
    default_steps = 8
    grid_n = 128
    pairs = 4
    trace_mb = 4 * 5 * 128 * 128 * 16 / 1e6

    def __init__(self, *args):
        super().__init__(*args)
        self.outdir = os.path.join(self.workdir, "design")
        self.config = os.path.join(self.workdir, "layered.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                "element.kind = layered",
                "grid.nx = 128",
                "grid.ny = 128",
                "layered.num_layers = 5",
                "layered.gap_um = 40.0",
                "task.kind = custom",
                "task.num_pairs = 4",
                "propagation.absorber_width = 0.1",
                "optimizer.step_size = 0.05",
                f"optimizer.max_iters = {self.steps}",
                f"optimizer.seed = {self.seed}",
            ]) + "\n")

    def prepare(self):
        fresh_dir(self.outdir)

    def call(self):
        return quiet_cli(["design", self.config, "--out", self.outdir])

    def digest(self, run, out) -> str:
        return tree_digest(self.outdir)

    def extra_problems(self, out) -> list[str]:
        return [] if out == 0 else [f"ove design exited with {out}"]


class Propagate(Workload):
    """``ove propagate`` of a few seeded plane-wave tilts through a seeded
    128x128x96 ivol-1 volume exported during set-up."""

    name = "propagate"
    default_steps = 8
    grid_n = 128
    grid = Grid2D(128, 128, 0.5, 0.5)
    nz, dz = 96, 1.0

    def __init__(self, *args):
        super().__init__(*args)
        rng = np.random.default_rng(self.seed)
        self.tilts_deg = rng.uniform(-3.0, 3.0, size=(self.steps, 2))
        # Three weak low-order gratings: the output power then depends
        # mostly on the absorber, little on the seed.
        self.gratings = [(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)),
                          float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 2 * np.pi)))
                         for _ in range(3)]
        self.volume_path = os.path.join(self.workdir, "volume.ivol")
        self.config = os.path.join(self.workdir, "propagate.cfg")

    def setup_only(self) -> float:
        """Write the config, build the seeded volume and export it."""
        start = time.perf_counter()
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("wavelength_um = 1.55\npropagation.absorber_width = 0.1\n")
        x, y = self.grid.meshgrid()
        window = self.grid.nx * self.grid.dx
        z = (np.arange(self.nz) + 0.5) * self.dz
        dn = np.zeros((self.grid.nx, self.grid.ny, self.nz))
        for bx, by, kz, phase in self.gratings:
            lateral = 2 * np.pi * (bx * x + by * y) / window
            dn += np.cos(lateral[:, :, None] + kz * z[None, None, :] + phase)
        volume = IndexVolume(grid=self.grid, nz=self.nz, dz=self.dz, n0=1.5,
                             dn=0.025 + 0.01 * dn / len(self.gratings),
                             dn_min=0.0, dn_max=0.05)
        ove_io.export_volume(volume, self.volume_path)
        return time.perf_counter() - start

    def repetition(self, after_body=lambda: None) -> Rep:
        outdirs = [fresh_dir(os.path.join(self.workdir, f"field_{k:02d}"))
                   for k in range(len(self.tilts_deg))]
        setup_s = self.setup_only()
        problems = []
        start = time.perf_counter()
        for (tx, ty), outdir in zip(self.tilts_deg, outdirs):
            code = quiet_cli(["propagate", self.config, "--volume", self.volume_path,
                              "--theta-x-deg", repr(float(tx)), "--theta-y-deg", repr(float(ty)),
                              "--out", outdir])
            if code != 0:
                problems.append(f"ove propagate exited with {code}")
        wall = time.perf_counter() - start
        after_body()

        lost = []
        for (tx, ty), outdir in zip(self.tilts_deg, outdirs):
            out = ove_io.import_field(os.path.join(outdir, "output.cfield"))
            p_in = power(plane_wave(self.grid, 1.55, math.radians(tx), math.radians(ty)))
            p_out = power(out)
            if not np.all(np.isfinite(out.values)) or p_out > p_in * (1.0 + POWER_SLACK):
                problems.append(f"output power {p_out!r} exceeds input power {p_in!r}")
            lost.append(1.0 - p_out / p_in)
        digest = hashlib.sha256("".join(tree_digest(d) for d in outdirs).encode()).hexdigest()
        return Rep(setup_s=setup_s, wall_s=wall, steps=len(outdirs), step_s=wall,
                   loss_ratio=float(np.mean(lost)), digest=digest, problems=problems)


WORKLOADS = {cls.name: cls for cls in (Lantern, Fanout, Layered, Propagate)}
