"""End-to-end numerical experiments.

holography         multiplexed-grating vs optimized-fanout efficiency
lantern            plane-wave tilts routed into fiber LP modes
haar-grin          Haar mask lobes routed to detector spots
toy-sorter         two tilted plane waves to two spots

Each canned experiment is one ``ove design`` config: ``CANNED`` holds
the lantern, Haar-GRIN and toy-sorter texts, ``fanout_config`` builds
the fanout from a ``HolographySetup``. ``design_task`` and
``initial_design`` turn a config into a task and a starting design for
the CLI and the library alike, and ``run_design`` runs it. Each task
kind has one builder (``lantern_task``, ``sorter_task``,
``fanout_task``, ``haar_grin_task``). It returns a :class:`MappingTask`:
identity W for the three sorters, one input and a column of ones for
the fanout.

An optimized experiment reports from its run: the crosstalk report and
the fanout efficiencies are read from ``DesignRun.coupling_after``, the
coupling of the final design from the optimizer's closing complex128
evaluation, so the finished design is not propagated again. A design
that has no run is scored from one evaluation without a gradient:
``CrosstalkReport.from_matrix(evaluate(design, task, spec, prop,
with_gradient=False).coupling, task.weights)``.

The holography pair is the quantitative heart of the package: M
superposed weak gratings share one index budget so each diffracted
order sees a 1/M amplitude and a 1/M^2 efficiency, while a jointly
optimized fanout under the same budget only pays the unavoidable 1/M
power split. The two schemes are compared by the fitted log-log slope
of efficiency versus M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft

from .config import DesignConfig, default_config, parse_config
from .design import DesignRun, OptimizerConfig, optimize, seeded_initial_volume
from .fields import ComplexField, Grid2D, IndexVolume, LayeredElement, MappingTask
from .propagation import PropagationSpec, absorber_mask, propagate
from .sources import (
    HAAR_KINDS,
    FiberSpec,
    haar_mask_field,
    lp_modes,
    plane_wave,
    spot_target,
    tilt_angles,
)

__all__ = [
    "CrosstalkReport",
    "EfficiencyCurve",
    "HolographySetup",
    "spot_centroid",
    "weak_grating_efficiency",
    "multiplexed_grating_volume",
    "superposed_grating_efficiency",
    "fanout_config",
    "optimized_fanout_efficiency",
    "superposed_curve",
    "optimized_curve",
    "fit_log_slope",
    "CANNED",
    "canned_config",
    "design_task",
    "initial_design",
    "run_design",
    "lantern_experiment",
    "ring_positions",
    "lantern_inputs",
    "lantern_task",
    "sorter_task",
    "fanout_task",
    "haar_grin_task",
]

_WEAK_ETA_LIMIT = 0.05


# ---------------------------------------------------------------------------
# Crosstalk reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrosstalkReport:
    """Power-coupling matrix (targets x inputs) with summary statistics.

    An entry is matched where the task's weight is positive (the
    diagonal of a pair task, a fanout's whole column) and unmatched
    elsewhere. ``diagonal_mean`` and ``offdiag_mean`` average the
    matched and the unmatched entries; extinction is the worst ratio of
    any matched coupling to the largest unmatched one, in dB (nan mean
    and inf extinction when no entry is unmatched).
    """

    matrix: np.ndarray
    diagonal_mean: float
    offdiag_mean: float
    worst_extinction_db: float

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float, copy=True)
        if mat.ndim != 2 or 0 in mat.shape:
            raise ValueError(f"matrix must be non-empty 2D, got shape {mat.shape}")
        if mat.min() < 0 or mat.max() > 1.0 + 1e-9:
            raise ValueError(
                f"coupling entries must lie in [0, 1], got range "
                f"[{mat.min():.6g}, {mat.max():.6g}]"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, weights: np.ndarray) -> "CrosstalkReport":
        mat = np.asarray(matrix, dtype=float)
        matched = np.asarray(weights) > 0
        if matched.shape != mat.shape:
            raise ValueError(f"weights shape {matched.shape} does not match "
                             f"matrix shape {mat.shape}")
        diag, off = mat[matched], mat[~matched]
        if off.size == 0:
            off_mean, worst = math.nan, math.inf
        else:
            off_mean = float(off.mean())
            peak = float(off.max())
            worst = math.inf if peak == 0 else 10.0 * math.log10(float(diag.min()) / peak)
        return cls(
            matrix=mat,
            diagonal_mean=float(diag.mean()),
            offdiag_mean=off_mean,
            worst_extinction_db=worst,
        )


def spot_centroid(field: ComplexField, window_radius_um: float) -> tuple[float, float]:
    """Centroid of the brightest spot in a field, in um.

    Centers a circular window on the global intensity peak and returns
    the intensity-weighted mean position inside it. The window keeps a
    diffuse background from dragging the centroid away from the spot
    the field actually formed.
    """
    if window_radius_um <= 0:
        raise ValueError(f"window radius must be positive, got {window_radius_um}")
    intensity = np.abs(field.values) ** 2
    total = intensity.sum()
    if total == 0:
        raise ValueError("degenerate field: no intensity to locate a spot in")
    ix, iy = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    xs, ys = field.grid.meshgrid()
    window = ((xs - xs[ix, iy]) ** 2 + (ys - ys[ix, iy]) ** 2) <= window_radius_um ** 2
    local = intensity * window
    weight = local.sum()
    return (float((local * xs).sum() / weight), float((local * ys).sum() / weight))


# ---------------------------------------------------------------------------
# Holography: superposed gratings vs optimized fanout
# ---------------------------------------------------------------------------

def weak_grating_efficiency(dn_amplitude: float, thickness_um: float,
                            wavelength_um: float) -> float:
    """First-order efficiency (pi dn L / lambda)^2 of one weak grating.

    Valid only deep in the weak-coupling regime; rejected above an
    efficiency of 0.05 where the quadratic truncation of the coupled
    sin^2 solution is no longer trustworthy.
    """
    if dn_amplitude < 0 or thickness_um <= 0 or wavelength_um <= 0:
        raise ValueError(
            f"need dn >= 0 and positive thickness/wavelength, got "
            f"({dn_amplitude}, {thickness_um}, {wavelength_um})"
        )
    eta = (math.pi * dn_amplitude * thickness_um / wavelength_um) ** 2
    if eta > _WEAK_ETA_LIMIT:
        raise ValueError(
            f"weak-coupling formula invalid: predicted efficiency {eta:.4g} "
            f"exceeds {_WEAK_ETA_LIMIT}"
        )
    return eta


@dataclass(frozen=True)
class HolographySetup:
    """Shared geometry for both fanout schemes.

    Carriers are FFT-bin-aligned spatial frequencies between the two
    Nyquist fractions; lo/hi must leave the first diffracted orders
    inside the band.
    """

    grid: Grid2D = field(default_factory=lambda: Grid2D(64, 64, 0.5, 0.5))
    wavelength_um: float = 1.55
    n0: float = 1.5
    nz: int = 32
    dz: float = 0.5
    carrier_lo: float = 0.2
    carrier_hi: float = 0.6
    spot_ring_um: float = 8.0
    spot_radius_um: float = 2.0
    prop: PropagationSpec = PropagationSpec(absorber_width=0.0)

    def __post_init__(self):
        if not 0.0 < self.carrier_lo < self.carrier_hi < 1.0:
            raise ValueError(
                f"need 0 < carrier_lo < carrier_hi < 1, got "
                f"({self.carrier_lo}, {self.carrier_hi})"
            )
        if self.nz < 1 or self.dz <= 0:
            raise ValueError(f"bad volume sampling nz={self.nz}, dz={self.dz}")

    @property
    def thickness_um(self) -> float:
        return self.nz * self.dz


def _carrier_bins(m: int, setup: HolographySetup) -> np.ndarray:
    """Distinct integer FFT bins for m carriers, aliasing-checked."""
    if m < 1:
        raise ValueError(f"need m >= 1 gratings, got {m}")
    nyq = setup.grid.nx // 2
    lo = int(round(setup.carrier_lo * nyq))
    hi = int(round(setup.carrier_hi * nyq))
    if m == 1:
        bins = np.array([int(round(0.5 * (lo + hi)))])
    else:
        bins = np.round(np.linspace(lo, hi, m)).astype(int)
    if len(set(bins.tolist())) != m:
        raise ValueError(f"carrier bins collide for m={m} on a {setup.grid.nx} grid: {bins}")
    if bins.min() < 1 or bins.max() >= nyq:
        raise ValueError(f"aliased carriers: bins {bins} outside (0, {nyq})")
    return bins


def multiplexed_grating_volume(m: int, dn_budget: float,
                               setup: HolographySetup = HolographySetup()) -> IndexVolume:
    """M cosine gratings superposed in one volume, each of amplitude
    dn_budget / m.

    Each grating is tilted in z by its own phase mismatch
    dkz = k - sqrt(k^2 - kx^2) so that a normal-incidence read wave is
    Bragg-matched to the +1 order of every carrier simultaneously; a
    common unslanted stack would leave all but one order mismatched and
    the budget comparison meaningless.
    """
    if dn_budget <= 0:
        raise ValueError(f"dn budget must be positive, got {dn_budget}")
    bins = _carrier_bins(m, setup)
    amplitude = dn_budget / m
    # Guard: each grating must individually sit in the weak regime.
    weak_grating_efficiency(amplitude, setup.thickness_um, setup.wavelength_um)
    grid = setup.grid
    x = grid.axes()[0][:, None, None]
    z = ((np.arange(setup.nz) + 0.5) * setup.dz)[None, None, :]
    k_med = 2.0 * np.pi * setup.n0 / setup.wavelength_um

    dn = np.zeros((grid.nx, grid.ny, setup.nz))
    for b in bins:
        kx = 2.0 * np.pi * b / (grid.nx * grid.dx)
        dkz = k_med - math.sqrt(k_med**2 - kx**2)
        dn += amplitude * np.cos(kx * x - dkz * z)
    return IndexVolume(grid=grid, nz=setup.nz, dz=setup.dz, n0=setup.n0,
                       dn=dn, dn_min=-dn_budget, dn_max=dn_budget)


def superposed_grating_efficiency(m: int, dn_budget: float,
                                  setup: HolographySetup = HolographySetup()) -> np.ndarray:
    """Per-order first-order efficiency of the m-fold superposed volume.

    Reads out with a unit-power normal plane wave and measures the power
    fraction landing in each carrier's +1 FFT bin at the exit plane.
    """
    volume = multiplexed_grating_volume(m, dn_budget, setup)
    bins = _carrier_bins(m, setup)
    read = plane_wave(setup.grid, setup.wavelength_um)
    out = propagate(volume, read, setup.prop)

    spec_in = scipy.fft.fft2(read.values)
    spec_out = scipy.fft.fft2(out.values)
    p_in = float(np.sum(np.abs(spec_in) ** 2))
    return np.array([float(np.abs(spec_out[b, 0]) ** 2) / p_in for b in bins])


def ring_positions(count: int, ring_radius_um: float,
                   phase_deg: float = 0.0) -> list[tuple[float, float]]:
    """Evenly spaced positions on a centered circle."""
    if count < 1:
        raise ValueError(f"need at least one position, got {count}")
    ang = np.deg2rad(phase_deg) + 2.0 * np.pi * np.arange(count) / count
    return [(float(ring_radius_um * np.cos(a)), float(ring_radius_um * np.sin(a)))
            for a in ang]


def fanout_config(m: int, dn_budget: float,
                  setup: HolographySetup = HolographySetup()) -> DesignConfig:
    """The optimized 1-to-m fanout as a design config: ``setup``'s
    geometry and propagation, dn bounds of +-``dn_budget`` and the
    fanout task.

    Its optimizer is aggressive but safeguarded: the step halving in
    optimize() keeps the loss monotone even at this rate.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 outputs, got {m}")
    if dn_budget <= 0:
        raise ValueError(f"dn budget must be positive, got {dn_budget}")
    return replace(
        default_config(), wavelength_um=setup.wavelength_um, n0=setup.n0,
        dn_min=-dn_budget, dn_max=dn_budget, grid=setup.grid,
        volume_nz=setup.nz, volume_dz_um=setup.dz, task_kind="fanout", task_fan=m,
        task_spot_ring_um=setup.spot_ring_um, task_spot_radius_um=setup.spot_radius_um,
        optimizer=OptimizerConfig(step_size=0.04 * dn_budget, max_iters=400, seed=7),
        propagation=setup.prop)


def optimized_fanout_efficiency(m: int, dn_budget: float,
                                setup: HolographySetup = HolographySetup(),
                                optimizer: OptimizerConfig | None = None,
                                ) -> tuple[np.ndarray, DesignRun]:
    """Jointly optimized 1-to-m fanout under the same |dn| budget.

    One normal plane wave in, m disjoint Gaussian spots out, optimized
    end to end with the adjoint: ``run_design`` of ``fanout_config``,
    under ``optimizer`` when given. Returns the per-output coupled power
    fractions and the full run record.
    """
    cfg = fanout_config(m, dn_budget, setup)
    if optimizer is not None:
        cfg = replace(cfg, optimizer=optimizer)
    run, _ = run_design(cfg)
    return run.coupling_after[:, 0], run


@dataclass(frozen=True)
class EfficiencyCurve:
    """Mean per-output efficiency versus multiplexing degree.

    ``fitted_log_slope`` is the least-squares slope of log(eta) against
    log(m); NaN when the curve has fewer than two points.
    """

    m_values: tuple[int, ...]
    eta_per_output: tuple[float, ...]
    fitted_log_slope: float

    def __post_init__(self):
        if len(self.m_values) != len(self.eta_per_output):
            raise ValueError("m_values and eta_per_output lengths differ")
        if not self.m_values:
            raise ValueError("curve needs at least one point")
        if any(b <= a for a, b in zip(self.m_values, self.m_values[1:])):
            raise ValueError(f"m_values must be strictly increasing, got {self.m_values}")
        for eta in self.eta_per_output:
            if not 0.0 <= eta <= 1.0 + 1e-9:
                raise ValueError(f"efficiency {eta} outside [0, 1]")

    @classmethod
    def fit(cls, m_values, etas) -> "EfficiencyCurve":
        ms = tuple(int(m) for m in m_values)
        es = tuple(float(e) for e in etas)
        return cls(m_values=ms, eta_per_output=es,
                   fitted_log_slope=fit_log_slope(ms, es))


def fit_log_slope(m_values, etas) -> float:
    """Least-squares slope of log(eta) vs log(m). NaN for single points."""
    if len(m_values) != len(etas):
        raise ValueError("m_values and etas lengths differ")
    if len(m_values) < 2:
        return math.nan
    if any(e <= 0 for e in etas):
        raise ValueError(f"efficiencies must be positive for a log fit, got {etas}")
    if any(m <= 0 for m in m_values):
        raise ValueError(f"m values must be positive for a log fit, got {m_values}")
    lx = np.log(np.asarray(m_values, dtype=float))
    ly = np.log(np.asarray(etas, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def superposed_curve(m_values, dn_budget: float,
                     setup: HolographySetup = HolographySetup()) -> EfficiencyCurve:
    means = [float(np.mean(superposed_grating_efficiency(m, dn_budget, setup)))
             for m in m_values]
    return EfficiencyCurve.fit(m_values, means)


def optimized_curve(m_values, dn_budget: float, setup: HolographySetup = HolographySetup(),
                    ) -> tuple[EfficiencyCurve, list[DesignRun]]:
    means, runs = [], []
    for m in m_values:
        etas, run = optimized_fanout_efficiency(m, dn_budget, setup)
        means.append(float(np.mean(etas)))
        runs.append(run)
    return EfficiencyCurve.fit(m_values, means), runs


# ---------------------------------------------------------------------------
# Task builders: lantern, sorter, fanout and Haar-GRIN
# ---------------------------------------------------------------------------

def lantern_inputs(grid: Grid2D, wavelength_um: float,
                   angles: list[tuple[float, float]],
                   prop: PropagationSpec = PropagationSpec()) -> list[ComplexField]:
    """Tilted plane waves, apodized by the boundary absorber when active.

    Apodizing keeps the optimization from chasing power that the
    absorber will remove anyway.
    """
    env = absorber_mask(grid, prop.absorber_width)
    return [plane_wave(grid, wavelength_um, tx, ty, envelope=env) for tx, ty in angles]


def lantern_task(fiber: FiberSpec, grid: Grid2D, angles: list[tuple[float, float]],
                 prop: PropagationSpec = PropagationSpec()) -> MappingTask:
    """Tilted plane waves, each onto its own guided LP mode in (l, m,
    parity) order."""
    modes = lp_modes(fiber, grid)
    if len(angles) > len(modes):
        raise ValueError(f"task overdetermined for fiber: {len(angles)} inputs but only "
                         f"{len(modes)} guided modes at V={fiber.v_number:.3f}")
    return MappingTask.from_fields(lantern_inputs(grid, fiber.wavelength_um, angles, prop),
                                   [mode.field for mode in modes[: len(angles)]])


def sorter_task(grid: Grid2D, wavelength_um: float, angles: list[tuple[float, float]],
                spot_ring_um: float, spot_radius_um: float,
                prop: PropagationSpec = PropagationSpec()) -> MappingTask:
    """Mode sorter: tilted plane waves to their own spots on a ring."""
    return MappingTask.from_fields(lantern_inputs(grid, wavelength_um, angles, prop),
                                   [spot_target(grid, wavelength_um, c, spot_radius_um)
                                    for c in ring_positions(len(angles), spot_ring_um)])


def fanout_task(grid: Grid2D, wavelength_um: float, fan: int, spot_ring_um: float,
                spot_radius_um: float, prop: PropagationSpec = PropagationSpec()) -> MappingTask:
    """One normal plane wave to ``fan`` spots on a ring: W is a column of
    ``fan`` ones."""
    return MappingTask(lantern_inputs(grid, wavelength_um, [(0.0, 0.0)], prop),
                       [spot_target(grid, wavelength_um, c, spot_radius_um)
                        for c in ring_positions(fan, spot_ring_um)],
                       np.ones((fan, 1)))


def haar_grin_task(grid: Grid2D, wavelength_um: float, patch_extent_um: float,
                   spot_ring_um: float, spot_radius_um: float) -> MappingTask:
    """Each Haar lobe (positive and, where present, negative) mapped to
    its own detector spot.

    The four standard kinds give seven lobes: uniform has no negative
    cells, so its minus lobe is skipped rather than faked.
    """
    lobes: list[ComplexField] = []
    for kind in HAAR_KINDS:
        masks = haar_mask_field(grid, wavelength_um, kind, patch_extent_um)
        lobes.append(masks.plus)
        if masks.minus is not None:
            lobes.append(masks.minus)
    spots = [spot_target(grid, wavelength_um, c, spot_radius_um)
             for c in ring_positions(len(lobes), spot_ring_um)]
    return MappingTask.from_fields(lobes, spots)


# ---------------------------------------------------------------------------
# Canned experiments: one config each, and the one builder from config to run
# ---------------------------------------------------------------------------

# Each canned experiment as ``ove design`` config text: the keys whose
# value differs from the defaults, and its optimizer.max_iters.
CANNED: dict[str, str] = {
    # Two tilted plane waves (-1 and +1 FFT bins) onto LP01 and LP11 of
    # the default fiber. The default 48 um device length gives the phase
    # stroke a plane wave needs to reach the mode waist; half that length
    # caps LP01 coupling below 0.5.
    "lantern": """\
optimizer.step_size = 0.002
optimizer.max_iters = 400
optimizer.seed = 11
""",
    # Every Haar lobe to a distinct spot. The seven lobes overlap each
    # other strongly (the uniform patch overlaps every other lobe), so
    # the joint mapping needs most of the available phase stroke: 72 um
    # of device (48 slices of 1.5 um) at dn_max 0.05 is enough to steer
    # the 12 um patch onto a 6.5 um spot ring, 48 um is not.
    "haar-grin": """\
task.kind = haar-grin
volume.dz_um = 1.5
optimizer.step_size = 0.006
optimizer.max_iters = 400
optimizer.seed = 13
""",
    # Smallest interesting sorter: two plane waves tilted by -1.5 and +1.5
    # FFT bins, so they stay exactly periodic on the grid, to two spots.
    # A fast end-to-end check that the optimizer separates two inputs.
    "toy-sorter": """\
task.kind = custom
task.angle_step_bins = 3.0
task.spot_ring_um = 5.0
task.spot_radius_um = 2.0
volume.nz = 32
volume.dz_um = 1.5
optimizer.step_size = 0.002
optimizer.max_iters = 300
optimizer.seed = 5
""",
}


def canned_config(name: str) -> DesignConfig:
    """The resolved config of canned experiment ``name``, a key of ``CANNED``."""
    return parse_config(CANNED[name])


def _fan_angles(cfg: DesignConfig) -> list[tuple[float, float]]:
    """Symmetric fan of x-tilts spaced by ``task_angle_step_bins`` FFT bins."""
    num = cfg.task_num_pairs
    bins = [(k - (num - 1) / 2.0) * cfg.task_angle_step_bins for k in range(num)]
    return tilt_angles(cfg.grid, cfg.wavelength_um, bins)


def design_task(cfg: DesignConfig) -> MappingTask:
    """The task of ``cfg.task_kind``, built from the config's task keys."""
    grid, lam = cfg.grid, cfg.wavelength_um
    ring, radius = cfg.task_spot_ring_um, cfg.task_spot_radius_um
    if cfg.task_kind == "haar-grin":
        return haar_grin_task(grid, lam, cfg.task_patch_extent_um, ring, radius)
    if cfg.task_kind == "lantern":
        return lantern_task(cfg.fiber, grid, _fan_angles(cfg), cfg.propagation)
    if cfg.task_kind == "fanout":
        return fanout_task(grid, lam, cfg.task_fan, ring, radius, cfg.propagation)
    # custom, the mode sorter; DesignConfig refuses any other kind
    return sorter_task(grid, lam, _fan_angles(cfg), ring, radius, cfg.propagation)


def initial_design(cfg: DesignConfig) -> IndexVolume | LayeredElement:
    """Where a design run starts: a volume seeded from
    ``cfg.optimizer.seed`` within the dn bounds, or all-zero phases."""
    if cfg.element_kind == "volume":
        return seeded_initial_volume(
            cfg.grid, cfg.volume_nz, cfg.volume_dz_um, cfg.n0,
            dn_min=cfg.dn_min, dn_max=cfg.dn_max, seed=cfg.optimizer.seed,
        )
    layers = tuple(np.zeros((cfg.grid.nx, cfg.grid.ny))
                   for _ in range(cfg.layered_num_layers))
    gaps = tuple(cfg.layered_gap_um for _ in range(cfg.layered_num_layers))
    return LayeredElement(grid=cfg.grid, layers=layers, gaps=gaps, n_gap=1.0)


def _run(cfg: DesignConfig, task: MappingTask) -> tuple[DesignRun, CrosstalkReport]:
    run = optimize(task, initial_design(cfg), cfg.loss, cfg.optimizer, cfg.propagation)
    return run, CrosstalkReport.from_matrix(run.coupling_after, task.weights)


def run_design(cfg: DesignConfig) -> tuple[DesignRun, CrosstalkReport]:
    """The run ``ove design`` makes of ``cfg``, without its artifacts, and
    the crosstalk report of its final design (from ``run.coupling_after``).

    A canned experiment is ``run_design(canned_config(name))``, and a
    variant of one is ``dataclasses.replace`` of that config.
    """
    return _run(cfg, design_task(cfg))


def lantern_experiment(fiber: FiberSpec, angles: list[tuple[float, float]],
                       optimizer: OptimizerConfig | None = None,
                       ) -> tuple[DesignRun, CrosstalkReport]:
    """The canned lantern with its own fiber and tilts: each tilted plane
    wave into its own guided LP mode of ``fiber``.

    Modes are consumed in (l, m, parity) order, so two inputs map to
    {LP01, LP11}. More inputs than guided modes is rejected. The geometry
    and, unless ``optimizer`` is given, the optimizer are
    ``CANNED["lantern"]``'s.
    """
    cfg = canned_config("lantern")
    if optimizer is not None:
        cfg = replace(cfg, optimizer=optimizer)
    return _run(cfg, lantern_task(fiber, cfg.grid, angles, cfg.propagation))
