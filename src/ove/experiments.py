"""End-to-end numerical experiments.

holography         multiplexed-grating vs optimized-fanout efficiency
lantern            plane-wave tilts routed into fiber LP modes
haar_grin          Haar mask lobes routed to detector spots

Each task kind has one builder here (``lantern_task``, ``sorter_task``,
``fanout_task``, ``haar_grin_task``), shared with the CLI. It returns a
:class:`MappingTask`: identity W for the three sorters, one input and a
column of ones for the fanout.

An optimized experiment reports from its run: the crosstalk report and
the fanout efficiencies are read from ``DesignRun.coupling_after``, the
coupling of the final design from the optimizer's last evaluation, so
the finished design is not propagated again. A design that has no run
is scored from one evaluation without a gradient:
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
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .design import DesignRun, LossSpec, OptimizerConfig, optimize, seeded_initial_volume
from .fields import ComplexField, Grid2D, IndexVolume, MappingTask
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
    "fanout_optimizer",
    "optimized_fanout_efficiency",
    "superposed_curve",
    "optimized_curve",
    "fit_log_slope",
    "lantern_experiment",
    "toy_sorter_experiment",
    "haar_grin_experiment",
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


def fanout_optimizer(dn_budget: float) -> OptimizerConfig:
    """Default optimizer of the optimized fanout under a |dn| budget.

    Aggressive but safeguarded: the step halving in optimize() keeps the
    loss monotone even at this rate.
    """
    if dn_budget <= 0:
        raise ValueError(f"dn budget must be positive, got {dn_budget}")
    return OptimizerConfig(step_size=0.04 * dn_budget, max_iters=400, seed=7)


def optimized_fanout_efficiency(m: int, dn_budget: float,
                                setup: HolographySetup = HolographySetup(),
                                optimizer: OptimizerConfig | None = None,
                                ) -> tuple[np.ndarray, DesignRun]:
    """Jointly optimized 1-to-m fanout under the same |dn| budget.

    One normal plane wave in, m disjoint Gaussian spots out, optimized
    end to end with the adjoint. Returns the per-output coupled power
    fractions and the full run record.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 outputs, got {m}")
    if dn_budget <= 0:
        raise ValueError(f"dn budget must be positive, got {dn_budget}")
    if optimizer is None:
        optimizer = fanout_optimizer(dn_budget)

    task = fanout_task(setup.grid, setup.wavelength_um, m, setup.spot_ring_um,
                       setup.spot_radius_um, setup.prop)
    initial = seeded_initial_volume(setup.grid, setup.nz, setup.dz, setup.n0,
                                    dn_min=-dn_budget, dn_max=dn_budget,
                                    seed=optimizer.seed)
    run = optimize(task, initial, LossSpec(kind="mode-coupling"), optimizer, setup.prop)
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


def optimized_curve(m_values, dn_budget: float,
                    setup: HolographySetup = HolographySetup(),
                    optimizer: OptimizerConfig | None = None,
                    ) -> tuple[EfficiencyCurve, list[DesignRun]]:
    means, runs = [], []
    for m in m_values:
        etas, run = optimized_fanout_efficiency(m, dn_budget, setup, optimizer)
        means.append(float(np.mean(etas)))
        runs.append(run)
    return EfficiencyCurve.fit(m_values, means), runs


# ---------------------------------------------------------------------------
# Photonic-lantern style mode mapping
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


def _volume_run(task: MappingTask, nz: int, dz: float, n0: float, dn_max: float,
                optimizer: OptimizerConfig, prop: PropagationSpec,
                ) -> tuple[DesignRun, CrosstalkReport]:
    """Mode-coupling run from a seeded volume on [0, dn_max], and the crosstalk
    report of its final design (from ``run.coupling_after``)."""
    initial = seeded_initial_volume(task.grid, nz, dz, n0, dn_min=0.0, dn_max=dn_max,
                                    seed=optimizer.seed)
    run = optimize(task, initial, LossSpec(kind="mode-coupling"), optimizer, prop)
    return run, CrosstalkReport.from_matrix(run.coupling_after, task.weights)


def lantern_experiment(fiber: FiberSpec, angles: list[tuple[float, float]],
                       grid: Grid2D | None = None, nz: int = 48, dz: float = 1.0,
                       n0: float = 1.5, dn_max: float = 0.05,
                       optimizer: OptimizerConfig | None = None,
                       prop: PropagationSpec = PropagationSpec(),
                       ) -> tuple[DesignRun, CrosstalkReport]:
    """Optimize a volume that routes each tilted plane wave into its own
    guided LP mode of the fiber.

    Modes are consumed in (l, m, parity) order, so two inputs map to
    {LP01, LP11}. More inputs than guided modes is rejected. The default
    48 um device length gives the phase stroke a plane wave needs to
    reach the mode waist; half that length caps LP01 coupling below 0.5.
    """
    if grid is None:
        grid = Grid2D(64, 64, 0.5, 0.5)
    if optimizer is None:
        optimizer = OptimizerConfig(step_size=0.04 * dn_max, max_iters=400, seed=11)

    return _volume_run(lantern_task(fiber, grid, angles, prop),
                       nz, dz, n0, dn_max, optimizer, prop)


def toy_sorter_experiment(grid: Grid2D | None = None, wavelength_um: float = 1.55,
                          angle_bins: tuple[float, float] = (-1.5, 1.5),
                          spot_ring_um: float = 5.0, spot_radius_um: float = 2.0,
                          nz: int = 32, dz: float = 1.5,
                          n0: float = 1.5, dn_max: float = 0.05,
                          optimizer: OptimizerConfig | None = None,
                          prop: PropagationSpec = PropagationSpec(),
                          ) -> tuple[DesignRun, CrosstalkReport]:
    """Smallest interesting sorter: two tilted plane waves to two spots.

    Mostly a fast end-to-end check that the optimizer separates two
    inputs cleanly; the recorded run doubles as a regression baseline.
    Tilts are in discrete spectral bins (sin(theta) = bin * lam / window)
    so the inputs stay exactly periodic on the grid.
    """
    if grid is None:
        grid = Grid2D(64, 64, 0.5, 0.5)
    if optimizer is None:
        optimizer = OptimizerConfig(step_size=0.04 * dn_max, max_iters=300, seed=5)

    task = sorter_task(grid, wavelength_um, tilt_angles(grid, wavelength_um, angle_bins),
                       spot_ring_um, spot_radius_um, prop)
    return _volume_run(task, nz, dz, n0, dn_max, optimizer, prop)


# ---------------------------------------------------------------------------
# Haar masks through a GRIN volume
# ---------------------------------------------------------------------------

def haar_grin_task(grid: Grid2D, wavelength_um: float,
                   kinds=HAAR_KINDS, patch_extent_um: float = 12.0,
                   spot_ring_um: float = 6.5, spot_radius_um: float = 1.3,
                   ) -> MappingTask:
    """Each Haar lobe (positive and, where present, negative) mapped to
    its own detector spot.

    The four standard kinds give seven lobes: uniform has no negative
    cells, so its minus lobe is skipped rather than faked.
    """
    lobes: list[ComplexField] = []
    for kind in kinds:
        masks = haar_mask_field(grid, wavelength_um, kind, patch_extent_um)
        lobes.append(masks.plus)
        if masks.minus is not None:
            lobes.append(masks.minus)
    spots = [spot_target(grid, wavelength_um, c, spot_radius_um)
             for c in ring_positions(len(lobes), spot_ring_um)]
    return MappingTask.from_fields(lobes, spots)


def haar_grin_experiment(grid: Grid2D | None = None, wavelength_um: float = 1.55,
                         nz: int = 48, dz: float = 1.5, n0: float = 1.5,
                         dn_max: float = 0.05, kinds=HAAR_KINDS,
                         patch_extent_um: float = 12.0,
                         spot_ring_um: float = 6.5, spot_radius_um: float = 1.3,
                         optimizer: OptimizerConfig | None = None,
                         prop: PropagationSpec = PropagationSpec(),
                         ) -> tuple[DesignRun, CrosstalkReport]:
    """Optimize one volume that sends every Haar lobe to a distinct spot.

    The seven lobes overlap each other strongly (the uniform patch
    overlaps every other lobe), so the joint mapping needs most of the
    available phase stroke: 72 um of device at dn_max 0.05 is enough to
    steer the 12 um patch onto a 6.5 um spot ring, 48 um is not.
    """
    if grid is None:
        grid = Grid2D(64, 64, 0.5, 0.5)
    if optimizer is None:
        optimizer = OptimizerConfig(step_size=0.12 * dn_max, max_iters=400, seed=13)

    task = haar_grin_task(grid, wavelength_um, kinds, patch_extent_um,
                          spot_ring_um, spot_radius_um)
    return _volume_run(task, nz, dz, n0, dn_max, optimizer, prop)
