"""Input and target field families: tilted plane waves, Gaussians,
step-index fiber LP modes, focal-spot targets, and Haar amplitude masks.

Everything returned here carries unit power on its grid.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .fields import ComplexField, Grid2D, normalize

__all__ = [
    "FiberSpec",
    "LPMode",
    "plane_wave",
    "tilt_angles",
    "lp_modes",
    "gaussian",
    "spot_target",
    "haar_mask_field",
    "HaarFields",
    "haar_pattern",
    "HAAR_KINDS",
]

HAAR_KINDS = ("vertical", "horizontal", "diagonal", "uniform")

# Root search grid for the LP dispersion relation.
_NEFF_SCAN_POINTS = 2000
_NEFF_TOLERANCE = 1e-12
_NEFF_EDGE_MARGIN = 1e-9
# Grid points added at each end of a root interval's index range, so that
# rounding in the u-to-n_eff map cannot leave the root's bracket outside.
_INDEX_PAD = 2


@dataclass(frozen=True)
class FiberSpec:
    """Weakly guiding step-index fiber."""

    core_radius_um: float
    n_core: float
    n_clad: float
    wavelength_um: float

    def __post_init__(self):
        if self.core_radius_um <= 0:
            raise ValueError(f"core radius must be positive, got {self.core_radius_um}")
        if not self.n_core > self.n_clad >= 1.0:
            raise ValueError(
                f"need n_core > n_clad >= 1, got n_core={self.n_core}, n_clad={self.n_clad}"
            )
        if self.wavelength_um <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength_um}")

    @property
    def v_number(self) -> float:
        return (2.0 * np.pi / self.wavelength_um) * self.core_radius_um * np.sqrt(
            self.n_core**2 - self.n_clad**2
        )


@dataclass(frozen=True)
class LPMode:
    """One guided LP(l, m) mode sampled on a grid.

    ``parity`` is "cos" or "sin" for l >= 1 and None for the radially
    symmetric l = 0 modes.
    """

    l: int
    m: int
    parity: str | None
    n_eff: float
    field: ComplexField


def plane_wave(grid: Grid2D, wavelength_um: float, theta_x: float = 0.0,
               theta_y: float = 0.0, envelope: np.ndarray | None = None) -> ComplexField:
    """Unit-power tilted plane wave exp(i k (sin(tx) x + sin(ty) y)).

    ``envelope`` optionally apodizes the wave (e.g. by the boundary
    absorber profile) before normalization. Tilts whose transverse
    frequency exceeds the grid Nyquist limit are rejected.
    """
    k = 2.0 * np.pi / wavelength_um
    max_sx = wavelength_um / (2.0 * grid.dx)
    max_sy = wavelength_um / (2.0 * grid.dy)
    sx, sy = np.sin(theta_x), np.sin(theta_y)
    if abs(sx) >= max_sx or abs(sy) >= max_sy:
        raise ValueError(
            f"aliased source: tilt (sin={sx:.4g}, {sy:.4g}) beyond Nyquist "
            f"(sin={max_sx:.4g}, {max_sy:.4g})"
        )
    x, y = grid.meshgrid()
    vals = np.exp(1j * k * (sx * x + sy * y))
    if envelope is not None:
        vals = vals * envelope
    return normalize(ComplexField(grid, wavelength_um, vals))


def tilt_angles(grid: Grid2D, wavelength_um: float,
                bins: Sequence[float]) -> list[tuple[float, float]]:
    """x-tilts ``(theta_x, 0)`` spaced in FFT bins of the window.

    sin(theta_x) = bins * lambda / (nx dx), so a whole number of bins
    gives a plane wave that is exactly periodic on the grid. A tilt that
    needs |sin| >= 1 is rejected.
    """
    angles = []
    for b in bins:
        s = b * wavelength_um / (grid.nx * grid.dx)
        if abs(s) >= 1.0:
            raise ValueError(f"aliased source: tilt of {b} bins needs |sin| = {abs(s):.3g}")
        angles.append((math.asin(s), 0.0))
    return angles


def gaussian(grid: Grid2D, wavelength_um: float, waist_um: float,
             center: tuple[float, float] = (0.0, 0.0)) -> ComplexField:
    """Unit-power Gaussian amplitude exp(-r^2 / w0^2)."""
    if waist_um < 2.0 * max(grid.dx, grid.dy):
        raise ValueError(
            f"unresolvable waist {waist_um} um on grid spacing "
            f"({grid.dx}, {grid.dy}) um"
        )
    x, y = grid.meshgrid()
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    return normalize(ComplexField(grid, wavelength_um, np.exp(-r2 / waist_um**2)))


def spot_target(grid: Grid2D, wavelength_um: float, center: tuple[float, float],
                radius_um: float) -> ComplexField:
    """Unit-power smooth spot (Gaussian of 1/e^2 intensity radius = radius_um).

    Used as an optimization target for localized outputs.
    """
    if radius_um < min(grid.dx, grid.dy):
        raise ValueError(f"spot radius {radius_um} um below grid spacing")
    wx, wy = grid.window_um
    if abs(center[0]) + radius_um > wx / 2 or abs(center[1]) + radius_um > wy / 2:
        raise ValueError(f"spot at {center} with radius {radius_um} um outside window")
    x, y = grid.meshgrid()
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    return normalize(ComplexField(grid, wavelength_um, np.exp(-r2 / radius_um**2)))


# ---------------------------------------------------------------------------
# LP mode solver
# ---------------------------------------------------------------------------

def _transverse(n_eff: float | np.ndarray,
                fiber: FiberSpec) -> tuple[np.ndarray, np.ndarray]:
    """Core and cladding transverse parameters u, w at effective index n_eff."""
    k0a = 2.0 * np.pi / fiber.wavelength_um * fiber.core_radius_um
    u = k0a * np.sqrt(np.maximum(fiber.n_core**2 - n_eff**2, 0.0))
    w = k0a * np.sqrt(np.maximum(n_eff**2 - fiber.n_clad**2, 0.0))
    return u, w


def _dispersion_mismatch(n_eff: float | np.ndarray, l: int | np.ndarray,
                         fiber: FiberSpec) -> float | np.ndarray:
    """Continuous form of the weakly-guiding LP matching condition.

    Zero exactly where u J_{l+1}(u) K_l(w) = w K_{l+1}(w) J_l(u), with
    u, w the usual core/cladding transverse parameters. Written as a
    product (not a ratio) so there are no poles inside the search range.
    ``n_eff`` is a scalar or an array of effective indices, and ``l`` an
    order or an array of orders, one per index.
    """
    u, w = _transverse(n_eff, fiber)
    j_l, j_next = special.jv(l, u), special.jv(l + 1, u)
    k_l, k_next = special.kv(l, w), special.kv(l + 1, w)
    return u * j_next * k_l - w * k_next * j_l


def _u_intervals(v: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order, lower end and upper end of each u-interval that can hold a
    guided root, for orders l = 0, 1, ... up to the first with none.

    LP_lm lies alone in (j_{1,m-1}, j_{0,m}) for l = 0, with j_{1,0} = 0,
    and in (j_{l-1,m}, j_{l,m}) for l >= 1 (Gloge, Appl. Opt. 10, 2252,
    1971). An interval counts if its lower end is below V.
    """
    zeros: list[np.ndarray] = []  # zeros of J_0, J_1, ..., each reaching past v

    def of(n: int) -> np.ndarray:
        while len(zeros) <= n:
            # j_{0,m} > (m - 1/4) pi, and the zeros of J_n interlace with those
            # of J_{n-1}, so nt zeros reach past v; the loop makes sure.
            nt = int(np.searchsorted(zeros[-1], v)) + 1 if zeros else int(v / np.pi + 1.25)
            found = special.jn_zeros(len(zeros), nt)
            while found[-1] < v:
                nt *= 2
                found = special.jn_zeros(len(zeros), nt)
            zeros.append(found)
        return zeros[n]

    orders: list[int] = []
    lower_ends: list[float] = []
    upper_ends: list[float] = []
    for l in itertools.count():
        lower = np.append(0.0, of(1)) if l == 0 else of(l - 1)
        k = int(np.searchsorted(lower, v))
        if k == 0:
            return np.array(orders), np.array(lower_ends), np.array(upper_ends)
        orders += [l] * k
        lower_ends += lower[:k].tolist()
        upper_ends += of(l)[:k].tolist()


def _guided_orders(fiber: FiberSpec) -> list[list[float]]:
    """Guided effective indices of each azimuthal order l = 0, 1, ...,
    descending, up to the first order above 0 with none.

    The roots are those of a sign scan of ``_dispersion_mismatch`` over
    the ``_NEFF_SCAN_POINTS`` n_eff grid, found without the scan. Each
    u-interval of :func:`_u_intervals` maps to an index range of the
    grid, widened by ``_INDEX_PAD`` points. Where the range's ends
    differ in sign, bisection on grid indices finds its bracket, all
    ranges of all orders in one array call per step; elsewhere the range
    is scanned. The mismatch is always evaluated on arrays of grid
    points, which give the whole-grid array's values bit for bit. A
    point where it is exactly 0 is a root; ``brentq`` refines each
    bracket on the scalar mismatch, so the roots are the scan's.
    """
    edge = _NEFF_EDGE_MARGIN * (fiber.n_core - fiber.n_clad)
    grid = np.linspace(fiber.n_clad + edge, fiber.n_core - edge, _NEFF_SCAN_POINTS)
    last = _NEFF_SCAN_POINTS - 1
    ls, u_lo, u_hi = _u_intervals(fiber.v_number)
    # n_eff falls as u rises: (u_lo, u_hi) spans n_eff(u_hi) to n_eff(u_lo).
    k0a = 2.0 * np.pi / fiber.wavelength_um * fiber.core_radius_um
    n_core2 = fiber.n_core**2
    a = np.searchsorted(grid, np.sqrt(np.maximum(n_core2 - (u_hi / k0a)**2, 0.0)))
    b = np.searchsorted(grid, np.sqrt(np.maximum(n_core2 - (u_lo / k0a)**2, 0.0)))
    a = np.clip(a - 1 - _INDEX_PAD, 0, last)
    b = np.clip(b + _INDEX_PAD, 0, last)

    zeros: set[tuple[int, int]] = set()     # (l, i): the mismatch at grid[i] is 0
    brackets: set[tuple[int, int]] = set()  # (l, i): a sign change in (grid[i], grid[i + 1])
    fa, fb = np.split(_dispersion_mismatch(grid[np.concatenate([a, b])],
                                           np.concatenate([ls, ls]), fiber), 2)
    bisect = fa * fb < 0.0
    for l, i, j in zip(ls[~bisect].tolist(), a[~bisect].tolist(), b[~bisect].tolist()):
        vals = _dispersion_mismatch(grid[i:j + 1], l, fiber)
        left, right = vals[:-1], vals[1:]
        zeros.update((l, i + k) for k in np.flatnonzero(left == 0.0).tolist())
        brackets.update((l, i + k) for k in np.flatnonzero(left * right < 0.0).tolist())
    ls, a, b, fa, fb = ls[bisect], a[bisect], b[bisect], fa[bisect], fb[bisect]
    # Halve every range at once until each spans one grid interval; a closed
    # range stays put, since its midpoint is its left end.
    for _ in range(int(np.max(b - a, initial=1) - 1).bit_length()):
        mid = (a + b) // 2
        fm = _dispersion_mismatch(grid[mid], ls, fiber)
        exact = fm == 0.0
        zeros.update(zip(ls[exact].tolist(), mid[exact].tolist()))
        right = (fm < 0.0) == (fa < 0.0)  # the sign change lies right of mid
        a, fa = np.where(right, mid, a), np.where(right, fm, fa)
        b, fb = np.where(right, b, mid), np.where(right, fb, fm)
    found = fa * fb < 0.0
    brackets.update(zip(ls[found].tolist(), a[found].tolist()))

    orders: list[list[float]] = []
    for l in itertools.count():
        roots = [float(grid[i]) for m, i in zeros if m == l]
        for i in sorted(i for m, i in brackets if m == l):
            try:
                r = brentq(_dispersion_mismatch, grid[i], grid[i + 1],
                           args=(l, fiber), xtol=_NEFF_TOLERANCE)
            except (RuntimeError, ValueError) as exc:
                raise RuntimeError(
                    f"LP root refinement failed for l={l} in bracket "
                    f"({grid[i]:.12f}, {grid[i + 1]:.12f}): {exc}"
                ) from exc
            roots.append(float(r))
        if not roots:
            if l > 0:
                return orders
            # l = 0 always guides LP01 (FiberSpec guarantees V > 0), but near
            # cutoff LP01 sits just above n_clad (b = 2.7e-8 at V = 0.45):
            # below V of about 0.415 its root lies inside the grid's edge margin.
            raise RuntimeError(
                f"LP01 not resolved at V={fiber.v_number:.3f}: its n_eff lies within "
                f"{_NEFF_EDGE_MARGIN:g} (n_core - n_clad) of n_clad, inside the "
                "root search's edge margin"
            )
        orders.append(sorted(roots, reverse=True))


def lp_modes(fiber: FiberSpec, grid: Grid2D) -> list[LPMode]:
    """All guided LP modes of the fiber, sampled on the grid.

    Solves the scalar dispersion relation for effective indices in
    (n_clad, n_core), order by order until the first order with no
    guided root. Each root lies alone between two consecutive Bessel
    zeros, so bisection on the 2,000-point n_eff grid finds its bracket
    from at most 13 mismatch points, and ``brentq`` refines it (see
    :func:`_guided_orders`). Returned modes are ordered by (l, m,
    parity), unit power, and orthonormalized on the sampled grid (a
    Gram-Schmidt pass removes the residual discretization-level
    non-orthogonality of the analytic profiles).

    Each (l, m) group has one radial profile, shared by its cos and sin
    parities: one J_l call on the grid's distinct core radii and one K_l
    call on its distinct cladding radii, each with r = 1 appended for
    the normalizer, gathered back onto the samples. LP01 is always
    guided, but below V of about 0.415 its n_eff lies within the search's
    edge margin of n_clad, and a RuntimeError says so.
    """
    if fiber.core_radius_um > 0.4 * min(grid.window_um):
        raise ValueError(
            f"core radius {fiber.core_radius_um} um too large for window {grid.window_um} um"
        )

    x, y = grid.meshgrid()
    # Radius in core units; equal radii get equal profile values, so the
    # Bessel functions run on the distinct radii (ascending) only.
    radii, where = np.unique(np.hypot(x, y) / fiber.core_radius_um, return_inverse=True)
    inside = int(np.searchsorted(radii, 1.0, side="right"))  # radii r <= 1
    core = np.append(radii[:inside], 1.0)
    clad = np.append(radii[inside:], 1.0)
    phi = np.arctan2(y, x)

    found: list[tuple[int, int, str | None, float]] = []  # (l, m, parity, n_eff)
    sampled: list[np.ndarray] = []
    for l, roots in enumerate(_guided_orders(fiber)):
        for m, n_eff in enumerate(roots, start=1):
            u, w = _transverse(n_eff, fiber)
            j = special.jv(l, u * core)
            k = special.kv(l, w * clad)
            radial = np.concatenate([j[:-1] / j[-1], k[:-1] / k[-1]])[where].reshape(x.shape)
            if l == 0:
                found.append((l, m, None, n_eff))
                sampled.append(radial.astype(np.complex128))
            else:
                for parity, azimuthal in (("cos", np.cos(l * phi)), ("sin", np.sin(l * phi))):
                    found.append((l, m, parity, n_eff))
                    sampled.append((radial * azimuthal).astype(np.complex128))

    # Gram-Schmidt on the sampled grid, in (l, m, parity) order.
    area = grid.cell_area
    ortho: list[np.ndarray] = []
    for v in sampled:
        for q in ortho:
            v = v - (np.sum(np.conj(q) * v) * area) * q
        nrm = np.sqrt(np.sum(np.abs(v) ** 2) * area)
        if nrm <= 0:
            raise RuntimeError("degenerate LP mode sample after orthogonalization")
        ortho.append(v / nrm)

    return [
        LPMode(l=l, m=m, parity=parity, n_eff=n_eff,
               field=ComplexField(grid, fiber.wavelength_um, v))
        for (l, m, parity, n_eff), v in zip(found, ortho)
    ]


# ---------------------------------------------------------------------------
# Haar amplitude masks
# ---------------------------------------------------------------------------

def haar_pattern(kind: str) -> np.ndarray:
    """Signed 3x3 cell pattern for one Boolean Haar kind.

    Index [i, j]: i is the x cell (0 = left), j is the y cell. Vertical
    puts +1 on the left cell column and -1 on the right; horizontal is
    the transpose; diagonal pairs opposite corners; uniform is all +1.
    """
    if kind == "vertical":
        p = np.array([[1, 1, 1], [0, 0, 0], [-1, -1, -1]])
    elif kind == "horizontal":
        p = np.array([[1, 0, -1], [1, 0, -1], [1, 0, -1]])
    elif kind == "diagonal":
        p = np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]])
    elif kind == "uniform":
        p = np.ones((3, 3), dtype=int)
    else:
        raise ValueError(f"unknown Haar kind {kind!r}, expected one of {HAAR_KINDS}")
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class HaarFields:
    """Amplitude masks for one Haar kind.

    ``minus`` is None for the uniform kind, which has no negative cells.
    """

    plus: ComplexField
    minus: ComplexField | None
    pattern: np.ndarray


def haar_mask_field(grid: Grid2D, wavelength_um: float, kind: str,
                    patch_extent_um: float) -> HaarFields:
    """Unit-power amplitude masks on the +1 / -1 cells of a Haar pattern.

    The pattern tiles a centered square patch of the given extent into
    3x3 equal cells; samples outside the patch are zero.
    """
    wx, wy = grid.window_um
    if patch_extent_um <= 0 or patch_extent_um > min(wx, wy):
        raise ValueError(
            f"patch extent {patch_extent_um} um does not fit window {grid.window_um} um"
        )
    pattern = haar_pattern(kind)
    x, y = grid.meshgrid()
    half = patch_extent_um / 2.0
    cell = patch_extent_um / 3.0
    # Cell index per sample, -1 outside the patch.
    ci = np.floor((x + half) / cell).astype(int)
    cj = np.floor((y + half) / cell).astype(int)
    in_patch = (ci >= 0) & (ci <= 2) & (cj >= 0) & (cj <= 2)
    ci, cj = np.clip(ci, 0, 2), np.clip(cj, 0, 2)
    signs = np.where(in_patch, pattern[ci, cj], 0)

    plus = normalize(ComplexField(grid, wavelength_um, (signs > 0).astype(np.complex128)))
    if np.any(signs < 0):
        minus = normalize(ComplexField(grid, wavelength_um, (signs < 0).astype(np.complex128)))
    else:
        minus = None
    return HaarFields(plus=plus, minus=minus, pattern=pattern)
