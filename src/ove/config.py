"""Flat text configuration for design runs.

Format: one ``key = value`` per line, ``#`` comments and blank lines
ignored. Keys are dotted paths; every key has a typed default, unknown
or duplicate keys are rejected, and parsing is total: all problems in a
file are collected into one ConfigError instead of stopping at the
first.

``CONFIG_KEYS`` is the one table of keys: each entry holds a key's
default, its parser, its range check or choices and, where it is not
the usual one, its home in :class:`DesignConfig`. Parsing, the checks a
``DesignConfig`` runs whenever it is built and serialization all read
that table, so a ``dataclasses.replace`` variant is refused as a file
with the same values is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .design import LOSS_KINDS, LossSpec, OptimizerConfig
from .fields import Grid2D
from .propagation import EVANESCENT_POLICIES, TRANSFER_MODELS, PropagationSpec
from .sources import FiberSpec

__all__ = ["DesignConfig", "ConfigError", "parse_config", "serialize_config",
           "default_config", "CONFIG_KEYS"]

ELEMENT_KINDS = ("volume", "layered")
TASK_KINDS = ("lantern", "haar-grin", "fanout", "custom")

# Sentinel for "derive from dn_max at resolution time": an unset
# optimizer.step_size is 1% of the index budget.
_AUTO = object()
_STEP, _DN_MAX = "optimizer.step_size", "dn_max"

# The DesignConfig fields that hold a spec object, and its type.
_SPECS = {"grid": Grid2D, "loss": LossSpec, "optimizer": OptimizerConfig,
          "propagation": PropagationSpec}


def _type_int(raw: str) -> int:
    return int(raw, 10)


class _Key:
    def __init__(self, default, parse=None, check=None, choices=None, home=None):
        self.default = default
        self.parse = parse
        self.check = check
        self.choices = choices
        self.home = home

    def problem(self, key: str, value) -> str | None:
        """Why ``value`` is not a valid value of ``key``, or None when it
        is. A float must be finite: nan and inf make no sense in a config."""
        if self.choices is not None:
            if value not in self.choices:
                return f"{key}: {value!r} is not one of {', '.join(self.choices)}"
        elif (self.parse is float and not math.isfinite(value)
              or self.check is not None and not self.check(value)):
            return f"{key}: value {value} out of range"
        return None

    def convert(self, key: str, raw: str):
        value = raw
        if self.choices is None:
            try:
                value = self.parse(raw)
            except ValueError:
                kind = "integer" if self.parse is _type_int else "number"
                raise ValueError(f"{key}: cannot parse {raw!r} as {kind}") from None
        problem = self.problem(key, value)
        if problem is not None:
            raise ValueError(problem)
        return value


def _choice(default, *choices):
    return _Key(default, choices=choices)


CONFIG_KEYS: dict[str, _Key] = {
    "wavelength_um": _Key(1.55, float, lambda v: v > 0),
    "n0": _Key(1.5, float, lambda v: v >= 1.0),
    "dn_min": _Key(0.0, float),
    _DN_MAX: _Key(0.05, float),
    "grid.nx": _Key(64, _type_int, lambda v: v >= 2),
    "grid.ny": _Key(64, _type_int, lambda v: v >= 2),
    "grid.dx_um": _Key(0.5, float, lambda v: v > 0, home="grid.dx"),
    "grid.dy_um": _Key(0.5, float, lambda v: v > 0, home="grid.dy"),
    "element.kind": _choice("volume", *ELEMENT_KINDS),
    "volume.nz": _Key(48, _type_int, lambda v: v >= 1),
    "volume.dz_um": _Key(1.0, float, lambda v: v > 0),
    "layered.num_layers": _Key(3, _type_int, lambda v: v >= 1),
    "layered.gap_um": _Key(50.0, float, lambda v: v >= 0),
    "task.kind": _choice("lantern", *TASK_KINDS),
    "task.num_pairs": _Key(2, _type_int, lambda v: v >= 1),
    "task.angle_step_bins": _Key(2.0, float, lambda v: v > 0),
    "task.fan": _Key(4, _type_int, lambda v: v >= 1),
    "task.spot_radius_um": _Key(1.3, float, lambda v: v > 0),
    "task.spot_ring_um": _Key(6.5, float, lambda v: v >= 0),
    "task.patch_extent_um": _Key(12.0, float, lambda v: v > 0),
    "fiber.core_radius_um": _Key(5.0, float, lambda v: v > 0),
    "fiber.n_core": _Key(1.45, float, lambda v: v >= 1.0),
    "fiber.n_clad": _Key(1.444, float, lambda v: v >= 1.0),
    "loss.kind": _choice("mode-coupling", *LOSS_KINDS),
    _STEP: _Key(_AUTO, float, lambda v: v >= 0),
    "optimizer.max_iters": _Key(400, _type_int, lambda v: v >= 0),
    "optimizer.seed": _Key(0, _type_int, lambda v: v >= 0),
    "optimizer.tv_weight": _Key(0.0, float, lambda v: v >= 0, home="loss.tv_weight"),
    "propagation.transfer_model": _choice("exact-nonparaxial", *TRANSFER_MODELS),
    "propagation.evanescent_policy": _choice("zero", *EVANESCENT_POLICIES),
    # Width 0 disables the boundary absorber entirely.
    "propagation.absorber_width": _Key(0.1, float, lambda v: 0.0 <= v < 0.5),
}

# Where each key's value lives in a DesignConfig, as an attribute path:
# the key's own ``home`` if it has one; else the key itself when it
# starts with a spec field (``grid.nx``); else the field named by the key
# with its dots as underscores (``volume.nz`` -> ``volume_nz``).
_HOMES = {key: spec.home or (key if key.partition(".")[0] in _SPECS
                             else key.replace(".", "_"))
          for key, spec in CONFIG_KEYS.items()}
_read_homes = attrgetter(*_HOMES.values())


class ConfigError(ValueError):
    """All problems found in one config, as a list of messages."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class DesignConfig:
    """Fully resolved run settings (every default applied).

    Building one runs every check of ``CONFIG_KEYS`` and the two
    cross-key checks, and raises one ConfigError that names each failing
    key.
    """

    wavelength_um: float
    n0: float
    dn_min: float
    dn_max: float
    grid: Grid2D
    element_kind: str
    volume_nz: int
    volume_dz_um: float
    layered_num_layers: int
    layered_gap_um: float
    task_kind: str
    task_num_pairs: int
    task_angle_step_bins: float
    task_fan: int
    task_spot_radius_um: float
    task_spot_ring_um: float
    task_patch_extent_um: float
    fiber_core_radius_um: float
    fiber_n_core: float
    fiber_n_clad: float
    loss: LossSpec
    optimizer: OptimizerConfig
    propagation: PropagationSpec

    def __post_init__(self):
        errors = [problem for key, value in to_mapping(self).items()
                  if (problem := CONFIG_KEYS[key].problem(key, value)) is not None]
        if self.dn_max < self.dn_min:
            errors.append(f"dn_max = {self.dn_max} is below dn_min = {self.dn_min}")
        if self.fiber_n_core <= self.fiber_n_clad:
            errors.append(f"fiber.n_core = {self.fiber_n_core} must exceed "
                          f"fiber.n_clad = {self.fiber_n_clad}")
        if errors:
            raise ConfigError(errors)

    @property
    def fiber(self) -> FiberSpec:
        """The step-index fiber of the ``fiber.*`` keys, at ``wavelength_um``."""
        return FiberSpec(self.fiber_core_radius_um, self.fiber_n_core,
                         self.fiber_n_clad, self.wavelength_um)


def _build(values: dict) -> DesignConfig:
    """The DesignConfig holding each key's value at its home."""
    fields, specs = {}, {name: {} for name in _SPECS}
    for key, home in _HOMES.items():
        name, _, attr = home.partition(".")
        if attr:
            specs[name][attr] = values[key]
        else:
            fields[name] = values[key]
    return DesignConfig(**fields, **{name: spec(**specs[name])
                                     for name, spec in _SPECS.items()})


def parse_config(text: str) -> DesignConfig:
    """Parse config text, applying documented defaults for absent keys.

    Raises ConfigError carrying every problem found (unknown keys, bad
    values, duplicates, inconsistent combinations).
    """
    errors: list[str] = []
    values = {k: spec.default for k, spec in CONFIG_KEYS.items()}
    seen: set[str] = set()

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        try:
            values[key] = CONFIG_KEYS[key].convert(key, raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")

    if errors:
        raise ConfigError(errors)
    if values[_STEP] is _AUTO:
        dn_max = values[_DN_MAX]
        values[_STEP] = 0.01 * dn_max if dn_max > 0 else 1e-4
    return _build(values)


def _format_value(v) -> str:
    if isinstance(v, bool):  # guard: bools are ints in Python
        raise TypeError("no boolean config values")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def to_mapping(cfg: DesignConfig) -> dict[str, object]:
    """Flat key -> value view of a resolved config, in schema order."""
    return dict(zip(CONFIG_KEYS, _read_homes(cfg)))


def serialize_config(cfg: DesignConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) resolves to cfg."""
    lines = [f"{k} = {_format_value(v)}" for k, v in to_mapping(cfg).items()]
    return "\n".join(lines) + "\n"


def default_config() -> DesignConfig:
    return parse_config("")
