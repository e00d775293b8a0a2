"""Flat text configuration for design runs.

Format: one ``key = value`` per line, ``#`` comments and blank lines
ignored. Keys are dotted paths; every key has a typed default, unknown
or duplicate keys are rejected, and parsing is total: all problems in a
file are collected into one ConfigError instead of stopping at the
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .design import LOSS_KINDS, LossSpec, OptimizerConfig
from .fields import Grid2D
from .propagation import EVANESCENT_POLICIES, TRANSFER_MODELS, PropagationSpec
from .sources import FiberSpec

__all__ = ["DesignConfig", "ConfigError", "parse_config", "serialize_config",
           "default_config", "CONFIG_KEYS"]

ELEMENT_KINDS = ("volume", "layered")
TASK_KINDS = ("lantern", "haar-grin", "fanout", "custom")

# Sentinel for "derive from dn_max at resolution time".
_AUTO = object()


def _type_int(raw: str) -> int:
    return int(raw, 10)


def _type_float(raw: str) -> float:
    v = float(raw)
    if v != v:  # NaN never makes sense in a config
        raise ValueError("nan")
    return v


class _Key:
    def __init__(self, default, parse, check=None, choices=None):
        self.default = default
        self.parse = parse
        self.check = check
        self.choices = choices

    def convert(self, key: str, raw: str):
        if self.choices is not None:
            if raw not in self.choices:
                raise ValueError(
                    f"{key}: {raw!r} is not one of {', '.join(self.choices)}"
                )
            return raw
        try:
            val = self.parse(raw)
        except ValueError:
            kind = "integer" if self.parse is _type_int else "number"
            raise ValueError(f"{key}: cannot parse {raw!r} as {kind}") from None
        if self.check is not None and not self.check(val):
            raise ValueError(f"{key}: value {raw} out of range")
        return val


def _choice(default, *choices):
    return _Key(default, None, choices=choices)


CONFIG_KEYS: dict[str, _Key] = {
    "wavelength_um": _Key(1.55, _type_float, lambda v: v > 0),
    "n0": _Key(1.5, _type_float, lambda v: v >= 1.0),
    "dn_min": _Key(0.0, _type_float),
    "dn_max": _Key(0.05, _type_float),
    "grid.nx": _Key(64, _type_int, lambda v: v >= 2),
    "grid.ny": _Key(64, _type_int, lambda v: v >= 2),
    "grid.dx_um": _Key(0.5, _type_float, lambda v: v > 0),
    "grid.dy_um": _Key(0.5, _type_float, lambda v: v > 0),
    "element.kind": _choice("volume", *ELEMENT_KINDS),
    "volume.nz": _Key(48, _type_int, lambda v: v >= 1),
    "volume.dz_um": _Key(1.0, _type_float, lambda v: v > 0),
    "layered.num_layers": _Key(3, _type_int, lambda v: v >= 1),
    "layered.gap_um": _Key(50.0, _type_float, lambda v: v >= 0),
    "task.kind": _choice("lantern", *TASK_KINDS),
    "task.num_pairs": _Key(2, _type_int, lambda v: v >= 1),
    "task.angle_step_bins": _Key(2.0, _type_float, lambda v: v > 0),
    "task.fan": _Key(4, _type_int, lambda v: v >= 1),
    "task.spot_radius_um": _Key(1.3, _type_float, lambda v: v > 0),
    "task.spot_ring_um": _Key(6.5, _type_float, lambda v: v >= 0),
    "task.patch_extent_um": _Key(12.0, _type_float, lambda v: v > 0),
    "fiber.core_radius_um": _Key(5.0, _type_float, lambda v: v > 0),
    "fiber.n_core": _Key(1.45, _type_float, lambda v: v >= 1.0),
    "fiber.n_clad": _Key(1.444, _type_float, lambda v: v >= 1.0),
    "loss.kind": _choice("mode-coupling", *LOSS_KINDS),
    "optimizer.step_size": _Key(_AUTO, _type_float, lambda v: v >= 0),
    "optimizer.max_iters": _Key(400, _type_int, lambda v: v >= 0),
    "optimizer.seed": _Key(0, _type_int, lambda v: v >= 0),
    "optimizer.tv_weight": _Key(0.0, _type_float, lambda v: v >= 0),
    "propagation.transfer_model": _choice("exact-nonparaxial", *TRANSFER_MODELS),
    "propagation.evanescent_policy": _choice("zero", *EVANESCENT_POLICIES),
    # Width 0 disables the boundary absorber entirely.
    "propagation.absorber_width": _Key(0.1, _type_float, lambda v: 0.0 <= v < 0.5),
}


class ConfigError(ValueError):
    """All problems found in one config, as a list of messages."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class DesignConfig:
    """Fully resolved run settings (every default applied)."""

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
    fiber: FiberSpec
    loss: LossSpec
    optimizer: OptimizerConfig
    propagation: PropagationSpec


def _build(values: dict, errors: list[str]) -> DesignConfig | None:
    """Assemble the typed config, folding constructor complaints into errors."""
    if values["dn_max"] < values["dn_min"]:
        errors.append(
            f"dn_max = {values['dn_max']} is below dn_min = {values['dn_min']}"
        )
    if values["fiber.n_core"] <= values["fiber.n_clad"]:
        errors.append(
            f"fiber.n_core = {values['fiber.n_core']} must exceed "
            f"fiber.n_clad = {values['fiber.n_clad']}"
        )
    step = values["optimizer.step_size"]
    if step is _AUTO:
        step = 0.01 * values["dn_max"] if values["dn_max"] > 0 else 1e-4

    def attempt(label, fn):
        try:
            return fn()
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
            return None

    grid = attempt("grid", lambda: Grid2D(values["grid.nx"], values["grid.ny"],
                                          values["grid.dx_um"], values["grid.dy_um"]))
    fiber = attempt("fiber", lambda: FiberSpec(values["fiber.core_radius_um"],
                                               values["fiber.n_core"],
                                               values["fiber.n_clad"],
                                               values["wavelength_um"]))
    loss = attempt("loss", lambda: LossSpec(values["loss.kind"],
                                            values["optimizer.tv_weight"]))
    opt = attempt("optimizer", lambda: OptimizerConfig(
        step_size=step,
        max_iters=values["optimizer.max_iters"],
        seed=values["optimizer.seed"],
    ))
    prop = attempt("propagation", lambda: PropagationSpec(
        transfer_model=values["propagation.transfer_model"],
        evanescent_policy=values["propagation.evanescent_policy"],
        absorber_width=values["propagation.absorber_width"],
    ))
    if errors:
        return None
    return DesignConfig(
        wavelength_um=values["wavelength_um"],
        n0=values["n0"],
        dn_min=values["dn_min"],
        dn_max=values["dn_max"],
        grid=grid,
        element_kind=values["element.kind"],
        volume_nz=values["volume.nz"],
        volume_dz_um=values["volume.dz_um"],
        layered_num_layers=values["layered.num_layers"],
        layered_gap_um=values["layered.gap_um"],
        task_kind=values["task.kind"],
        task_num_pairs=values["task.num_pairs"],
        task_angle_step_bins=values["task.angle_step_bins"],
        task_fan=values["task.fan"],
        task_spot_radius_um=values["task.spot_radius_um"],
        task_spot_ring_um=values["task.spot_ring_um"],
        task_patch_extent_um=values["task.patch_extent_um"],
        fiber=fiber,
        loss=loss,
        optimizer=opt,
        propagation=prop,
    )


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

    cfg = _build(values, errors) if not errors else None
    if errors:
        raise ConfigError(errors)
    return cfg


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
    return {
        "wavelength_um": cfg.wavelength_um,
        "n0": cfg.n0,
        "dn_min": cfg.dn_min,
        "dn_max": cfg.dn_max,
        "grid.nx": cfg.grid.nx,
        "grid.ny": cfg.grid.ny,
        "grid.dx_um": cfg.grid.dx,
        "grid.dy_um": cfg.grid.dy,
        "element.kind": cfg.element_kind,
        "volume.nz": cfg.volume_nz,
        "volume.dz_um": cfg.volume_dz_um,
        "layered.num_layers": cfg.layered_num_layers,
        "layered.gap_um": cfg.layered_gap_um,
        "task.kind": cfg.task_kind,
        "task.num_pairs": cfg.task_num_pairs,
        "task.angle_step_bins": cfg.task_angle_step_bins,
        "task.fan": cfg.task_fan,
        "task.spot_radius_um": cfg.task_spot_radius_um,
        "task.spot_ring_um": cfg.task_spot_ring_um,
        "task.patch_extent_um": cfg.task_patch_extent_um,
        "fiber.core_radius_um": cfg.fiber.core_radius_um,
        "fiber.n_core": cfg.fiber.n_core,
        "fiber.n_clad": cfg.fiber.n_clad,
        "loss.kind": cfg.loss.kind,
        "optimizer.step_size": cfg.optimizer.step_size,
        "optimizer.max_iters": cfg.optimizer.max_iters,
        "optimizer.seed": cfg.optimizer.seed,
        "optimizer.tv_weight": cfg.loss.tv_weight,
        "propagation.transfer_model": cfg.propagation.transfer_model,
        "propagation.evanescent_policy": cfg.propagation.evanescent_policy,
        "propagation.absorber_width": cfg.propagation.absorber_width,
    }


def serialize_config(cfg: DesignConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) resolves to cfg."""
    lines = [f"{k} = {_format_value(v)}" for k, v in to_mapping(cfg).items()]
    return "\n".join(lines) + "\n"


def default_config() -> DesignConfig:
    return parse_config("")
