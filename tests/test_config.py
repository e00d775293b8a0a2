"""Config text parsing: defaults, validation, error accumulation, and the
serialize/parse round trip."""

import math
import os
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ove.config import (
    CONFIG_KEYS,
    ConfigError,
    DesignConfig,
    default_config,
    parse_config,
    serialize_config,
)
from ove.propagation import absorber_mask
from testutil import LEGACY_RESOLVED


class TestDefaults:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg == default_config()
        assert cfg.wavelength_um == 1.55
        assert cfg.n0 == 1.5
        assert (cfg.grid.nx, cfg.grid.ny, cfg.grid.dx, cfg.grid.dy) == (64, 64, 0.5, 0.5)
        assert cfg.element_kind == "volume"
        assert cfg.task_kind == "lantern"
        assert cfg.optimizer.max_iters == 400
        assert cfg.propagation.absorber_width == 0.1

    def test_auto_step_size_follows_dn_max(self):
        # Unset step defaults to 1% of the index budget.
        assert parse_config("").optimizer.step_size == pytest.approx(0.01 * 0.05)
        cfg = parse_config("dn_max = 0.2")
        assert cfg.optimizer.step_size == pytest.approx(0.002)

    def test_explicit_step_size_wins(self):
        cfg = parse_config("dn_max = 0.2\noptimizer.step_size = 0.007")
        assert cfg.optimizer.step_size == 0.007

    def test_zero_step_size_accepted(self):
        assert parse_config("optimizer.step_size = 0").optimizer.step_size == 0.0

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# a comment\n\n  grid.nx =  32 \n\t\n# another\n"
        assert parse_config(text).grid.nx == 32


class TestValidation:
    def test_dn_bounds_error_names_both_keys(self):
        for build in (lambda: parse_config("dn_max = -0.2"),
                      lambda: replace(default_config(), dn_max=-0.2)):
            with pytest.raises(ConfigError) as exc:
                build()
            msg = str(exc.value)
            assert "dn_max" in msg and "dn_min" in msg

    def test_fiber_index_contrast_checked(self):
        for build in (lambda: parse_config("fiber.n_core = 1.4\nfiber.n_clad = 1.45"),
                      lambda: replace(default_config(), fiber_n_core=1.4, fiber_n_clad=1.45)):
            with pytest.raises(ConfigError) as exc:
                build()
            msg = str(exc.value)
            assert "fiber.n_core" in msg and "fiber.n_clad" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("grid.nz = 8")

    def test_removed_optimizer_keys_rejected(self):
        removed = ("optimizer.beta1", "optimizer.beta2", "optimizer.projection")
        with open(LEGACY_RESOLVED, encoding="utf-8") as fh:
            text = fh.read()
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.errors) == len(removed)
        for key, err in zip(removed, exc.value.errors):
            assert f"unknown key {key!r}" in err
        # Without those lines it is the default config again.
        kept = [ln for ln in text.splitlines() if ln.split(" = ")[0] not in removed]
        assert parse_config("\n".join(kept)) == default_config()

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid.nx = 32\ngrid.nx = 64")

    def test_malformed_line_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("grid.nx = 32\nthis is not an assignment\n")

    # Each line's replace variant: the DesignConfig field it sets and the
    # value, or, for a key held on a spec, a function of the config that
    # builds that spec. The spec refuses the value itself, with a
    # ValueError of its own, except optimizer.seed, which only the config
    # checks.
    OUT_OF_RANGE = {
        "wavelength_um = 0": ("wavelength_um", 0.0),
        "wavelength_um = nan": ("wavelength_um", math.nan),
        "n0 = 0.9": ("n0", 0.9),
        "grid.nx = 1": ("grid", lambda cfg: replace(cfg.grid, nx=1)),
        "grid.dx_um = -0.5": ("grid", lambda cfg: replace(cfg.grid, dx=-0.5)),
        "volume.nz = 0": ("volume_nz", 0),
        "volume.dz_um = 0": ("volume_dz_um", 0.0),
        "volume.dz_um = inf": ("volume_dz_um", math.inf),
        "layered.num_layers = 0": ("layered_num_layers", 0),
        "task.num_pairs = 0": ("task_num_pairs", 0),
        "task.spot_radius_um = 0": ("task_spot_radius_um", 0.0),
        "task.kind = sorter": ("task_kind", "sorter"),
        "element.kind = layer": ("element_kind", "layer"),
        "optimizer.step_size = -1e-3":
            ("optimizer", lambda cfg: replace(cfg.optimizer, step_size=-1e-3)),
        "optimizer.max_iters = -1":
            ("optimizer", lambda cfg: replace(cfg.optimizer, max_iters=-1)),
        "optimizer.seed = -2": ("optimizer", lambda cfg: replace(cfg.optimizer, seed=-2)),
        "optimizer.tv_weight = -0.5":
            ("loss", lambda cfg: replace(cfg.loss, tv_weight=-0.5)),
        "propagation.absorber_width = 0.5":
            ("propagation", lambda cfg: replace(cfg.propagation, absorber_width=0.5)),
        "propagation.absorber_width = -0.1":
            ("propagation", lambda cfg: replace(cfg.propagation, absorber_width=-0.1)),
    }

    @pytest.mark.parametrize("line", list(OUT_OF_RANGE))
    def test_out_of_range_values_rejected(self, line):
        key = line.partition(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(line)
        cfg = default_config()
        field, value = self.OUT_OF_RANGE[line]
        refused_by_spec = callable(value) and key != "optimizer.seed"
        with pytest.raises(ValueError if refused_by_spec else ConfigError) as exc:
            replace(cfg, **{field: value(cfg) if callable(value) else value})
        if not refused_by_spec:
            assert key in str(exc.value)

    @pytest.mark.parametrize("line,expected", [
        ("grid.nx = 12.5", "integer"),
        ("wavelength_um = tiny", "number"),
        ("element.kind = mesh", "volume"),
        ("task.kind = sort", "lantern"),
        ("loss.kind = l2", "mode-coupling"),
        ("propagation.transfer_model = fft", "exact-nonparaxial"),
    ])
    def test_parse_and_choice_errors_name_alternatives(self, line, expected):
        with pytest.raises(ConfigError, match=expected):
            parse_config(line)

    def test_all_errors_accumulated(self):
        text = "grid.nx = 0\nbogus.key = 1\nwavelength_um = -2\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.errors) == 3

    @given(text=st.text(alphabet=st.characters(codec="ascii"), max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_parsing_is_total(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, DesignConfig)


class TestRoundTrip:
    SAMPLE = "\n".join([
        "wavelength_um = 1.3",
        "dn_max = 0.02",
        "grid.nx = 48",
        "grid.dx_um = 0.25",
        "element.kind = layered",
        "layered.num_layers = 5",
        "task.kind = haar-grin",
        "optimizer.max_iters = 12",
        "optimizer.tv_weight = 0.125",
        "propagation.evanescent_policy = keep",
        "propagation.absorber_width = 0",
    ])

    def test_serialize_parse_identity(self):
        cfg = parse_config(self.SAMPLE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_default_round_trip(self):
        cfg = default_config()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_form_covers_every_key(self):
        lines = serialize_config(default_config()).strip().splitlines()
        keys = [ln.split("=")[0].strip() for ln in lines]
        assert keys == list(CONFIG_KEYS)

    def test_absorber_width_zero_disables_boundary(self):
        cfg = parse_config("propagation.absorber_width = 0")
        assert cfg.propagation.absorber_width == 0.0
        assert absorber_mask(cfg.grid, 0.0) is None
        assert parse_config(serialize_config(cfg)) == cfg

    def test_readme_defaults_match_serialized_defaults(self):
        # The README's ini block documents the defaults; with its comments
        # stripped it must list the keys and values serialize_config gives.
        path = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(path, encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]

        def pairs(text):
            lines = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
            return [tuple(part.strip() for part in ln.split("=", 1)) for ln in lines if ln]

        assert pairs(block) == pairs(serialize_config(default_config()))

    def test_full_float_precision_preserved(self):
        cfg = parse_config("grid.dx_um = 0.30000000000000004")
        again = parse_config(serialize_config(cfg))
        assert again.grid.dx == cfg.grid.dx == 0.30000000000000004


class TestConfigError:
    def test_carries_error_list(self):
        err = ConfigError(["a broke", "b broke"])
        assert err.errors == ["a broke", "b broke"]
        assert "a broke; b broke" in str(err)

    def test_is_value_error(self):
        assert issubclass(ConfigError, ValueError)
