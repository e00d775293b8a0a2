"""Command-line surface: subcommand artifacts, exit codes, config echo,
and byte-identical reruns.

Everything runs in-process through main(argv) with the working directory
pinned to a temp dir, so default output paths cannot leak into the repo.
"""

import importlib.util
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import ove.cli
from ove.cli import main
from ove.config import parse_config, serialize_config
from ove.experiments import (
    CANNED,
    CrosstalkReport,
    canned_config,
    fanout_config,
    optimized_fanout_efficiency,
    run_design,
)
from ove.fields import Grid2D, IndexVolume
from ove.io import export_volume, import_field, import_volume, read_pgm
from ove.propagation import propagate
from testutil import LEGACY_RESOLVED, haar_bank_oracle

TINY_DESIGN = "\n".join([
    "grid.nx = 32",
    "grid.ny = 32",
    "volume.nz = 4",
    "task.kind = custom",
    "task.num_pairs = 2",
    "task.spot_ring_um = 3.0",
    "task.spot_radius_um = 1.5",
    "optimizer.max_iters = 3",
    "optimizer.step_size = 0.002",
]) + "\n"


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_csv_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestScaling:
    def test_reference_rows(self, tmp_path):
        assert main(["scaling", "--n", "1,15,225", "--pitch", "20",
                     "--out", "s"]) == 0
        lines = read_csv_lines(tmp_path / "s" / "scaling.csv")
        assert lines[0].startswith("n_neurons,elements_2d,planes_3d")
        got = [tuple(int(x) for x in ln.split(",")[:3]) for ln in lines[1:]]
        assert got == [(1, 1, 1), (15, 225, 15), (225, 50625, 225)]

    def test_footprints_at_printed_pitch(self, tmp_path):
        main(["scaling", "--n", "225", "--pitch", "20", "--out", "s"])
        row = read_csv_lines(tmp_path / "s" / "scaling.csv")[1].split(",")
        assert float(row[5]) == 50625 * 400.0
        assert float(row[6]) == 300.0 * 300.0

    def test_rerun_byte_identical(self, tmp_path):
        main(["scaling", "--n", "1,2,3", "--pitch", "5", "--out", "a"])
        main(["scaling", "--n", "1,2,3", "--pitch", "5", "--out", "b"])
        assert read_bytes(tmp_path / "a" / "scaling.csv") == \
            read_bytes(tmp_path / "b" / "scaling.csv")

    def test_bad_count_list(self, tmp_path, capsys):
        assert main(["scaling", "--n", "1,x", "--out", "s"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestHolography:
    def test_single_m_superposed(self, tmp_path):
        assert main(["holography", "--m", "1", "--scheme", "superposed",
                     "--out", "h"]) == 0
        lines = read_csv_lines(tmp_path / "h" / "efficiency.csv")
        assert lines[0] == "m,eta_per_output"
        assert len(lines) == 2
        m, eta = lines[1].split(",")
        assert m == "1"
        assert 0.0 < float(eta) < 1.0
        metrics = dict(ln.split(",") for ln in
                       read_csv_lines(tmp_path / "h" / "metrics.csv")[1:])
        assert metrics["scheme"] == "superposed"
        assert metrics["fitted_log_slope"] == "nan"

    def test_single_m_optimized(self, tmp_path):
        assert main(["holography", "--m", "1", "--scheme", "optimized",
                     "--budget", "0.05", "--out", "h"]) == 0
        lines = read_csv_lines(tmp_path / "h" / "efficiency.csv")
        assert len(lines) == 2
        assert lines[1].startswith("1,")
        assert 0.0 < float(lines[1].split(",")[1]) <= 1.0

    def test_superposed_rerun_byte_identical(self, tmp_path):
        main(["holography", "--m", "1,2", "--out", "a"])
        main(["holography", "--m", "1,2", "--out", "b"])
        for name in ("efficiency.csv", "metrics.csv", "resolved.cfg"):
            assert read_bytes(tmp_path / "a" / name) == \
                read_bytes(tmp_path / "b" / name)

    def test_resolved_config_is_the_setup_that_ran(self, tmp_path):
        # The HolographySetup, not the design defaults (nz 48, dz 1.0,
        # absorber 0.1): `ove design` on the file, cut to two iterations,
        # reruns the optimized fanout at the largest M.
        assert main(["holography", "--m", "1,2", "--out", "h"]) == 0
        text = (tmp_path / "h" / "resolved.cfg").read_text(encoding="utf-8")
        lines = text.splitlines()
        for line in ("volume.nz = 32", "volume.dz_um = 0.5", "propagation.absorber_width = 0.0",
                     "task.kind = fanout", "task.fan = 2", "dn_min = -0.005", "dn_max = 0.005"):
            assert line in lines, line
        short = text.replace("optimizer.max_iters = 400", "optimizer.max_iters = 2")
        (tmp_path / "run.cfg").write_text(short, encoding="utf-8")
        assert main(["design", str(tmp_path / "run.cfg"), "--out", "d"]) == 0
        got = [float(ln.split(",")[1]) for ln in read_csv_lines(tmp_path / "d" / "loss.csv")[1:]]
        _, run = optimized_fanout_efficiency(2, 0.005, optimizer=parse_config(short).optimizer)
        assert got == [run.initial_loss, *run.loss_history]


class TestDesign:
    def write_config(self, tmp_path, text=TINY_DESIGN) -> str:
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_artifacts_and_config_echo(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["design", cfg, "--out", "d"]) == 0
        out = capsys.readouterr().out
        assert "grid.nx = 32" in out
        assert "task.kind = custom" in out

        outdir = tmp_path / "d"
        for name in ("resolved.cfg", "design.ivol", "design.ivol.meta",
                     "loss.csv", "coupling.csv", "metrics.csv"):
            assert (outdir / name).exists(), name
        for k in range(2):
            for stem in ("input", "target", "output"):
                assert (outdir / f"{stem}_{k:02d}.pgm").exists()
        assert read_bytes(outdir / "resolved.cfg").decode() == out

    def test_loss_and_coupling_tables(self, tmp_path):
        cfg = self.write_config(tmp_path)
        main(["design", cfg, "--out", "d"])
        loss_lines = read_csv_lines(tmp_path / "d" / "loss.csv")
        assert loss_lines[0] == "iteration,loss"
        assert len(loss_lines) == 2 + 3  # header + initial + three iterations
        losses = [float(ln.split(",")[1]) for ln in loss_lines[1:]]
        assert losses == sorted(losses, reverse=True) or losses[-1] <= losses[0]

        coupling_lines = read_csv_lines(tmp_path / "d" / "coupling.csv")
        assert coupling_lines[0] == "target,input,before,after"
        assert len(coupling_lines) == 1 + 4  # 2x2 task

    def test_written_volume_reimports(self, tmp_path):
        cfg = self.write_config(tmp_path)
        main(["design", cfg, "--out", "d"])
        vol = import_volume(str(tmp_path / "d" / "design.ivol"))
        assert vol.grid.nx == 32 and vol.nz == 4
        assert vol.dn.min() >= vol.dn_min and vol.dn.max() <= vol.dn_max

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        main(["design", cfg, "--out", "a"])
        main(["design", cfg, "--out", "b"])
        for name in ("design.ivol", "loss.csv", "coupling.csv", "metrics.csv",
                     "resolved.cfg", "output_00.pgm", "output_01.pgm"):
            assert read_bytes(tmp_path / "a" / name) == \
                read_bytes(tmp_path / "b" / name), name

    @pytest.mark.parametrize("kind,targets,inputs", [("custom", 2, 2), ("fanout", 3, 1)])
    def test_renders_one_pass_per_distinct_input(self, tmp_path, monkeypatch, kind,
                                                 inputs, targets):
        # A 1-to-3 fanout has one input: one input and one output render,
        # three target renders and 3 x 1 coupling rows. The output renders
        # come from the final evaluation's one pass per distinct input, so
        # no forward sweep runs once optimize has returned.
        calls, late_sweeps, rendered = [], [], {}
        real_optimize = ove.cli.optimize

        def recorded(*args):
            run = real_optimize(*args)
            calls.append((args, run))
            return run

        def counted(fn):
            def wrapper(*args, **kwargs):
                if calls:
                    late_sweeps.append(args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ove.cli, "optimize", recorded)
        for module in (ove.design, ove.propagation):
            monkeypatch.setattr(module, "forward_sweep", counted(module.forward_sweep))
        monkeypatch.setattr(ove.cli, "render_field",
                            lambda f, path: rendered.update({os.path.basename(path): f.values}))
        text = (TINY_DESIGN.replace("task.kind = custom", f"task.kind = {kind}")
                .replace("optimizer.max_iters = 3", "optimizer.max_iters = 0"))
        cfg = self.write_config(tmp_path, text + "task.fan = 3\n")
        assert main(["design", cfg, "--out", "d"]) == 0
        assert len(calls) == 1 and late_sweeps == []
        assert sorted(rendered) == sorted(
            [f"{stem}_{i:02d}.pgm" for i in range(inputs) for stem in ("input", "output")]
            + [f"target_{t:02d}.pgm" for t in range(targets)])
        ((task, _, _, _, prop), run) = calls[0]
        assert len(task.inputs) == inputs
        for i, inp in enumerate(task.inputs):
            np.testing.assert_array_equal(rendered[f"input_{i:02d}.pgm"], inp.values)
            np.testing.assert_array_equal(rendered[f"output_{i:02d}.pgm"],
                                          propagate(run.result, inp, prop).values)
        coupling_lines = read_csv_lines(tmp_path / "d" / "coupling.csv")
        assert len(coupling_lines) == 1 + targets * inputs

    def test_bad_config_exits_one_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.nz = 8\n", encoding="utf-8")  # unknown key
        assert main(["design", str(path), "--out", "d"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown key" in err
        assert err.count("\n") == 1

    def test_legacy_config_exits_one_without_output(self, tmp_path, capsys):
        # A resolved.cfg that still sets Adam's decay rates or the
        # projection is refused before any output is written or echoed.
        out = tmp_path / "d"
        assert main(["design", LEGACY_RESOLVED, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("unknown key") == 3
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_outputs_confined_to_out_dir(self, tmp_path):
        cfg = self.write_config(tmp_path)
        before = set(os.listdir(tmp_path))
        main(["design", cfg, "--out", str(tmp_path / "only_here")])
        after = set(os.listdir(tmp_path))
        assert after - before == {"only_here"}


class TestDesignTaskKinds:
    def test_lantern_smoke(self, tmp_path):
        path = tmp_path / "l.cfg"
        path.write_text("\n".join([
            "task.kind = lantern", "grid.nx = 32", "grid.ny = 32", "volume.nz = 4",
            "optimizer.max_iters = 2", "optimizer.step_size = 0.002",
        ]) + "\n", encoding="utf-8")
        assert main(["design", str(path), "--out", "l"]) == 0
        metrics = dict(ln.split(",") for ln in
                       read_csv_lines(tmp_path / "l" / "metrics.csv")[1:])
        assert float(metrics["final_loss"]) <= float(metrics["initial_loss"])

    def test_haar_grin_smoke(self, tmp_path):
        path = tmp_path / "h.cfg"
        path.write_text("\n".join([
            "task.kind = haar-grin", "volume.nz = 2",
            "optimizer.max_iters = 1", "optimizer.step_size = 0.006",
        ]) + "\n", encoding="utf-8")
        assert main(["design", str(path), "--out", "h"]) == 0
        # Seven lobes: 3 signed kinds x 2 lobes + uniform's single lobe.
        coupling_lines = read_csv_lines(tmp_path / "h" / "coupling.csv")
        assert len(coupling_lines) == 1 + 49

    @pytest.mark.parametrize("command", ["lantern", "haar-grin"])
    def test_removed_shorthands_are_usage_errors(self, tmp_path, command):
        # `ove design` with task.kind set is the one way to run a task kind.
        assert main([command, "--out", "x"]) == 2
        assert not (tmp_path / "x").exists()


def fanout_experiment(opt):
    """The canned fanout as (run, report). Its W is a column of ones, so
    every entry is matched; its per-output efficiency is that column."""
    etas, run = optimized_fanout_efficiency(4, 0.05, optimizer=opt)
    assert etas.tolist() == run.coupling_after[:, 0].tolist()
    return run, CrosstalkReport.from_matrix(run.coupling_after, np.ones((4, 1)))


@pytest.mark.parametrize("kind", [*sorted(CANNED), "fanout"])
def test_design_reproduces_canned_experiment(tmp_path, kind):
    # Each canned config, cut to two iterations and written out as
    # `ove design` reads it, against its library entry point: run_design,
    # and for the fanout its efficiency.
    base = fanout_config(4, 0.05) if kind == "fanout" else canned_config(kind)
    cfg = replace(base, optimizer=replace(base.optimizer, max_iters=2))
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert main(["design", str(path), "--out", "d"]) == 0
    got = [float(ln.split(",")[1]) for ln in read_csv_lines(tmp_path / "d" / "loss.csv")[1:]]
    run, report = fanout_experiment(cfg.optimizer) if kind == "fanout" else run_design(cfg)
    assert got == [run.initial_loss, *run.loss_history]

    # The CLI and the experiment report the same numbers, exactly.
    rows = [ln.split(",") for ln in read_csv_lines(tmp_path / "d" / "coupling.csv")[1:]]
    after = np.zeros(run.coupling_after.shape)
    for t, i, _before, value in rows:
        after[int(t), int(i)] = float(value)
    assert after.tolist() == report.matrix.tolist()
    metrics = dict(ln.split(",") for ln in read_csv_lines(tmp_path / "d" / "metrics.csv")[1:])
    for name in ("diagonal_mean", "offdiag_mean", "worst_extinction_db"):
        got, want = float(metrics[name]), getattr(report, name)
        assert got == want or (math.isnan(got) and math.isnan(want)), name
    if kind == "fanout":
        # No target of a fanout counts as another input's crosstalk.
        assert (metrics["offdiag_mean"], metrics["worst_extinction_db"]) == ("nan", "inf")


class TestPropagate:
    def setup_volume(self, tmp_path) -> str:
        grid = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=grid, nz=4, dz=1.0, n0=1.5,
                          dn=np.zeros((32, 32, 4)))
        path = str(tmp_path / "v.ivol")
        export_volume(vol, path)
        return path

    def test_forward_pass_artifacts(self, tmp_path):
        vol = self.setup_volume(tmp_path)
        assert main(["propagate", "--volume", vol, "--source", "gaussian",
                     "--waist-um", "3.0", "--out", "p"]) == 0
        field = import_field(str(tmp_path / "p" / "output.cfield"))
        assert field.grid.nx == 32
        img = read_pgm(str(tmp_path / "p" / "output.pgm"))
        assert img.max() == 255

    def test_rerun_byte_identical(self, tmp_path):
        vol = self.setup_volume(tmp_path)
        args = ["propagate", "--volume", vol, "--source", "plane",
                "--theta-x-deg", "2.0"]
        main(args + ["--out", "a"])
        main(args + ["--out", "b"])
        assert read_bytes(tmp_path / "a" / "output.cfield") == \
            read_bytes(tmp_path / "b" / "output.cfield")

    def test_resolved_config_is_the_volume_that_ran(self, tmp_path):
        # The volume's geometry and bounds, not the config's design
        # defaults (64^2, n0 1.5, nz 48, dz 1.0, dn in [0, 0.05]); the
        # config's own keys stay. propagate on the file reruns the pass.
        grid = Grid2D(32, 32, 0.25, 0.5)
        dn = np.random.default_rng(3).uniform(-0.02, 0.03, (32, 32, 4))
        vol = IndexVolume(grid=grid, nz=4, dz=2.0, n0=1.6, dn=dn, dn_min=-0.02, dn_max=0.03)
        export_volume(vol, str(tmp_path / "v.ivol"))
        (tmp_path / "run.cfg").write_text("wavelength_um = 1.3\nelement.kind = layered\n"
                                          "grid.nx = 16\n", encoding="utf-8")
        args = ["propagate", "--volume", str(tmp_path / "v.ivol"), "--source", "gaussian"]
        assert main(args + [str(tmp_path / "run.cfg"), "--out", "p"]) == 0
        cfg = parse_config((tmp_path / "p" / "resolved.cfg").read_text(encoding="utf-8"))
        assert (cfg.element_kind, cfg.grid, cfg.n0, cfg.volume_nz, cfg.volume_dz_um,
                cfg.dn_min, cfg.dn_max) == ("volume", grid, 1.6, 4, 2.0, -0.02, 0.03)
        assert cfg.wavelength_um == 1.3
        assert main(args + [str(tmp_path / "p" / "resolved.cfg"), "--out", "q"]) == 0
        for name in ("resolved.cfg", "output.cfield"):
            assert read_bytes(tmp_path / "p" / name) == read_bytes(tmp_path / "q" / name)

    def test_missing_volume_exits_one(self, tmp_path, capsys):
        assert main(["propagate", "--volume", "nope.ivol", "--out", "p"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_layered_design_is_not_a_volume(self, tmp_path, capsys):
        # A layered design's artifact records its gaps; read as a volume
        # it would run a different element, so propagate refuses it.
        cfg = tmp_path / "layered.cfg"
        cfg.write_text("\n".join([
            "element.kind = layered", "grid.nx = 32", "grid.ny = 32",
            "layered.num_layers = 3", "layered.gap_um = 50.0",
            "task.kind = custom", "task.num_pairs = 2",
            "task.spot_ring_um = 3.0", "task.spot_radius_um = 1.5",
            "optimizer.max_iters = 2", "optimizer.step_size = 0.05",
        ]) + "\n", encoding="utf-8")
        assert main(["design", str(cfg), "--out", "d"]) == 0
        capsys.readouterr()
        path = str(tmp_path / "d" / "design.ivol")
        assert main(["propagate", "--volume", path, "--out", "p"]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: format 'layers-1' is not 'ivol-1'\n"
        assert not (tmp_path / "p").exists()


class TestHaarBank:
    def write_edge_image(self, tmp_path) -> str:
        img = np.zeros((21, 21), dtype=np.uint8)
        img[:10, :] = 255
        path = str(tmp_path / "edge.pgm")
        header = b"P5\n21 21\n255\n"
        with open(path, "wb") as fh:
            fh.write(header + img.ravel(order="F").tobytes())
        return path

    def test_all_kinds_match_oracle(self, tmp_path):
        image_path = self.write_edge_image(tmp_path)
        assert main(["haar-bank", "--image", image_path, "--out", "hb"]) == 0
        lines = read_csv_lines(tmp_path / "hb" / "haar_bank.csv")
        assert lines[0] == "kind,patch_x,patch_y,s_plus,s_minus,response"
        assert len(lines) == 1 + 4 * 49

        img = np.zeros((21, 21), dtype=np.int64)
        img[:10, :] = 255
        for kind in ("vertical", "horizontal", "diagonal", "uniform"):
            _, _, want = haar_bank_oracle(img, kind)
            rows = [ln.split(",") for ln in lines[1:] if ln.startswith(kind + ",")]
            got = np.zeros((7, 7))
            for _, i, j, _, _, resp in rows:
                got[int(i), int(j)] = float(resp)
            np.testing.assert_array_equal(got, want)

    def test_single_kind(self, tmp_path):
        image_path = self.write_edge_image(tmp_path)
        assert main(["haar-bank", "--image", image_path, "--kind", "vertical",
                     "--out", "hb"]) == 0
        lines = read_csv_lines(tmp_path / "hb" / "haar_bank.csv")
        assert len(lines) == 1 + 49

    def test_wrong_size_image_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "small.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n\x00\x01\x02\x03")
        assert main(["haar-bank", "--image", path, "--out", "hb"]) == 1
        assert "21x21" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["polish"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert main(["scaling", "--pitchfork", "3"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments(self, capsys):
        assert main([]) == 2


def test_artifact_digests_repeat(tmp_path, capsys):
    # Two runs of the digest script into two directories print the same
    # lines: one per artifact of the eight designs, eight propagations and
    # one holography run.
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "artifact_digests.py")
    loader = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    printed = []
    for name in ("a", "b"):
        assert script.main([str(tmp_path / name), "--grid", "16"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    paths = [line.split("  ", 1)[1] for line in printed[0].splitlines()]
    written = sum(len(files) for _, _, files in os.walk(tmp_path / "a"))
    assert len(paths) == len(set(paths)) == written
    assert {"volume-tv/design.ivol", "layered/design.ivol", "volume-zero-iters/coupling.csv",
            "volume-paraxial-gaussian/output.cfield",
            "volume-absorber-plane-tilted/output.cfield", "lantern/design.ivol",
            "haar-grin/design.ivol", "fanout/design.ivol",
            "holography/resolved.cfg"} <= set(paths)
