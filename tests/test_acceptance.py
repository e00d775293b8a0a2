"""Acceptance gate: the nine headline requirements, one test each.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or in the captured output of a failing run) and then asserts, so the
suite both reports and enforces. Heavy optimization runs are shared with
the rest of the suite through the session fixtures in conftest.
"""

import math

import numpy as np
import pytest

from ove.cli import main as cli_main
from ove.config import parse_config, serialize_config
from ove.design import LossSpec, evaluate
from ove.fields import ComplexField, Grid2D, IndexVolume, LayeredElement, MappingTask, overlap, power
from ove.interconnect import footprint_scaling, haar_filter_bank
from ove.io import atomic_write_bytes, export_field, export_volume, import_field, import_volume
from ove.propagation import free_space, propagate
from ove.sources import FiberSpec, gaussian, lp_modes, plane_wave
from testutil import (
    NO_ABSORBER,
    UNITARY,
    band_limited_field,
    band_limited_phases,
    band_limited_volume,
    haar_bank_oracle,
    smooth_random_volume,
)

LAM = 1.55


def report(num: int, description: str, checks: dict[str, bool]):
    verdict = "PASS" if all(checks.values()) else "FAIL"
    print(f"[{verdict}] criterion {num}: {description}")
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"criterion {num} failed: {failed}"


def fiber_with_v(v: float) -> FiberSpec:
    # Radius backed out of V = 2 pi a NA / lambda at the default indices.
    na = math.sqrt(1.45**2 - 1.444**2)
    return FiberSpec(core_radius_um=v * LAM / (2.0 * math.pi * na),
                     n_core=1.45, n_clad=1.444, wavelength_um=LAM)


def test_criterion_1_gradient_correctness():
    grid = Grid2D(16, 16, 0.5, 0.5)
    ins = [band_limited_field(grid, LAM, s, k_fraction=0.5) for s in (1, 2)]
    tgts = [band_limited_field(grid, LAM, s, k_fraction=0.5) for s in (3, 4)]
    task = MappingTask.from_fields(ins, tgts)
    spec = LossSpec(kind="mode-coupling")
    h = 1e-6

    vol = smooth_random_volume(grid, nz=8, dz=1.0, seed=5)
    adj = evaluate(vol, task, spec, NO_ABSORBER, with_gradient=True).grad
    rng = np.random.default_rng(0)
    worst_vol = 0.0
    for _ in range(20):
        v = tuple(int(rng.integers(0, s)) for s in adj.shape)
        dn_p, dn_m = vol.dn.copy(), vol.dn.copy()
        dn_p[v] += h
        dn_m[v] -= h
        mk = lambda dn: IndexVolume(grid=grid, nz=8, dz=1.0, n0=1.5, dn=dn,
                                    dn_min=-1.0, dn_max=1.0)
        fd = (evaluate(mk(dn_p), task, spec, NO_ABSORBER, with_gradient=False).loss
              - evaluate(mk(dn_m), task, spec, NO_ABSORBER, with_gradient=False).loss) / (2 * h)
        worst_vol = max(worst_vol, abs(fd - adj[v]) / max(abs(fd), abs(adj[v])))

    phases = band_limited_phases(grid, 3, seed=21, amplitude=0.8, k_cut=2.0)
    el = LayeredElement(grid=grid, layers=tuple(phases), gaps=(4.0, 4.0, 6.0))
    adj_el = evaluate(el, task, spec, NO_ABSORBER, with_gradient=True).grad
    rng = np.random.default_rng(1)
    worst_el = 0.0
    for _ in range(20):
        li, i, j = (int(rng.integers(0, s)) for s in adj_el.shape)
        plus = [p.copy() for p in el.layers]
        minus = [p.copy() for p in el.layers]
        plus[li][i, j] += h
        minus[li][i, j] -= h
        mk = lambda ls: LayeredElement(grid=grid, layers=tuple(ls), gaps=el.gaps)
        fd = (evaluate(mk(plus), task, spec, NO_ABSORBER, with_gradient=False).loss
              - evaluate(mk(minus), task, spec, NO_ABSORBER, with_gradient=False).loss) / (2 * h)
        worst_el = max(worst_el, abs(fd - adj_el[li, i, j])
                       / max(abs(fd), abs(adj_el[li, i, j])))

    report(1, "adjoint gradient matches finite differences to 1e-4", {
        f"volume worst rel err {worst_vol:.3g} <= 1e-4": worst_vol <= 1e-4,
        f"layered worst rel err {worst_el:.3g} <= 1e-4": worst_el <= 1e-4,
    })


def test_criterion_2_propagation_oracles():
    checks = {}

    w0 = 4.0 * LAM
    g = Grid2D(128, 128, 0.5, 0.5)
    src = gaussian(g, LAM, waist_um=w0)
    out = free_space(src, math.pi * w0**2 / LAM, 1.0, UNITARY)
    xs, ys = g.meshgrid()
    inten = np.abs(out.values) ** 2
    w_fit = math.sqrt(2.0 * float((inten * (xs**2 + ys**2)).sum() / inten.sum()))
    checks["Rayleigh width x sqrt(2) within 1%"] = \
        abs(w_fit - w0 * math.sqrt(2.0)) <= 0.01 * w0 * math.sqrt(2.0)
    ratio = abs(out.values[64, 64]) ** 2 / abs(src.values[64, 64]) ** 2
    checks["on-axis intensity halves within 1%"] = abs(ratio - 0.5) <= 0.005

    g64 = Grid2D(64, 64, 0.5, 0.5)
    delta, nz, dz = 0.03, 16, 1.0
    slab = IndexVolume(grid=g64, nz=nz, dz=dz, n0=1.5,
                       dn=np.full((64, 64, nz), delta))
    pw = plane_wave(g64, LAM)
    got = propagate(slab, pw, UNITARY)
    want = free_space(pw, nz * dz, 1.5, UNITARY).values \
        * np.exp(1j * 2.0 * math.pi / LAM * delta * nz * dz)
    checks["uniform slab phase within 1e-6"] = \
        float(np.max(np.abs(got.values - want))) <= 1e-6

    gf = Grid2D(128, 128, 0.25, 0.25)
    n0, nzg, dzg = 1.5, 64, 0.5
    a_coef = (2.0 * math.pi / (nzg * dzg)) ** 2
    w_mode = math.sqrt(LAM / (math.pi * n0 * math.sqrt(a_coef)))
    xsg, ysg = gf.meshgrid()
    r2 = np.minimum(xsg**2 + ysg**2, (4.0 * w_mode) ** 2)
    dn = np.repeat((-n0 * a_coef * r2 / 2.0)[:, :, None], nzg, axis=2)
    grin = IndexVolume(grid=gf, nz=nzg, dz=dzg, n0=n0, dn=dn,
                       dn_min=float(dn.min()), dn_max=0.0)
    mode = gaussian(gf, LAM, waist_um=w_mode)
    imaged = propagate(grin, mode, UNITARY)
    checks["GRIN self-imaging overlap >= 0.99"] = \
        abs(overlap(imaged, mode)) >= 0.99

    f = band_limited_field(g64, LAM, seed=7, k_fraction=0.4)
    drift_free = abs(power(free_space(f, 37.0, 1.0, UNITARY)) - power(f))
    fb = band_limited_field(g64, LAM, seed=8, k_fraction=0.3, n_medium=1.5)
    vol = band_limited_volume(g64, nz=16, dz=1.0, seed=3)
    drift_bpm = abs(power(propagate(vol, fb, UNITARY)) - power(fb))
    checks["power conservation 1e-9"] = max(drift_free, drift_bpm) <= 1e-9

    report(2, "free-space and BPM oracles", checks)


def test_criterion_3_holography_scaling(superposed_result, optimized_result):
    curve_opt, _ = optimized_result
    s_sup = superposed_result.fitted_log_slope
    s_opt = curve_opt.fitted_log_slope
    report(3, "superposed 1/M^2 vs optimized near-1/M efficiency", {
        f"superposed slope {s_sup:.3f} = -2.0 +- 0.2": abs(s_sup + 2.0) <= 0.2,
        f"optimized slope {s_opt:.3f} >= -1.3": s_opt >= -1.3,
        f"slopes differ by {s_opt - s_sup:.3f} >= 0.5": s_opt - s_sup >= 0.5,
    })


def test_criterion_4_footprint_scaling():
    exact = all(
        footprint_scaling(n, 1.0).elements_2d == n * n
        and footprint_scaling(n, 1.0).planes_3d == n
        for n in range(1, 1025)
    )
    printed = footprint_scaling(225, 20.0)
    report(4, "2D quadratic vs 3D linear element counts", {
        "elements_2d = n^2 and planes_3d = n for n in 1..1024": exact,
        "225 neurons at 20 um pitch fit a 300x300 um^2 plane":
            printed.footprint_3d_um2 == pytest.approx(300.0**2, rel=1e-12),
    })


def test_criterion_5_haar_bank_oracle():
    rng = np.random.default_rng(2024)
    kinds = ("vertical", "horizontal", "diagonal", "uniform")
    exact = True
    for k in range(100):
        img = rng.integers(0, 4096, size=(21, 21))
        kind = kinds[k % 4]
        got = haar_filter_bank(img, kind)
        _, _, want = haar_bank_oracle(img, kind)
        exact = exact and bool(np.array_equal(got.response, want))
    constant_null = all(
        not haar_filter_bank(np.full((21, 21), 9.0), kind).response.any()
        for kind in ("vertical", "horizontal", "diagonal")
    )
    report(5, "Haar filter bank equals the digital oracle", {
        "100 random integer images bit-exact": exact,
        "constant images give all-zero responses": constant_null,
    })


def test_criterion_6_lantern_toy(lantern_result, baselines):
    run, rep = lantern_result
    ref = baselines["lantern"]
    ratio = run.loss_history[-1] / run.initial_loss
    report(6, "two plane waves into LP01/LP11 on a 64x64x48 volume", {
        f"iterations {len(run.loss_history)} <= 500": len(run.loss_history) <= 500,
        f"loss ratio {ratio:.3f} <= 0.5": ratio <= 0.5,
        "diagonal_mean >= 2 x offdiag_mean":
            rep.diagonal_mean >= 2.0 * rep.offdiag_mean,
        "loss ratio within 5% of fixture":
            abs(ratio - ref["loss_ratio"]) <= 0.05 * ref["loss_ratio"],
        "diagonal_mean within 5% of fixture":
            abs(rep.diagonal_mean - ref["diagonal_mean"])
            <= 0.05 * ref["diagonal_mean"],
        "offdiag_mean within 5% of fixture":
            abs(rep.offdiag_mean - ref["offdiag_mean"])
            <= 0.05 * ref["offdiag_mean"],
    })


def test_criterion_7_lp_mode_solver():
    g = Grid2D(64, 64, 0.5, 0.5)
    single = lp_modes(fiber_with_v(1.0), g)
    few = lp_modes(fiber_with_v(5.0), g)
    got_groups = {(m.l, m.m) for m in few}
    worst = 0.0
    for i in range(len(few)):
        for j in range(i + 1, len(few)):
            worst = max(worst, abs(overlap(few[i].field, few[j].field)))
    report(7, "step-index LP mode solver", {
        "V=1 guides exactly LP01":
            [(m.l, m.m) for m in single] == [(0, 1)],
        "V=5 guides {LP01, LP11, LP21, LP02}":
            got_groups == {(0, 1), (1, 1), (2, 1), (0, 2)},
        f"pairwise |overlap| {worst:.2g} <= 1e-6": worst <= 1e-6,
    })


def test_criterion_8_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "grid.nx = 32", "grid.ny = 32", "volume.nz = 4",
        "task.kind = custom", "task.num_pairs = 2",
        "task.spot_ring_um = 3.0", "task.spot_radius_um = 1.5",
        "optimizer.max_iters = 3", "optimizer.step_size = 0.002",
    ]) + "\n", encoding="utf-8")

    identical = True
    cli_main(["design", str(cfg), "--out", "da"])
    cli_main(["design", str(cfg), "--out", "db"])
    for name in ("design.ivol", "loss.csv", "coupling.csv", "metrics.csv"):
        with open(tmp_path / "da" / name, "rb") as a, \
                open(tmp_path / "db" / name, "rb") as b:
            identical = identical and a.read() == b.read()

    cli_main(["holography", "--m", "1,2", "--out", "ha"])
    cli_main(["holography", "--m", "1,2", "--out", "hb"])
    for name in ("efficiency.csv", "metrics.csv"):
        with open(tmp_path / "ha" / name, "rb") as a, \
                open(tmp_path / "hb" / name, "rb") as b:
            identical = identical and a.read() == b.read()
    capsys.readouterr()  # swallow the config echoes

    report(8, "reruns with identical config and seed are byte-identical", {
        "design and holography artifacts match byte for byte": identical,
    })


def test_criterion_9_io_round_trips(tmp_path):
    checks = {}

    rng = np.random.default_rng(5)
    grid = Grid2D(8, 6, 0.5, 0.25)
    vol = IndexVolume(grid=grid, nz=4, dz=1.5, n0=1.48,
                      dn=rng.uniform(0, 0.05, (8, 6, 4)),
                      dn_min=0.0, dn_max=0.05)
    vpath = str(tmp_path / "v.ivol")
    export_volume(vol, vpath)
    back = import_volume(vpath)
    export_volume(back, str(tmp_path / "v2.ivol"))
    with open(vpath, "rb") as a, open(str(tmp_path / "v2.ivol"), "rb") as b:
        checks["volume round-trip bit-identical"] = a.read() == b.read()

    field = ComplexField(grid, LAM, rng.standard_normal((8, 6))
                         + 1j * rng.standard_normal((8, 6)))
    fpath = str(tmp_path / "f.cfield")
    export_field(field, fpath)
    checks["field round-trip bit-identical"] = \
        bool(np.array_equal(import_field(fpath).values, field.values))

    cfg = parse_config("grid.nx = 48\noptimizer.tv_weight = 0.125\n")
    checks["config round-trip identical"] = \
        parse_config(serialize_config(cfg)) == cfg

    with open(vpath, "rb") as fh:
        payload = fh.read()
    atomic_write_bytes(vpath, payload[:-4])
    try:
        import_volume(vpath)
        checks["truncated volume rejected"] = False
    except ValueError as exc:
        checks["truncated volume rejected"] = "expected" in str(exc)
    atomic_write_bytes(vpath, np.frombuffer(payload, dtype="<f4")
                       .byteswap().tobytes())
    try:
        import_volume(vpath)
        checks["byte-swapped volume rejected"] = False
    except ValueError as exc:
        checks["byte-swapped volume rejected"] = \
            "bounds" in str(exc) or "finite" in str(exc)
    atomic_write_bytes(vpath, payload)
    meta = vpath + ".meta"
    with open(meta, encoding="utf-8") as fh:
        sidecar = fh.read()
    with open(meta, "w", encoding="utf-8") as fh:
        fh.write(sidecar.replace("ivol-1", "ivol-3"))
    try:
        import_volume(vpath)
        checks["unknown version rejected by name"] = False
    except ValueError as exc:
        checks["unknown version rejected by name"] = "ivol-3" in str(exc)

    report(9, "binary and config formats round-trip and reject corruption", checks)
