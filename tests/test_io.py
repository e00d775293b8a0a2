"""File formats: ivol-1 volumes, layers-1 layered elements, cfield-1
fields, P5 renders, CSV tables.

Corruption cases (truncation, byte order, version skew) must all surface
as errors; silent acceptance of a damaged payload is the one unforgivable
failure mode here.
"""

import os

import numpy as np
import pytest

from ove.fields import ComplexField, Grid2D, IndexVolume, LayeredElement
from ove.io import (
    atomic_write_bytes,
    export_field,
    export_layers,
    export_volume,
    import_field,
    import_volume,
    read_pgm,
    render_field,
    write_csv,
)
from ove.sources import gaussian, plane_wave
from testutil import traced_peak

GRID = Grid2D(8, 6, 0.5, 0.25)


def sample_volume(value: float | None = None) -> IndexVolume:
    if value is None:
        rng = np.random.default_rng(7)
        dn = rng.uniform(0.0, 0.05, size=(8, 6, 4))
    else:
        dn = np.full((8, 6, 4), value)
    return IndexVolume(grid=GRID, nz=4, dz=1.5, n0=1.48, dn=dn,
                       dn_min=0.0, dn_max=0.05)


def sample_field(seed: int = 3) -> ComplexField:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    return ComplexField(GRID, 1.55, vals)


class TestVolumeFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        vol = sample_volume()
        path = str(tmp_path / "design.ivol")
        export_volume(vol, path)
        back = import_volume(path)
        # dn was quantized to float32 on the way out; a second round trip
        # through the file must reproduce those bytes exactly.
        np.testing.assert_array_equal(back.dn, vol.dn.astype("<f4").astype(float))
        export_volume(back, str(tmp_path / "again.ivol"))
        with open(path, "rb") as a, open(str(tmp_path / "again.ivol"), "rb") as b:
            assert a.read() == b.read()
        assert back.grid == vol.grid
        assert (back.nz, back.dz, back.n0) == (vol.nz, vol.dz, vol.n0)
        assert (back.dn_min, back.dn_max) == (vol.dn_min, vol.dn_max)

    def test_payload_layout_x_fastest_float32_le(self, tmp_path):
        vol = sample_volume()
        path = str(tmp_path / "v.ivol")
        export_volume(vol, path)
        with open(path, "rb") as fh:
            raw = np.frombuffer(fh.read(), dtype="<f4")
        assert raw.size == 8 * 6 * 4
        # x index advances fastest: first 8 entries are dn[:, 0, 0].
        np.testing.assert_array_equal(raw[:8], vol.dn[:, 0, 0].astype("<f4"))

    def test_sidecar_contents(self, tmp_path):
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(), path)
        with open(path + ".meta", encoding="utf-8") as fh:
            meta = dict(line.strip().split("=", 1) for line in fh if line.strip())
        assert meta["format"] == "ivol-1"
        assert (meta["nx"], meta["ny"], meta["nz"]) == ("8", "6", "4")
        assert float(meta["dz_um"]) == 1.5
        assert float(meta["n0"]) == 1.48

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(), path)
        with open(path, "rb") as fh:
            data = fh.read()
        atomic_write_bytes(path, data[:-4])
        with pytest.raises(ValueError, match="expected"):
            import_volume(path)

    def test_byte_swapped_payload_rejected(self, tmp_path):
        # A writer with the wrong endianness turns 0.025 into -4.3e8,
        # which the bound check must catch; silence would poison a run.
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(value=0.025), path)
        with open(path, "rb") as fh:
            swapped = np.frombuffer(fh.read(), dtype="<f4").byteswap().tobytes()
        atomic_write_bytes(path, swapped)
        with pytest.raises(ValueError, match="bounds|finite"):
            import_volume(path)

    def test_unknown_version_rejected_by_name(self, tmp_path):
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(), path)
        with open(path + ".meta", encoding="utf-8") as fh:
            meta = fh.read()
        with open(path + ".meta", "w", encoding="utf-8") as fh:
            fh.write(meta.replace("ivol-1", "ivol-2"))
        with pytest.raises(ValueError, match="ivol-2"):
            import_volume(path)

    def test_out_of_bounds_voxels_rejected(self, tmp_path):
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(), path)
        bad = np.full(8 * 6 * 4, 1.0, dtype="<f4")  # sidecar says [0, 0.05]
        atomic_write_bytes(path, bad.tobytes())
        with pytest.raises(ValueError, match="bounds"):
            import_volume(path)

    def test_bounds_rounded_out_by_float32_are_clipped(self, tmp_path):
        # float32(0.05) lies just above 0.05 and float32(-0.05) just below
        # -0.05; import clips them back onto the declared bounds and leaves
        # every other voxel at its widened float32 value.
        dn = np.random.default_rng(5).uniform(-0.05, 0.05, size=(8, 6, 4))
        dn[0, 0, 0], dn[1, 0, 0] = 0.05, -0.05
        vol = IndexVolume(grid=GRID, nz=4, dz=1.5, n0=1.48, dn=dn,
                          dn_min=-0.05, dn_max=0.05)
        path = str(tmp_path / "v.ivol")
        export_volume(vol, path)
        widened = dn.astype("<f4").astype(float)
        assert widened.max() > 0.05 and widened.min() < -0.05
        back = import_volume(path)
        np.testing.assert_array_equal(back.dn, np.clip(widened, -0.05, 0.05), strict=True)
        assert (back.dn[0, 0, 0], back.dn[1, 0, 0]) == (0.05, -0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_voxels_rejected(self, tmp_path, bad):
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(value=0.025), path)
        payload = np.full(8 * 6 * 4, 0.025, dtype="<f4")
        payload[17] = bad
        atomic_write_bytes(path, payload.tobytes())
        with pytest.raises(ValueError, match="payload contains non-finite voxels"):
            import_volume(path)

    def test_import_peaks_at_payload_and_one_copy(self, tmp_path):
        # IndexVolume widens the float32 payload in the one copy it keeps,
        # so the import holds at most the payload and dn (12 B per voxel),
        # not a widened dn and its copy on top of that (16 to 20 B).
        grid = Grid2D(64, 64, 0.5, 0.5)
        dn = np.random.default_rng(4).uniform(0.0, 0.05, size=(64, 64, 32))
        path = str(tmp_path / "v.ivol")
        export_volume(IndexVolume(grid=grid, nz=32, dz=1.0, n0=1.5, dn=dn), path)
        back, peak = traced_peak(lambda: import_volume(path))
        assert peak <= 1.5 * back.dn.nbytes + 64 * 1024, f"peak {peak} B"
        assert back.dn.flags.f_contiguous  # x fastest, as the payload

    def test_clipped_import_releases_the_payload_before_the_copy(self, tmp_path):
        # Voxels just outside the bounds, within float32 slack, are widened
        # and clipped onto the exact float64 bounds. The payload is released
        # before IndexVolume copies the clipped dn, so this path peaks at
        # 16 B per voxel, not 20.
        grid = Grid2D(64, 64, 0.5, 0.5)
        payload = np.random.default_rng(6).uniform(0.0, 0.05, size=(64, 64, 32))
        payload = payload.astype("<f4")
        payload[0, 0, 0] = np.nextafter(np.float32(0.05), np.float32(1.0))
        payload[1, 0, 0] = -np.float32(1e-8)
        assert payload[0, 0, 0] > 0.05 and payload[1, 0, 0] < 0.0
        path = str(tmp_path / "v.ivol")
        export_volume(IndexVolume(grid=grid, nz=32, dz=1.0, n0=1.5,
                                  dn=np.full((64, 64, 32), 0.025)), path)
        atomic_write_bytes(path, payload.ravel(order="F").tobytes())
        back, peak = traced_peak(lambda: import_volume(path))
        np.testing.assert_array_equal(
            back.dn, np.clip(payload.astype(np.float64), 0.0, 0.05), strict=True)
        assert (back.dn[0, 0, 0], back.dn[1, 0, 0]) == (0.05, 0.0)
        assert back.dn.flags.f_contiguous
        assert peak <= 2 * back.dn.nbytes + 64 * 1024, f"peak {peak} B"

    def test_missing_sidecar_rejected(self, tmp_path):
        path = str(tmp_path / "v.ivol")
        atomic_write_bytes(path, b"\x00" * 16)
        with pytest.raises(ValueError, match="sidecar"):
            import_volume(path)

    def test_incomplete_sidecar_rejected(self, tmp_path):
        path = str(tmp_path / "v.ivol")
        export_volume(sample_volume(), path)
        with open(path + ".meta", encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("nz=")]
        with open(path + ".meta", "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="nz"):
            import_volume(path)


class TestLayersFormat:
    def test_payload_and_sidecar(self, tmp_path):
        rng = np.random.default_rng(8)
        layers = tuple(rng.uniform(-np.pi, np.pi, size=(8, 6)) for _ in range(3))
        el = LayeredElement(grid=GRID, layers=layers, gaps=(40.0, 0.0, 12.5), n_gap=1.33)
        path = str(tmp_path / "el.layers")
        export_layers(el, path)
        with open(path, "rb") as fh:
            phases = np.frombuffer(fh.read(), dtype="<f4").reshape((8, 6, 3), order="F")
        np.testing.assert_array_equal(phases, np.stack(layers, axis=-1).astype("<f4"))
        with open(path + ".meta", encoding="utf-8") as fh:
            meta = dict(ln.strip().split("=", 1) for ln in fh if ln.strip())
        assert meta == {"format": "layers-1", "nx": "8", "ny": "6", "num_layers": "3",
                        "dx_um": "0.5", "dy_um": "0.25", "gaps_um": "40.0,0.0,12.5",
                        "n_gap": "1.33"}
        with pytest.raises(ValueError, match="format 'layers-1' is not 'ivol-1'"):
            import_volume(path)


class TestFieldFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        f = sample_field()
        path = str(tmp_path / "out.cfield")
        export_field(f, path)
        back = import_field(path)
        np.testing.assert_array_equal(back.values, f.values)
        assert back.grid == f.grid
        assert back.wavelength_um == f.wavelength_um

    def test_payload_interleaved_float64_le(self, tmp_path):
        f = sample_field()
        path = str(tmp_path / "out.cfield")
        export_field(f, path)
        with open(path, "rb") as fh:
            raw = np.frombuffer(fh.read(), dtype="<f8")
        assert raw.size == 2 * 8 * 6
        assert raw[0] == f.values[0, 0].real
        assert raw[1] == f.values[0, 0].imag
        assert raw[2] == f.values[1, 0].real  # x advances first

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "out.cfield")
        export_field(sample_field(), path)
        with open(path, "rb") as fh:
            data = fh.read()
        atomic_write_bytes(path, data[:-8])
        with pytest.raises(ValueError, match="expected"):
            import_field(path)

    def test_unknown_version_rejected_by_name(self, tmp_path):
        path = str(tmp_path / "out.cfield")
        export_field(sample_field(), path)
        with open(path + ".meta", encoding="utf-8") as fh:
            meta = fh.read()
        with open(path + ".meta", "w", encoding="utf-8") as fh:
            fh.write(meta.replace("cfield-1", "cfield-9"))
        with pytest.raises(ValueError, match="cfield-9"):
            import_field(path)

    def test_non_finite_samples_rejected(self, tmp_path):
        path = str(tmp_path / "out.cfield")
        export_field(sample_field(), path)
        bad = np.full(2 * 8 * 6, np.nan, dtype="<f8")
        atomic_write_bytes(path, bad.tobytes())
        with pytest.raises(ValueError, match="finite"):
            import_field(path)


class TestRender:
    def test_uniform_field_renders_white(self, tmp_path):
        g = Grid2D(16, 12, 0.5, 0.5)
        path = str(tmp_path / "flat.pgm")
        render_field(plane_wave(g, 1.55), path)
        img = read_pgm(path)
        assert img.shape == (16, 12)
        np.testing.assert_array_equal(img, np.full((16, 12), 255, dtype=np.uint8))

    def test_peak_normalization(self, tmp_path):
        g = Grid2D(32, 32, 0.5, 0.5)
        path = str(tmp_path / "spot.pgm")
        render_field(gaussian(g, 1.55, waist_um=2.0), path)
        img = read_pgm(path)
        assert img.max() == 255
        assert img[0, 0] == 0  # corner is far outside the waist

    def test_zero_field_rejected(self, tmp_path):
        g = Grid2D(8, 8, 0.5, 0.5)
        dark = ComplexField(g, 1.55, np.zeros((8, 8), dtype=complex))
        with pytest.raises(ValueError, match="degenerate field"):
            render_field(dark, str(tmp_path / "dark.pgm"))

    def test_p5_header_structure(self, tmp_path):
        g = Grid2D(8, 6, 0.5, 0.5)
        path = str(tmp_path / "hdr.pgm")
        render_field(plane_wave(g, 1.55), path)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"P5\n8 6\n255\n")
        assert len(data) == len(b"P5\n8 6\n255\n") + 8 * 6

    def test_read_pgm_accepts_comments(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        atomic_write_bytes(path, b"P5\n# made by hand\n2 2\n255\n\x00\x7f\xff\x01")
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 0] == 0 and img[1, 0] == 127
        assert img[0, 1] == 255 and img[1, 1] == 1

    def test_read_pgm_rejects_text_variant(self, tmp_path):
        path = str(tmp_path / "t.pgm")
        atomic_write_bytes(path, b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_read_pgm_rejects_short_payload(self, tmp_path):
        path = str(tmp_path / "s.pgm")
        atomic_write_bytes(path, b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError, match="expected"):
            read_pgm(path)

    def test_read_pgm_rejects_wide_maxval(self, tmp_path):
        path = str(tmp_path / "m.pgm")
        atomic_write_bytes(path, b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)


class TestCsv:
    def test_header_and_full_precision(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["m", "eta"], [[1, 0.1 + 0.2], [2, 1.0 / 3.0]])
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "m,eta"
        assert lines[1] == "1,0.30000000000000004"
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0

    def test_numpy_scalars_accepted(self, tmp_path):
        path = str(tmp_path / "np.csv")
        write_csv(path, ["a", "b"], [[np.int64(4), np.float64(0.5)]])
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "a,b\n4,0.5\n"


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "x.bin")
        atomic_write_bytes(path, b"payload")
        export_volume(sample_volume(), str(tmp_path / "v.ivol"))
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []

    def test_overwrite_is_clean(self, tmp_path):
        path = str(tmp_path / "x.bin")
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        with open(path, "rb") as fh:
            assert fh.read() == b"second"
