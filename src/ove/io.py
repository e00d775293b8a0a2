"""On-disk formats.

Volumes:  raw little-endian float32 dn voxels, x fastest, plus a
          ``<path>.meta`` sidecar of ``key=value`` lines (format ivol-1).
Layers:   raw little-endian float32 phases in radians, x fastest and
          layer slowest, same sidecar scheme with the gaps and the gap
          index (format layers-1). Write-only; ``import_volume`` rejects
          it, so a layered design cannot pass for a volume.
Fields:   raw little-endian float64 interleaved re/im, x fastest, same
          sidecar scheme (format cfield-1).
Renders:  binary 8-bit PGM (P5) of |field|, peak-normalized.
Tables:   CSV with a header row; floats written with repr so re-reading
          recovers the exact doubles.

Every write goes through a temp file in the target directory followed
by an atomic rename, so a crash cannot leave a half-written artifact.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
import os
import tempfile

import numpy as np

from .fields import ComplexField, Grid2D, IndexVolume, LayeredElement

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "export_volume",
    "import_volume",
    "export_layers",
    "export_field",
    "import_field",
    "render_field",
    "read_pgm",
    "write_csv",
]

VOLUME_FORMAT = "ivol-1"
LAYERS_FORMAT = "layers-1"
FIELD_FORMAT = "cfield-1"


# ---------------------------------------------------------------------------
# Atomic primitives
# ---------------------------------------------------------------------------

def atomic_write_bytes(path: str, data: bytes):
    """Write via temp file + rename in the destination directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Sidecar metadata
# ---------------------------------------------------------------------------

def _meta_path(path: str) -> str:
    return path + ".meta"


def _write_meta(path: str, entries: dict[str, object]):
    lines = [f"{k}={_meta_format(v)}" for k, v in entries.items()]
    atomic_write_text(_meta_path(path), "\n".join(lines) + "\n")


def _meta_format(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _read_meta(path: str) -> dict[str, str]:
    meta_file = _meta_path(path)
    if not os.path.exists(meta_file):
        raise ValueError(f"missing metadata sidecar {meta_file}")
    entries: dict[str, str] = {}
    with open(meta_file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{meta_file}:{lineno}: expected key=value, got {line!r}")
            k, _, v = line.partition("=")
            entries[k.strip()] = v.strip()
    return entries


def _meta_get(entries: dict[str, str], key: str, convert, path: str):
    if key not in entries:
        raise ValueError(f"metadata for {path} is missing key {key!r}")
    try:
        return convert(entries[key])
    except ValueError:
        raise ValueError(
            f"metadata for {path} has malformed {key}={entries[key]!r}"
        ) from None


# ---------------------------------------------------------------------------
# Index volumes (ivol-1)
# ---------------------------------------------------------------------------

def export_volume(volume: IndexVolume, path: str):
    """float32 little-endian voxels, x fastest, with sidecar geometry."""
    payload = volume.dn.astype("<f4").ravel(order="F").tobytes()
    atomic_write_bytes(path, payload)
    _write_meta(path, {
        "format": VOLUME_FORMAT,
        "nx": volume.grid.nx,
        "ny": volume.grid.ny,
        "nz": volume.nz,
        "dx_um": volume.grid.dx,
        "dy_um": volume.grid.dy,
        "dz_um": volume.dz,
        "n0": volume.n0,
        "dn_min": volume.dn_min,
        "dn_max": volume.dn_max,
    })


def import_volume(path: str) -> IndexVolume:
    """Inverse of export_volume; rejects wrong format, size, or bounds.

    The float32 payload is widened back to float64, so an export/import
    round trip of an already-written file is bit-identical. The widening
    is the copy that :class:`IndexVolume` keeps, so an import writes one
    float64 volume and peaks at 12 B per voxel: the payload and dn. Only
    a payload with voxels just outside the bounds, within float32
    rounding, is widened and clipped first; it is released before the
    copy, so that path peaks at 16 B per voxel.
    """
    meta = _read_meta(path)
    fmt = meta.get("format", "<absent>")
    if fmt != VOLUME_FORMAT:
        raise ValueError(f"{path}: format {fmt!r} is not {VOLUME_FORMAT!r}")
    nx = _meta_get(meta, "nx", int, path)
    ny = _meta_get(meta, "ny", int, path)
    nz = _meta_get(meta, "nz", int, path)
    dx = _meta_get(meta, "dx_um", float, path)
    dy = _meta_get(meta, "dy_um", float, path)
    dz = _meta_get(meta, "dz_um", float, path)
    n0 = _meta_get(meta, "n0", float, path)
    dn_min = _meta_get(meta, "dn_min", float, path)
    dn_max = _meta_get(meta, "dn_max", float, path)

    with open(path, "rb") as fh:
        payload = fh.read()
    expected = nx * ny * nz * 4
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} "
            f"for {nx}x{ny}x{nz} float32 voxels"
        )
    dn = np.frombuffer(payload, dtype="<f4").reshape((nx, ny, nz), order="F")
    if dn.size:
        # Widening is exact and keeps the order, so the float32 extremes
        # are the volume's. A NaN carries through min and max, and an
        # infinity is one of them.
        lo, hi = float(dn.min()), float(dn.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{path}: payload contains non-finite voxels")
        tol = 1e-7 + 1e-7 * max(abs(dn_min), abs(dn_max))  # float32 rounding slack
        if lo < dn_min - tol or hi > dn_max + tol:
            raise ValueError(
                f"{path}: voxels outside declared bounds [{dn_min}, {dn_max}]"
            )
        if lo < dn_min or hi > dn_max:
            dn = dn.astype(np.float64)
            np.clip(dn, dn_min, dn_max, out=dn)
            del payload  # before IndexVolume copies dn (see the docstring)
    grid = Grid2D(nx, ny, dx, dy)
    return IndexVolume(grid=grid, nz=nz, dz=dz, n0=n0, dn=dn,
                       dn_min=dn_min, dn_max=dn_max)


# ---------------------------------------------------------------------------
# Layered elements (layers-1)
# ---------------------------------------------------------------------------

def export_layers(element: LayeredElement, path: str):
    """float32 little-endian phases, x fastest and layer slowest, with
    the grid, the gaps and the gap index in the sidecar."""
    payload = np.stack(element.layers, axis=-1).astype("<f4").ravel(order="F").tobytes()
    atomic_write_bytes(path, payload)
    _write_meta(path, {
        "format": LAYERS_FORMAT,
        "nx": element.grid.nx,
        "ny": element.grid.ny,
        "num_layers": element.num_layers,
        "dx_um": element.grid.dx,
        "dy_um": element.grid.dy,
        "gaps_um": ",".join(repr(float(g)) for g in element.gaps),
        "n_gap": element.n_gap,
    })


# ---------------------------------------------------------------------------
# Complex fields (cfield-1)
# ---------------------------------------------------------------------------

def export_field(field: ComplexField, path: str):
    """float64 little-endian interleaved re/im, x fastest, plus sidecar."""
    flat = field.values.ravel(order="F")
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    atomic_write_bytes(path, inter.tobytes())
    _write_meta(path, {
        "format": FIELD_FORMAT,
        "nx": field.grid.nx,
        "ny": field.grid.ny,
        "dx_um": field.grid.dx,
        "dy_um": field.grid.dy,
        "wavelength_um": field.wavelength_um,
    })


def import_field(path: str) -> ComplexField:
    meta = _read_meta(path)
    fmt = meta.get("format", "<absent>")
    if fmt != FIELD_FORMAT:
        raise ValueError(f"{path}: format {fmt!r} is not {FIELD_FORMAT!r}")
    nx = _meta_get(meta, "nx", int, path)
    ny = _meta_get(meta, "ny", int, path)
    dx = _meta_get(meta, "dx_um", float, path)
    dy = _meta_get(meta, "dy_um", float, path)
    lam = _meta_get(meta, "wavelength_um", float, path)

    with open(path, "rb") as fh:
        payload = fh.read()
    expected = nx * ny * 16
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} "
            f"for {nx}x{ny} interleaved complex128"
        )
    inter = np.frombuffer(payload, dtype="<f8")
    vals = (inter[0::2] + 1j * inter[1::2]).reshape((nx, ny), order="F")
    if not np.all(np.isfinite(inter)):
        raise ValueError(f"{path}: payload contains non-finite samples")
    return ComplexField(Grid2D(nx, ny, dx, dy), lam, vals)


# ---------------------------------------------------------------------------
# PGM renders
# ---------------------------------------------------------------------------

def render_field(field: ComplexField, path: str):
    """8-bit P5 render of |field|, peak-normalized to 255.

    Raster rows run along y, columns along x, so the image is the
    natural view of the (nx, ny) array with x horizontal.
    """
    mag = np.abs(field.values)
    peak = mag.max()
    if peak <= 0:
        raise ValueError("degenerate field: cannot render all-zero magnitude")
    pix = np.round(255.0 * mag / peak).astype(np.uint8)
    header = f"P5\n{field.grid.nx} {field.grid.ny}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pix.ravel(order="F").tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Binary P5 reader returning an (nx, ny) array indexed [x, y].

    Supports maxval up to 255 and ``#`` comments in the header.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if pos > start:
            tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary P5 PGM")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header") from None
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:]
    if len(payload) != width * height:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {width * height}"
        )
    raster = np.frombuffer(payload, dtype=np.uint8).reshape((height, width))
    return raster.T.copy()  # [x, y]


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean CSV cells")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header: list[str], rows) -> None:
    """Header + rows, floats at full repr precision, atomic."""
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    atomic_write_text(path, buf.getvalue())
