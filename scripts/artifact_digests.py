#!/usr/bin/env python3
"""Run ``ove design``, ``ove propagate`` and ``ove holography`` on small
canned configs and print the sha256 of every artifact they write.

Usage: python3 scripts/artifact_digests.py OUTDIR [--grid N]

Eight designs run through ``cli.main``. Five are mode sorters: a volume
with the absorber on, a layered element, a volume with TV on, a volume
under the fresnel-paraxial model with ``absorber_width = 0``, and a
volume at ``optimizer.max_iters = 0``, whose artifacts all come from the
run's first evaluation. Each of these volume designs' ``design.ivol`` is
then run through ``ove propagate`` twice, with a tilted plane wave and
with a Gaussian. The other three are a lantern, a Haar-GRIN and a fanout
volume, so every task kind of ``experiments.design_task`` runs. One
``ove holography --m 1,2`` run writes the ``resolved.cfg`` of
``experiments.fanout_config``. Every file under OUTDIR is
printed as one ``sha256  path`` line, path relative to OUTDIR, in sorted
order. Nothing the CLI writes depends on wall-clock time, so two
checkouts that compute the same bits print the same lines, and comparing
them takes one ``diff``. The default grid of 96 x 96 samples is large
enough for ``propagate`` to form its kicks on a worker thread, and for
every design of two inputs or more (the sorters, the lantern and the
Haar-GRIN) to run each input's adjoint on a worker thread beside the
next input's forward sweep; the one-input fanout keeps the serial loop.
The window is 16 um whatever the grid.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ove import cli  # noqa: E402

GRID = """\
grid.nx = {n}
grid.ny = {n}
grid.dx_um = {dx!r}
grid.dy_um = {dx!r}
"""
# task.kind = custom is the 2-pair mode sorter; it needs no fiber-mode solve.
SORTER = "task.kind = custom\ntask.num_pairs = 2\ntask.spot_ring_um = 4.0\n"
# Each design gives its own budget, since a config refuses a key given twice.
ITERS = "optimizer.max_iters = 4\n"

# The designs that say ``element.kind = volume`` are also propagated.
DESIGNS = {
    "volume-absorber": SORTER + ITERS + "element.kind = volume\nvolume.nz = 12\n"
                                        "propagation.absorber_width = 0.1\n",
    "layered": SORTER + ITERS + "element.kind = layered\nlayered.num_layers = 3\n"
                                "layered.gap_um = 20.0\noptimizer.step_size = 0.05\n",
    "volume-tv": SORTER + ITERS + "element.kind = volume\nvolume.nz = 12\n"
                                  "optimizer.tv_weight = 0.001\n",
    "volume-paraxial": SORTER + ITERS + "element.kind = volume\nvolume.nz = 12\n"
                                        "propagation.transfer_model = fresnel-paraxial\n"
                                        "propagation.absorber_width = 0.0\n",
    "volume-zero-iters": SORTER + "optimizer.max_iters = 0\nelement.kind = volume\n"
                                  "volume.nz = 12\n",
    "lantern": ITERS + "task.kind = lantern\nvolume.nz = 12\n",
    "haar-grin": ITERS + "task.kind = haar-grin\nvolume.nz = 12\n",
    "fanout": ITERS + "task.kind = fanout\nvolume.nz = 12\n",
}

SOURCES = {
    "plane-tilted": ["--source", "plane", "--theta-x-deg", "1.5", "--theta-y-deg", "-0.5"],
    "gaussian": ["--source", "gaussian", "--waist-um", "4.0"],
}


def run_cli(argv: list[str]):
    """``cli.main(argv)`` with its config echo discarded; raise on failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ove {' '.join(argv)} exited with {code}")


def write_artifacts(outdir: str, n: int):
    for name, body in DESIGNS.items():
        design_dir = os.path.join(outdir, name)
        os.makedirs(design_dir, exist_ok=True)
        config = os.path.join(outdir, f"{name}.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(GRID.format(n=n, dx=16.0 / n) + body)
        run_cli(["design", config, "--out", design_dir])
        if "element.kind = volume" not in body:
            continue
        for source, args in SOURCES.items():
            run_cli(["propagate", config, "--volume", os.path.join(design_dir, "design.ivol"),
                     *args, "--out", os.path.join(outdir, f"{name}-{source}")])
    run_cli(["holography", "--m", "1,2", "--out", os.path.join(outdir, "holography")])


def digest_lines(outdir: str) -> list[str]:
    lines = []
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, outdir)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the artifacts (created if absent)")
    parser.add_argument("--grid", type=int, default=96, help="samples per grid axis")
    args = parser.parse_args(argv)
    write_artifacts(args.outdir, args.grid)
    print("\n".join(digest_lines(args.outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
