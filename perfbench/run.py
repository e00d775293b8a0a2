#!/usr/bin/env python3
"""ove benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload lantern --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ove is imported from its ``src``. With
``--trace 0`` the run repeats the workload until ``--seconds`` have
passed, timing a set-up-only call and a numpy yardstick between
repetitions, then makes one untimed tracemalloc pass, and reports the
end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``
it spends half the time untraced and half traced, and reports the
per-layer metrics and the tracing overhead. The last stdout line is the
result object; earlier lines record the environment and notes. Results
and spans are also written under ``.perfbench-out/`` in the checkout.
``--iters`` overrides the optimizer iterations (or fields) per repetition.
"""

import argparse
import json
import os
import sys

# Set before numpy is imported: one BLAS/OpenMP thread keeps runs steady
# on a shared 2-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--iters", type=int, default=None)
    return ap.parse_args(argv)


def import_ove():
    """Import ove from this checkout's ``src``; fail if it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ove

    if not os.path.abspath(ove.__file__).startswith(src + os.sep):
        raise SystemExit(f"ove imported from {ove.__file__}, not from {src}")
    return ove


def environment(ove) -> dict:
    import platform

    import numpy
    import scipy
    import scipy.fft

    from tracing import Recorder

    # Which FFT library ove calls, observed on a tiny free-space step.
    probe = Recorder()
    probe.install_fft(numpy.fft, "numpy")
    probe.install_fft(scipy.fft, "scipy")
    probe.begin()
    try:
        grid = ove.Grid2D(8, 8, 0.5, 0.5)
        ove.free_space(ove.plane_wave(grid, 1.55), 1.0)
    finally:
        counts = probe.end()["counts"]
        probe.restore()
    backends = [b for b in ("numpy", "scipy") if counts.get(f"fft2d.{b}")]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "+".join(f"{b}.fft" for b in backends) or "unknown",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ove = import_ove()

    import measure
    from workloads import WORKLOADS, OptimizeProbe, fresh_dir

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    outdir = os.path.join(ROOT, ".perfbench-out", args.workload)
    workdir = os.path.join(outdir, "work")
    fresh_dir(workdir)

    env = environment(ove)
    print(json.dumps({"environment": env}))
    probe = OptimizeProbe()
    probe.install()
    workload = WORKLOADS[args.workload](args.seed, workdir, probe, args.iters)

    if args.trace:
        result, notes = measure.traced(ove, workload, args.seconds, spec["per_layer"], outdir,
                                       f"seed{args.seed}")
    else:
        result, notes = measure.untraced(workload, args.seconds, spec["end_to_end"])
    notes["environment"] = env
    notes["args"] = vars(args)
    path = os.path.join(outdir, f"seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, **notes}, fh, indent=1)
    for key in ("seconds", "problems", "absent", "counts", "missing_targets"):
        if notes.get(key):
            print(json.dumps({key: notes[key]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
