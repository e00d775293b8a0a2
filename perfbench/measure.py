"""Timing loops and metric assembly for one benchmark run."""

from __future__ import annotations

import dataclasses
import gc
import os
import statistics
import time
import tracemalloc

import numpy
import scipy.fft
from ove.propagation import absorber_mask, transfer_function

from tracing import Recorder

# Per-layer metrics read from one span: metric -> (span, quantity).
# ``incl`` is seconds inside the span per repetition, ``self`` the same
# minus the time its child spans cover, ``per_step`` calls per optimizer
# iteration (design) or per propagated field (propagate).
SPAN_METRICS = {
    "sources.lp_modes_s": ("sources.lp_modes", "incl"),
    "sources.fields_s": ("sources.fields", "incl"),
    "fields.task_s": ("fields.task", "incl"),
    "fields.with_params_s": ("fields.with_params", "incl"),
    "fields.with_params_calls": ("fields.with_params", "calls"),
    "propagation.tf_build_s": ("propagation.transfer_function", "incl"),
    "propagation.drift_us": ("propagation.drift", "us_per_call"),
    "propagation.drift_per_iter": ("propagation.drift", "per_step"),
    "propagation.drift_adjoint_us": ("propagation.drift_adjoint", "us_per_call"),
    "propagation.drift_adjoint_per_iter": ("propagation.drift_adjoint", "per_step"),
    "propagation.bpm_pass_ms": ("propagation.bpm_pass", "ms_per_call"),
    "propagation.layered_pass_ms": ("propagation.layered_pass", "ms_per_call"),
    "design.loss_per_iter": ("design.loss", "per_step"),
    "design.loss_s": ("design.loss", "incl"),
    "design.lg_per_iter": ("design.lg", "per_step"),
    "design.lg_s": ("design.lg", "incl"),
    "design.optimize_self_s": ("design.optimize", "self"),
    "design.coupling_s": ("design.coupling", "incl"),
    "experiments.crosstalk_s": ("experiments.crosstalk", "incl"),
    "io.write_s": ("io.write", "incl"),
    "io.read_s": ("io.read", "incl"),
    "cli.self_s": ("cli.main", "self"),
}

# Why a derived per-layer metric can read 0 on a workload.
DERIVED_ABSENT = {
    "propagation.tf_hit_ratio": "transfer_function is not called",
    "propagation.fft2d_per_iter": "no FFT entry point is called",
    "propagation.fft2d_per_field": "no forward BPM or layered pass runs",
    "propagation.fwd_passes_per_iter": "no forward BPM or layered pass runs",
    "design.accept_ratio": "design.loss is not called (no optimizer)",
    "design.trace_mb": "no adjoint trace is kept (forward passes only)",
    "io.bytes_written": "no io write function is called",
}


def cold():
    """Empty ove's caches, so each repetition pays what a fresh process pays."""
    transfer_function.cache_clear()
    absorber_mask.cache_clear()
    gc.collect()


class Outcomes:
    """Attempted and failed repetitions, and the artifact digest of the
    first one: later repetitions of the same seed must match it byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def run(self, workload, label: str, before=lambda: None, after_body=lambda: None):
        cold()
        before()
        self.attempted += 1
        try:
            rep = workload.repetition(after_body)
        except Exception as exc:  # a failed repetition is counted, not fatal
            after_body()
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if self.reference is None:
            self.reference = rep.digest
        elif rep.digest != self.reference:
            rep.problems.append("artifacts differ from the first repetition of this seed")
        if rep.problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in rep.problems]
        return rep

    def result(self, values: dict, spec: list[dict]) -> dict:
        names = [m["name"] for m in spec]
        if sorted(names) != sorted(values):
            raise SystemExit(f"computed metrics {sorted(values)} do not match BENCHMARK.json {names}")
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                            for m in spec}}


def repeat(outcomes: Outcomes, workload, seconds: float, label: str,
           before=lambda: None, after=lambda: None, between=lambda: None) -> list:
    """Repetitions until ``seconds`` have passed (at least one)."""
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(outcomes.run(workload, f"{label} {len(reps)}", before, after))
        between()
    return reps


class Yardstick:
    """The machine's current speed, measured without ove: seconds per
    numpy drift pair (FFT, transfer multiply, inverse FFT) on an n x n
    complex field, the unit of cost of a BPM pass. One sample takes
    about as long as 600 pairs at 64x64."""

    def __init__(self, n: int):
        rng = numpy.random.default_rng(0)
        self.h = numpy.exp(2j * numpy.pi * rng.random((n, n)))
        self.u = rng.standard_normal((n, n)) + 0j
        self.pairs = max(1, 600 * 64 * 64 // (n * n))
        self.samples: list[float] = []

    def sample(self):
        u, h = self.u, self.h
        start = time.perf_counter()
        for _ in range(self.pairs):
            u = numpy.fft.ifft2(h * numpy.fft.fft2(u))
        self.samples.append((time.perf_counter() - start) / self.pairs)


def completed(reps: list, problems: list[str]) -> list:
    done = [r for r in reps if r is not None]
    if not done:
        raise SystemExit("no repetition completed: " + "; ".join(problems))
    return done


def untraced(workload, seconds: float, spec: list[dict]):
    """Timed repetitions, with a set-up-only call and a yardstick sample
    between them, then one tracemalloc pass."""
    outcomes = Outcomes()
    setups = []
    yardstick = Yardstick(workload.grid_n)

    def between():
        cold()
        setups.append(workload.setup_only())
        yardstick.sample()

    between()
    reps = repeat(outcomes, workload, seconds, "rep", between=between)
    completed(reps, outcomes.problems)
    # Each repetition is divided by the yardstick samples just before and
    # after it: the host's speed drifts by up to 2x over seconds to
    # minutes, and the repetition and the yardstick slow down together.
    samples = yardstick.samples
    timed = [(r, (a + b) / 2) for r, a, b in zip(reps, samples, samples[1:]) if r is not None]

    tracemalloc.start()
    try:
        outcomes.run(workload, "tracemalloc pass")
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    steps = sum(r.steps for r, _ in timed)
    values = {
        "setup_s": statistics.median(setups + [r.setup_s for r, _ in timed]),
        "wall_pairs": statistics.fmean(r.wall_s / pair for r, pair in timed),
        "step_pairs": sum(r.step_s / pair for r, pair in timed) / steps,
        "loss_ratio": statistics.median(r.loss_ratio for r, _ in timed),
        "peak_mb": peak / 1e6,
        "pass_frac": 1.0 - outcomes.failed / outcomes.attempted,
    }
    notes = {"problems": outcomes.problems,
             "seconds": {"wall_s": statistics.fmean(r.wall_s for r, _ in timed),
                         "steps_per_s": steps / sum(r.step_s for r, _ in timed),
                         "yardstick_pair_us": statistics.fmean(samples) * 1e6,
                         "reps": len(timed)},
             "setup_samples": setups,
             "yardstick_pair_s": samples,
             "reps": [dataclasses.asdict(r) for r, _ in timed]}
    return outcomes.result(values, spec), notes


def layer_values(summary: dict, rep, workload, tf_info) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def get(span, key):
        return spans.get(span, {}).get(key, 0 if key == "calls" else 0.0)

    def quantity(span, kind):
        calls = get(span, "calls")
        if kind == "calls":
            return calls
        if kind in ("incl", "self"):
            return get(span, f"{kind}_s")
        if kind == "per_step":
            return calls / rep.steps
        scale = 1e6 if kind == "us_per_call" else 1e3
        return get(span, "incl_s") / calls * scale if calls else 0.0

    values = {name: quantity(*src) for name, src in SPAN_METRICS.items()}
    forward = get("propagation.bpm_pass", "calls") + get("propagation.layered_pass", "calls")
    lookups = tf_info.hits + tf_info.misses
    loss_calls = get("design.loss", "calls")
    values.update({
        "propagation.tf_hit_ratio": tf_info.hits / lookups if lookups else 0.0,
        "propagation.fft2d_per_iter": counts.get("fft2d", 0.0) / rep.steps,
        "propagation.fft2d_per_field": counts.get("fft2d.forward", 0.0) / forward if forward else 0.0,
        "propagation.fwd_passes_per_iter": forward / rep.steps,
        "design.accept_ratio": rep.steps / loss_calls if loss_calls else 0.0,
        "design.trace_mb": workload.trace_mb,
        "io.bytes_written": counts.get("io.bytes", 0.0),
    })
    return values


def raw_counts(summary: dict, rep, workload) -> dict:
    """Totals of one traced repetition, for comparing against known counts."""
    spans, counts = summary["spans"], summary["counts"]
    calls = {name: row["calls"] for name, row in spans.items()}
    lg = calls.get("design.lg", 0)
    return {"steps": rep.steps,
            "forward_passes": calls.get("propagation.bpm_pass", 0)
            + calls.get("propagation.layered_pass", 0),
            "lg_calls_x_pairs": lg * workload.pairs,
            "fft2d": counts.get("fft2d", 0.0),
            "fft2d.numpy": counts.get("fft2d.numpy", 0.0),
            "fft2d.scipy": counts.get("fft2d.scipy", 0.0),
            "calls": calls}


def traced(ove, workload, seconds: float, spec: list[dict], outdir: str, tag: str):
    """Half the time untraced, half traced; per-layer medians and overhead."""
    outcomes = Outcomes()
    plain = completed(repeat(outcomes, workload, seconds / 2, "untraced"), outcomes.problems)

    recorder = Recorder()
    recorder.install(ove, numpy.fft, scipy.fft)
    summaries, tf_infos = [], []

    def after():
        if recorder.recording:  # once per repetition, even when it raised
            summaries.append(recorder.end())
            tf_infos.append(transfer_function.cache_info())

    try:
        reps = repeat(outcomes, workload, seconds / 2, "traced", recorder.begin, after)
    finally:
        recorder.restore()
    recorder.write_spans(os.path.join(outdir, f"{tag}-spans.csv"))

    done = [(r, s, t) for r, s, t in zip(reps, summaries, tf_infos) if r is not None]
    completed([r for r, _, _ in done], outcomes.problems)
    rows = [layer_values(s, r, workload, t) for r, s, t in done]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    overhead = (statistics.fmean(r.wall_s for r, _, _ in done)
                - statistics.fmean(r.wall_s for r in plain))
    values["trace.overhead_s"] = overhead

    absent = {name: f"{SPAN_METRICS[name][0]} is not called"
              for name in SPAN_METRICS if values[name] == 0}
    absent.update({name: why for name, why in DERIVED_ABSENT.items() if values[name] == 0})
    notes = {"problems": outcomes.problems,
             "absent": {name: f"{why} on the {workload.name} workload"
                        for name, why in sorted(absent.items())},
             "counts": raw_counts(done[0][1], done[0][0], workload),
             "missing_targets": recorder.missing,
             "overhead_s": overhead,
             "spans": [s["spans"] for _, s, _ in done]}
    return outcomes.result(values, spec), notes
