"""Spans and counters recorded around ove's public functions, from outside.

Nothing in ``ove`` knows it is being measured. Each layer boundary is a
public function; :class:`Recorder` replaces it, in every module namespace
that calls it, by a wrapper that records a span ``[name, start, end,
parent, repetition]``. Callers import these functions by name (``from
.propagation import drift_adjoint``), so wrapping only the defining
module would miss them: the patch table below lists each namespace.

FFTs are counted, not spanned, at the ``numpy.fft`` and ``scipy.fft``
entry points, so a layer's time still includes the transforms it runs.
A call counts one 2-D transform per 2-D plane of its input per pair of
transformed axes: ``fft2`` on an (nx, ny) field counts 1, on a (b, nx,
ny) batch b, and a 1-D ``fft`` over one axis of a field counts 1/2.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter

FFT_ENTRY_POINTS = ("fft2", "ifft2", "fftn", "ifftn", "fft", "ifft")

# Span name -> (module suffix or class, attribute) for every namespace
# that calls the function. Missing targets are reported, not fatal.
SPANS = {
    "sources.lp_modes": [("sources", "lp_modes"), ("experiments", "lp_modes"),
                         ("cli", "lp_modes")],
    "sources.fields": [("sources", "plane_wave"), ("sources", "spot_target"),
                       ("sources", "gaussian"), ("experiments", "plane_wave"),
                       ("experiments", "spot_target"), ("cli", "plane_wave"),
                       ("cli", "spot_target"), ("cli", "gaussian")],
    "fields.task": [("fields.MappingTask", "from_fields")],
    "fields.with_params": [("fields.IndexVolume", "with_dn"),
                           ("fields.LayeredElement", "with_layers")],
    "propagation.transfer_function": [("propagation", "transfer_function"),
                                      ("design", "transfer_function")],
    "propagation.drift": [("propagation", "drift")],
    "propagation.drift_adjoint": [("propagation", "drift_adjoint"),
                                  ("design", "drift_adjoint")],
    "propagation.bpm_pass": [("propagation", "bpm_with_trace"),
                             ("design", "bpm_with_trace")],
    "propagation.layered_pass": [("propagation", "layered_with_trace"),
                                 ("design", "layered_with_trace")],
    "design.loss": [("design", "loss")],
    "design.lg": [("design", "loss_and_gradient")],
    "design.optimize": [("design", "optimize"), ("experiments", "optimize"),
                        ("cli", "optimize")],
    "design.coupling": [("design", "coupling_matrix"),
                        ("experiments", "coupling_matrix")],
    "experiments.crosstalk": [("experiments", "crosstalk")],
    "io.write": [(mod, fn) for mod in ("io", "cli")
                 for fn in ("export_volume", "export_field", "render_field", "write_csv")],
    "io.read": [("io", "import_volume"), ("cli", "import_volume")],
    "cli.main": [("cli", "main")],
}

FORWARD_PASSES = ("propagation.bpm_pass", "propagation.layered_pass")


def fft2d_count(name: str, args, kwargs) -> float:
    """2-D transforms one FFT entry-point call performs (see module doc)."""
    shape = getattr(args[0], "shape", None) if args else None
    if shape is None or len(shape) == 0:
        return 0.0
    if name in ("fft", "ifft"):
        n_axes = 1
    elif name in ("fft2", "ifft2"):
        n_axes = len(kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1)))
    else:  # fftn / ifftn
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        n_axes = len(axes) if axes is not None else (len(s) if s is not None else len(shape))
    size = 1
    for d in shape:
        size *= d
    plane = shape[-2] * shape[-1] if len(shape) >= 2 else shape[-1]
    return (size / plane if plane else 0.0) * n_axes / 2.0


def _written_bytes(attr: str, args, kwargs) -> int:
    path = args[0] if attr == "write_csv" else (args[1] if len(args) > 1 else kwargs.get("path"))
    total = os.path.getsize(path)
    if attr in ("export_volume", "export_field"):
        total += os.path.getsize(path + ".meta")
    return total


class Recorder:
    """In-memory spans and counters for one traced run.

    ``recording`` gates every wrapper, so output checks made between
    repetitions leave no spans. ``install`` patches, ``restore`` undoes it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rep = -1
        self.recording = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._forward_depth = 0
        self._first_span = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self, ove, numpy_fft, scipy_fft):
        self.install_fft(numpy_fft, "numpy")
        self.install_fft(scipy_fft, "scipy")
        for span, targets in SPANS.items():
            for owner_path, attr in targets:
                owner = ove
                for part in owner_path.split("."):
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"ove.{owner_path}.{attr}")
                    continue
                self._patch(owner, attr, span)

    def install_fft(self, module, backend: str):
        for name in FFT_ENTRY_POINTS:
            original = getattr(module, name)
            self._patches.append((module, name, original))
            setattr(module, name, self._fft_wrapper(original, name, backend))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, span: str):
        static = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, static))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(self._span_wrapper(static.__func__, span, attr)))
        else:
            setattr(owner, attr, self._span_wrapper(static, span, attr))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, attr: str):
        spans, stack = self.spans, self._stack
        forward = name in FORWARD_PASSES
        writes = name == "io.write"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep]
            spans.append(record)
            stack.append(index)
            if forward:
                self._forward_depth += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if forward:
                    self._forward_depth -= 1
            if writes:
                self.counts["io.bytes"] += _written_bytes(attr, args, kwargs)
            return result

        return wrapper

    def _fft_wrapper(self, fn, name: str, backend: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                n = fft2d_count(name, args, kwargs)
                counts["fft2d"] += n
                counts[f"fft2d.{backend}"] += n
                if self._forward_depth:
                    counts["fft2d.forward"] += n
            return fn(*args, **kwargs)

        return wrapper

    # -- repetitions ------------------------------------------------------

    def begin(self):
        self.rep += 1
        self.counts.clear()
        self._first_span = len(self.spans)
        self.recording = True

    def end(self) -> dict:
        """Stop recording; per-span calls, inclusive and self seconds."""
        self.recording = False
        mine = self.spans[self._first_span:]
        base = self._first_span
        child = [0.0] * len(mine)
        for name, start, end, parent, _rep in mine:
            if parent >= base:
                child[parent - base] += end - start
        summary: dict[str, list] = {}
        for (name, start, end, _parent, _rep), inner in zip(mine, child):
            row = summary.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {"spans": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                          for k, v in summary.items()},
                "counts": dict(self.counts)}

    def write_spans(self, path: str):
        """One CSV line per span: name, start, end, parent index, repetition."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,rep\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, rep in self.spans:
                fh.write(f"{name},{start - t0!r},{end - t0!r},{parent},{rep}\n")
