"""Propagation against analytic oracles: plane-wave phase, Gaussian beam
spreading, slab phase, GRIN self-imaging, thin-lens focusing, plus the
unitarity/reciprocity/linearity identities."""

import contextlib
import errno
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from ove import propagation
from ove.config import default_config
from ove.design import _adjoint_sweep, _gradient_per_step
from ove.fields import (
    ComplexField,
    Grid2D,
    IndexVolume,
    LayeredElement,
    normalize,
    overlap,
    power,
)
from ove.propagation import (
    EVANESCENT_POLICIES,
    TRANSFER_MODELS,
    PropagationSpec,
    absorber_mask,
    drift,
    drift_adjoint,
    element_chain,
    forward_sweep,
    free_space,
    propagate,
    transfer_function,
)
from ove.io import export_volume, import_volume
from ove.sources import gaussian, lp_modes, plane_wave
from testutil import (
    NO_ABSORBER,
    TWO_CPUS,
    UNITARY,
    Boom,
    allowed_cpus,
    band_limited_field,
    band_limited_phases,
    band_limited_volume,
    make_baselines,
    raise_on_call,
    record_binding,
    smooth_random_volume,
    traced_peak,
)

LAM = 1.55
# Absorber off and on.
WIDTHS = pytest.mark.parametrize("width", [0.0, 0.1], ids=["none", "absorber"])


def uniform_unit(grid, wavelength=LAM):
    vals = np.ones((grid.nx, grid.ny), complex)
    return normalize(ComplexField(grid, wavelength, vals))


# ---------------------------------------------------------------------------
# drift and its adjoint
# ---------------------------------------------------------------------------

def absorbed(u, mask):
    # The absorber as free_space and the kicks apply it: in place, after
    # the drift. A real mask is its own adjoint.
    if mask is not None:
        u *= mask
    return u


@WIDTHS
@pytest.mark.parametrize("policy", EVANESCENT_POLICIES)
@pytest.mark.parametrize("model", TRANSFER_MODELS)
def test_drift_adjoint_dot_product(model, policy, width):
    # <M drift(x, H), y> = <x, drift_adjoint(M y, conj(H))>, M the absorber
    # mask (the identity when the width is 0). At dx = 0.5 um the grid
    # corners are evanescent, and the absorber skirt covers the outermost
    # samples.
    grid = Grid2D(16, 16, 0.5, 0.5)
    h = transfer_function(grid, LAM, 1.5, 2.0, model, policy)
    mask = absorber_mask(grid, width)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    lhs = np.vdot(absorbed(drift(x, h), mask), y)
    rhs = np.vdot(x, drift_adjoint(absorbed(y.copy(), mask), np.conj(h)))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@WIDTHS
@pytest.mark.parametrize("step", [drift, drift_adjoint], ids=["drift", "adjoint"])
def test_drift_leaves_input_unchanged(step, width):
    # The spectrum, and then the output under the absorber, is worked on in
    # place; the input (a traced field or the caller's seed) must not be.
    grid = Grid2D(16, 16, 0.5, 0.5)
    spec = PropagationSpec(absorber_width=width)
    h = transfer_function(grid, LAM, 1.5, 2.0, spec.transfer_model, spec.evanescent_policy)
    x = random_complex((16, 16), 1)
    before = x.copy()
    out = absorbed(step(x, h), absorber_mask(grid, width))
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(out, x)


class CopyingTrace(list):
    """A trace that also keeps a copy of each field as it is appended."""

    def __init__(self):
        super().__init__()
        self.copies = []

    def append(self, u):
        self.copies.append(u.copy())
        super().append(u)


def sweep_designs():
    g = Grid2D(16, 16, 0.5, 0.5)
    vol = smooth_random_volume(g, nz=4, dz=1.0, seed=3)
    el = LayeredElement(grid=g, layers=tuple(band_limited_phases(g, 3, seed=4)),
                        gaps=(2.0, 0.0, 3.0), n_gap=1.0)
    return [(vol, PropagationSpec()), (vol, NO_ABSORBER), (el, PropagationSpec())]


@pytest.mark.parametrize("design,spec", sweep_designs(),
                         ids=["volume-absorber", "volume-fused", "layered"])
def test_forward_sweep_leaves_input_and_trace_unchanged(design, spec):
    steps = element_chain(design, design.grid, LAM, spec)
    values = random_complex((16, 16), 2)
    before = values.copy()
    trace = CopyingTrace()
    forward_sweep(steps, values, trace)
    np.testing.assert_array_equal(values, before)
    assert len(trace) == len(steps)
    for got, want in zip(trace, trace.copies):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("design,spec", sweep_designs(),
                         ids=["volume-absorber", "volume-fused", "layered"])
def test_forward_sweep_matches_new_array_products_bit_for_bit(design, spec, traced):
    # The sweep multiplies kicks in place where it can; each product must
    # carry the bits of kick * u formed in a new array.
    steps = element_chain(design, design.grid, LAM, spec)
    values = random_complex((16, 16), 3)
    u = values
    for pre, kick, post in steps:
        if pre is not None:
            u = drift(u, pre)
        u = kick * u
        if post is not None:
            u = drift(u, post)
    got = forward_sweep(steps, values, [] if traced else None)
    np.testing.assert_array_equal(got, u, strict=True)


@given(model=st.sampled_from(TRANSFER_MODELS), policy=st.sampled_from(EVANESCENT_POLICIES),
       width=st.one_of(st.just(0.0), st.floats(0.05, 0.3)),
       kind=st.sampled_from(["volume", "layered"]), count=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_chain_is_reciprocal(model, policy, width, kind, count, seed):
    # Every drift and kick is a symmetric operator, so the chain's
    # transpose is its steps walked backwards: sum b (A a) = sum a (A_rev b).
    # For a volume A_rev is the volume with its slices reversed; for a
    # layered element it is the step list reversed, pre and post swapped.
    grid = Grid2D(16, 16, 0.5, 0.5)
    spec = PropagationSpec(model, policy, width)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    if kind == "volume":
        dn = rng.uniform(0.0, 0.05, (16, 16, count))
        vol = IndexVolume(grid=grid, nz=count, dz=1.0, n0=1.5, dn=dn)
        fwd = propagate(vol, ComplexField(grid, LAM, a), spec).values
        back = propagate(vol.with_dn(dn[:, :, ::-1]), ComplexField(grid, LAM, b), spec).values
    else:
        el = LayeredElement(grid=grid, layers=tuple(rng.uniform(-np.pi, np.pi, (count, 16, 16))),
                            gaps=tuple(rng.choice([0.0, 1.0, 2.5], count)), n_gap=1.2)
        steps = element_chain(el, grid, LAM, spec)
        fwd = forward_sweep(steps, a)
        back = forward_sweep([(post, kick, pre) for pre, kick, post in reversed(steps)], b)
    lhs, rhs = np.sum(b * fwd), np.sum(a * back)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)


@WIDTHS
@pytest.mark.parametrize("kind", ["volume", "layered"])
def test_kicks_match_exp_formula_bit_for_bit(kind, width):
    # Kicks are filled by cos and sin; they must equal exp(1j * phase)
    # times the absorber factor (M^2 per slice, M per layer) to the bit,
    # phases of up to 1e4 rad included.
    grid = Grid2D(16, 16, 0.5, 0.5)
    spec = PropagationSpec(absorber_width=width)
    mask = absorber_mask(grid, width)
    rng = np.random.default_rng(11)
    if kind == "volume":
        dz, dn = 5e4, rng.uniform(0.0, 0.05, (16, 16, 5))  # k0 dz dn up to 1e4 rad
        design = IndexVolume(grid=grid, nz=5, dz=dz, n0=1.5, dn=dn)
        phase = np.moveaxis((2.0 * np.pi / LAM) * dz * dn, -1, 0)
        factor = 1.0 if mask is None else mask * mask
    else:
        phase = rng.uniform(-1e4, 1e4, (3, 16, 16))
        design = LayeredElement(grid=grid, layers=tuple(phase), gaps=(2.0, 0.0, 3.0))
        factor = 1.0 if mask is None else mask
    want = np.exp(1j * phase) * factor
    got = np.stack([kick for _, kick, _ in element_chain(design, grid, LAM, spec)])
    np.testing.assert_array_equal(got, want, strict=True)


@WIDTHS
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_kicks_do_not_depend_on_the_layout_of_dn(dtype, width):
    # Each kick is formed from its slice's phase rounded into a C-ordered
    # array, so C-ordered, F-ordered (as imported) and slice-major copies
    # of one volume give the same kicks, byte for byte: signed zeros, of
    # dn and of its sines, included. The grid is not square, so that a
    # transposed write could not pass.
    grid = Grid2D(16, 24, 0.5, 0.5)
    rng = np.random.default_rng(17)
    dn = rng.uniform(-0.05, 0.05, (16, 24, 5))
    dn[::3, ::2] = -0.0
    dn[1::3, ::2] = 0.0
    layouts = {
        "C": np.ascontiguousarray(dn),
        "F": np.asfortranarray(dn),
        "slice-major": np.moveaxis(np.ascontiguousarray(np.moveaxis(dn, -1, 0)), 0, -1),
    }
    spec = PropagationSpec(absorber_width=width)
    kicks = {}
    for name, values in layouts.items():
        design = IndexVolume(grid=grid, nz=5, dz=2.0, n0=1.5, dn=values, dn_min=-0.05)
        assert design.dn.flags.c_contiguous == (name == "C")
        assert design.dn.flags.f_contiguous == (name == "F")
        chain = element_chain(design, grid, LAM, spec, dtype=dtype)
        assert all(kick.flags.c_contiguous and kick.dtype == dtype for _, kick, _ in chain)
        kicks[name] = [kick.tobytes() for _, kick, _ in chain]
    assert np.signbit(np.stack([k for _, k, _ in chain]).imag).any()
    assert kicks["F"] == kicks["C"] and kicks["slice-major"] == kicks["C"]


@pytest.mark.filterwarnings("error")
def test_skirt_of_half_a_sample_or_less_is_no_absorber():
    # A skirt at most half a sample deep on every axis leaves every sample
    # at 1.0, so there is no mask, and a subnormal width divides nothing.
    # Half a sample of the 16-sample axis is a whole one of the 32-sample
    # axis, so that width shades it.
    grid = Grid2D(16, 32, 0.5, 0.5)
    for width in (5e-324, 1e-9, 0.5 / 32):
        assert absorber_mask(grid, width) is None
    assert np.min(absorber_mask(grid, 0.5 / 16)) < 1.0
    square = Grid2D(16, 16, 0.5, 0.5)
    f = band_limited_field(square, LAM, seed=12)
    vol = smooth_random_volume(square, nz=4, dz=1.0, seed=13)
    layered = LayeredElement(grid=square, layers=tuple(band_limited_phases(square, 3, seed=14)),
                             gaps=(2.0, 0.0, 3.0))
    for design in (vol, layered):
        want = propagate(design, f, NO_ABSORBER).values
        got = propagate(design, f, PropagationSpec(absorber_width=5e-324)).values
        np.testing.assert_array_equal(got, want, strict=True)


def eager_chain(design, grid, spec):
    # Reference chain with every kick of the design formed at once, as
    # exp(1j * phase) of one slice-major phase array.
    def transfer(n_medium, distance):
        return transfer_function(grid, LAM, n_medium, distance,
                                 spec.transfer_model, spec.evanescent_policy)

    mask = absorber_mask(grid, spec.absorber_width)
    if isinstance(design, IndexVolume):
        phase = (2.0 * np.pi / LAM) * design.dz * np.ascontiguousarray(np.moveaxis(design.dn, -1, 0))
        kicks = np.exp(1j * phase) * (1.0 if mask is None else mask * mask)
        h_half, h_full = transfer(design.n0, 0.5 * design.dz), transfer(design.n0, design.dz)
        last = design.nz - 1
        return [(h_half if k == 0 else None, kicks[k], h_half if k == last else h_full)
                for k in range(design.nz)]
    kicks = np.exp(1j * np.stack(design.layers)) * (1.0 if mask is None else mask)
    return [(None, kicks[k], transfer(design.n_gap, gap) if gap > 0 else None)
            for k, gap in enumerate(design.gaps)]


@pytest.mark.parametrize("model", TRANSFER_MODELS)
@WIDTHS
@pytest.mark.parametrize("kind", ["c-order", "f-order", "one-slice", "layered-zero-gap",
                                  "c-order-64", "layered-zero-gap-64",
                                  "c-order-80", "layered-zero-gap-80"])
def test_propagate_streams_the_listed_chain_bit_for_bit(kind, width, model, tmp_path):
    # propagate draws its steps lazily, one ahead on a worker thread on
    # the 80x80 grids and serially on the others, 64x64 just below the
    # threshold; its output must equal a sweep of the listed chain and of
    # the chain built all at once, to the bit, for either memory order of dn.
    n = int(kind.rsplit("-", 1)[1]) if kind[-1].isdigit() else 16
    grid = Grid2D(n, n, 0.5, 0.5)
    assert (n * n >= propagation._OVERLAP_MIN_SAMPLES) == (n == 80)
    spec = PropagationSpec(transfer_model=model, absorber_width=width)
    rng = np.random.default_rng(21)
    if kind.startswith("layered-zero-gap"):
        design = LayeredElement(grid=grid, layers=tuple(band_limited_phases(grid, 3, seed=22)),
                                gaps=(2.0, 0.0, 3.0), n_gap=1.2)
    else:
        nz = 1 if kind == "one-slice" else 5
        dn = rng.uniform(0.0, 0.05, (n, n, nz))
        design = IndexVolume(grid=grid, nz=nz, dz=2.0, n0=1.5, dn=dn)
        if kind == "f-order":
            export_volume(design, str(tmp_path / "v.ivol"))
            design = import_volume(str(tmp_path / "v.ivol"))
            assert design.dn.flags.f_contiguous and not design.dn.flags.c_contiguous
        else:
            assert design.dn.flags.c_contiguous
    f = band_limited_field(grid, LAM, seed=23)
    got = propagate(design, f, spec).values
    np.testing.assert_array_equal(got, forward_sweep(element_chain(design, grid, LAM, spec),
                                                     f.values))
    np.testing.assert_array_equal(got, forward_sweep(eager_chain(design, grid, spec), f.values))
    if kind == "f-order":
        c_order = design.with_dn(np.ascontiguousarray(design.dn))
        np.testing.assert_array_equal(got, propagate(c_order, f, spec).values)


def test_bad_design_raises_before_any_drift():
    # The builder checks at the call, not when the first step is drawn.
    grid = Grid2D(16, 16, 0.5, 0.5)
    vol = smooth_random_volume(grid, nz=4, dz=1.0, seed=3)
    other = gaussian(Grid2D(32, 16, 0.5, 0.5), LAM, waist_um=2.0)
    with pytest.raises(TypeError, match="cannot propagate through str"):
        propagation._iter_steps("volume", grid, LAM, PropagationSpec())
    with pytest.raises(ValueError, match="grid mismatch"):
        propagation._iter_steps(vol, other.grid, LAM, PropagationSpec())
    with mock.patch.object(propagation, "drift", wraps=propagation.drift) as spy:
        with pytest.raises(TypeError, match="cannot propagate through str"):
            propagate("volume", gaussian(grid, LAM, waist_um=2.0))
        with pytest.raises(ValueError, match="grid mismatch"):
            propagate(vol, other)
    assert spy.call_count == 0


def test_propagate_holds_one_kick_not_the_volumes():
    # A pass through an 80x80x64 volume adds a few (nx, ny) complex arrays
    # on top of the volume and the input field. It peaks at 5.1 fields
    # while a drift holds the field it reads and its new spectrum and the
    # worker thread forms the next kick: the kick, its float64 phase (half
    # a field) and about one field of numpy's buffers for the cos and sin
    # that fill its strided real and imaginary parts, beside the float64
    # absorber factor (half a field). The kick just applied is freed
    # before the drift. Six fields are allowed. Building every kick at
    # once adds >= 16 B per voxel (6.6 MB here). The caches are warmed
    # first: the transfer functions and the absorber are shared by every
    # pass on the grid.
    grid = Grid2D(80, 80, 0.5, 0.5)
    assert grid.nx * grid.ny >= propagation._OVERLAP_MIN_SAMPLES
    vol = IndexVolume(grid=grid, nz=64, dz=1.0, n0=1.5,
                      dn=np.random.default_rng(6).uniform(0.0, 0.05, (80, 80, 64)))
    f = gaussian(grid, LAM, waist_um=5.0)
    propagate(vol, f)
    _, peak = traced_peak(lambda: propagate(vol, f))
    field = grid.nx * grid.ny * 16
    assert peak < 6 * field, f"peak {peak / field:.2f} fields"


def test_steps_drawn_ahead_are_not_kept_once_handed_over():
    # The generator that draws each step on the worker keeps no reference
    # to a step it has handed over, so the caller frees a kick as soon as
    # it drops it, before it draws the next step.
    grid = Grid2D(16, 16, 0.5, 0.5)
    vol = smooth_random_volume(grid, nz=3, dz=1.0, seed=3)
    kicks = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for _, kick, _ in propagation._one_ahead(
                propagation._iter_steps(vol, grid, LAM, PropagationSpec()), pool):
            kicks.append(weakref.ref(kick))
            del kick
            assert kicks[-1]() is None
    assert len(kicks) == vol.nz


def overlapped_designs():
    # A volume and a layered element with a zero gap, both on a grid large
    # enough for propagate to form its kicks on a worker thread.
    grid = Grid2D(80, 80, 0.5, 0.5)
    assert grid.nx * grid.ny >= propagation._OVERLAP_MIN_SAMPLES
    vol = IndexVolume(grid=grid, nz=6, dz=1.0, n0=1.5,
                      dn=np.random.default_rng(31).uniform(0.0, 0.05, (80, 80, 6)))
    layered = LayeredElement(grid=grid, layers=tuple(band_limited_phases(grid, 3, seed=32)),
                             gaps=(2.0, 0.0, 3.0))
    return grid, vol, layered


@pytest.mark.parametrize("kind", ["volume", "layered"])
def test_no_thread_outlives_propagate(kind):
    # The worker thread lives only for the call: after a normal return,
    # and after a failure on either thread, which reaches the caller as
    # it was raised.
    grid, vol, layered = overlapped_designs()
    design = vol if kind == "volume" else layered
    f = band_limited_field(grid, LAM, seed=33)
    before = threading.active_count()
    propagate(design, f)
    assert threading.active_count() == before
    for name in ("_kick", "drift"):
        wrapper, seen = raise_on_call(getattr(propagation, name), 2)
        with mock.patch.object(propagation, name, wrapper):
            with pytest.raises(Boom, match="call 2"):
                propagate(design, f)
        assert len(seen) == 2, name  # the failure stopped the pass
        assert max(seen) > before, name  # a worker was running
        assert threading.active_count() == before, name


def test_drifts_and_lookups_stay_on_the_calling_thread():
    # Every FFT (each a call of the pocketfft binding), transfer lookup
    # and absorber lookup runs on the thread that calls propagate; only
    # the kicks are formed on the worker.
    def spy(module, name, threads):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        return mock.patch.object(module, name, wrapper)

    grid, vol, layered = overlapped_designs()
    f = band_limited_field(grid, LAM, seed=34)
    caller = threading.get_ident()
    for design in (vol, layered):
        threads = {}
        with contextlib.ExitStack() as stack:
            for name in ("_c2c", "transfer_function", "absorber_mask", "_kick"):
                stack.enter_context(spy(propagation, name, threads))
            propagate(design, f)
        kick_threads = threads.pop("_kick")
        assert threads == {name: {caller} for name in
                           ("_c2c", "transfer_function", "absorber_mask")}
        assert caller not in kick_threads


def assert_worker_left_out_its_callers_cpu(reads, bindings):
    """The calling thread read a CPU it may use, and the worker, another
    thread, bound itself to every other CPU the caller may use."""
    caller, allowed = threading.get_ident(), allowed_cpus()
    assert len(reads) == len(bindings) == 1
    (reader, cpu), (worker, pid, mask, after) = reads[0], bindings[0]
    assert reader == caller and worker != caller and pid == 0
    assert cpu in allowed and mask == after == allowed - {cpu}


def unbound(monkeypatch, how) -> list:
    """Leave propagate's worker unbound: os.sched_setaffinity raises
    OSError (each refused mask is appended to the list returned), is
    missing, or the caller's CPU cannot be read."""
    refused = []
    if how == "raises":
        def refuse(pid, mask):
            refused.append(set(mask))
            raise OSError(errno.EPERM, "not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    elif how == "missing":
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        def no_proc(path, *args):
            raise FileNotFoundError(errno.ENOENT, "no such file", path)

        monkeypatch.setattr(propagation, "open", no_proc, raising=False)
        assert propagation._caller_cpu() is None
    return refused


@TWO_CPUS
def test_caller_cpu_is_the_cpu_the_thread_runs_on():
    # A thread allowed only one CPU can run on no other, so that is the
    # one it must read. Each such thread is the test's own and ends here.
    read = {}

    def pinned(cpu):
        os.sched_setaffinity(0, {cpu})
        read[cpu] = propagation._caller_cpu()

    for cpu in allowed_cpus():
        thread = threading.Thread(target=pinned, args=(cpu,))
        thread.start()
        thread.join()
    assert read == {cpu: cpu for cpu in allowed_cpus()}


@TWO_CPUS
@pytest.mark.parametrize("failing", [None, "_kick", "drift"], ids=["returns", "worker-raises",
                                                                 "caller-raises"])
@pytest.mark.parametrize("kind", ["volume", "layered"])
def test_kick_worker_leaves_out_the_callers_cpu(monkeypatch, kind, failing):
    # propagate's worker binds itself to every CPU its caller may use but
    # the one the caller was on, so that the two threads do not share a
    # core; the caller's own affinity is never changed, whether the call
    # returns or raises on either thread.
    grid, vol, layered = overlapped_designs()
    design = vol if kind == "volume" else layered
    f = band_limited_field(grid, LAM, seed=35)
    reads, bindings = record_binding(monkeypatch)
    before = os.sched_getaffinity(0)
    if failing is None:
        propagate(design, f)
    else:
        wrapper, _ = raise_on_call(getattr(propagation, failing), 2)
        monkeypatch.setattr(propagation, failing, wrapper)
        with pytest.raises(Boom, match="call 2"):
            propagate(design, f)
    assert os.sched_getaffinity(0) == before
    assert_worker_left_out_its_callers_cpu(reads, bindings)


@TWO_CPUS
@pytest.mark.parametrize("how", ["raises", "missing", "unreadable"])
def test_unbound_kick_worker_gives_the_serial_bits(monkeypatch, how):
    # A worker that cannot be bound runs unbound, and the pass keeps the
    # serial loop's bits.
    grid, vol, layered = overlapped_designs()
    f = band_limited_field(grid, LAM, seed=36)
    refused = unbound(monkeypatch, how)
    for design in (vol, layered):
        threads = set()
        kick = propagation._kick

        def recorded(*args):
            threads.add(threading.get_ident())
            return kick(*args)

        monkeypatch.setattr(propagation, "_kick", recorded)
        got = propagate(design, f).values
        assert threading.get_ident() not in threads  # the kicks ran on the worker
        monkeypatch.setattr(propagation, "_kick", kick)
        want = forward_sweep(element_chain(design, grid, LAM, PropagationSpec()), f.values)
        np.testing.assert_array_equal(got, want, strict=True)
    assert len(refused) == (2 if how == "raises" else 0)


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")


def test_propagation_runs_on_scipy_fft():
    # One backend: free space, a forward sweep and an adjoint sweep call
    # the pocketfft binding behind scipy.fft twice per drift, one forward
    # transform and one inverse, and the public numpy.fft and scipy.fft
    # entries never.
    field = gaussian(Grid2D(16, 16, 0.5, 0.5), LAM, waist_um=2.0)
    vol = smooth_random_volume(field.grid, nz=4, dz=1.0, seed=3)
    steps = element_chain(vol, field.grid, LAM, PropagationSpec())
    _, grad_steps, scale = _gradient_per_step(vol, LAM)
    with contextlib.ExitStack() as stack:
        spies = {f"{module.__name__}.{name}": stack.enter_context(
                     mock.patch.object(module, name, wraps=getattr(module, name)))
                 for module in (np.fft, scipy.fft) for name in FFT_NAMES}
        binding = stack.enter_context(
            mock.patch.object(propagation, "_c2c", wraps=propagation._c2c))
        free_space(field, 5.0)
        trace = []
        out = forward_sweep(steps, field.values, trace)
        _adjoint_sweep(steps, trace, out, grad_steps, scale)
    drifts = 1 + (vol.nz + 1) + vol.nz  # free space, nz + 1 forward, nz adjoint
    assert {name: spy.call_count for name, spy in spies.items() if spy.call_count} == {}
    directions = [call.args[2] for call in binding.call_args_list]
    assert directions == [True, False] * drifts


def test_make_baselines_records_scipy_fft():
    assert make_baselines().fft_module() == "scipy.fft._pocketfft.pypocketfft"


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("shape", [(16, 16), (12, 20)], ids=["square", "12x20"])
@pytest.mark.parametrize("layout", ["C", "strided"])
@pytest.mark.parametrize("step", [drift, drift_adjoint])
def test_drift_is_public_scipy_fft_bit_for_bit(step, layout, shape, dtype):
    # The binding makes the very call scipy.fft.fft2 / ifft2 make, so a
    # drift equals the public pair to the last bit and leaves its input
    # alone. A scipy release that changes the private binding fails here.
    rng = np.random.default_rng(41)

    def draw(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(dtype)

    h = draw(shape)
    u = draw(shape) if layout == "C" else draw((2 * shape[0], 3 * shape[1]))[::2, ::3]
    assert u.flags.c_contiguous == (layout == "C")
    before = u.copy()
    out = step(u, h)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, scipy.fft.ifft2(scipy.fft.fft2(u) * h))
    np.testing.assert_array_equal(u, before)


# ---------------------------------------------------------------------------
# free_space
# ---------------------------------------------------------------------------

class TestFreeSpace:
    def test_zero_distance_is_identity(self):
        f = band_limited_field(Grid2D(32, 32, 0.5, 0.5), LAM, seed=0)
        out = free_space(f, 0.0, 1.0, UNITARY)
        np.testing.assert_array_equal(out.values, f.values)

    def test_negative_distance_rejected(self):
        f = uniform_unit(Grid2D(16, 16, 0.5, 0.5))
        with pytest.raises(ValueError):
            free_space(f, -1.0, 1.0, UNITARY)

    def test_plane_wave_ten_wavelengths(self):
        # Propagating 10 lambda adds the global phase exp(2 pi i * 10) = 1.
        f = uniform_unit(Grid2D(32, 32, 0.5, 0.5))
        out = free_space(f, 10.0 * LAM, 1.0, UNITARY)
        assert np.max(np.abs(out.values - f.values)) <= 1e-9

    @pytest.mark.parametrize("model", ["exact-nonparaxial", "fresnel-paraxial"])
    def test_gaussian_rayleigh_range(self, model):
        # After one Rayleigh range: width * sqrt(2), on-axis intensity / 2.
        w0 = 4.0 * LAM
        grid = Grid2D(128, 128, 0.5, 0.5)
        spec = PropagationSpec(transfer_model=model, evanescent_policy="keep",
                               absorber_width=0.0)
        src = gaussian(grid, LAM, waist_um=w0)
        z_r = math.pi * w0**2 / LAM
        out = free_space(src, z_r, 1.0, spec)

        xs, ys = grid.meshgrid()
        inten = np.abs(out.values) ** 2
        # 1/e^2 radius from the second moment: <r^2> = w^2 / 2 for a Gaussian.
        r2_mean = float((inten * (xs**2 + ys**2)).sum() / inten.sum())
        w_fit = math.sqrt(2.0 * r2_mean)
        assert w_fit == pytest.approx(w0 * math.sqrt(2.0), rel=0.01)

        i0_src = abs(src.values[64, 64]) ** 2
        i0_out = abs(out.values[64, 64]) ** 2
        assert i0_out / i0_src == pytest.approx(0.5, rel=0.01)

    def test_power_conserved(self):
        f = band_limited_field(Grid2D(64, 64, 0.5, 0.5), LAM, seed=7, k_fraction=0.4)
        out = free_space(f, 37.0, 1.0, UNITARY)
        assert abs(power(out) - power(f)) <= 1e-9

    def test_evanescent_zero_policy_dissipates(self):
        # White noise has super-critical components; policy "zero" drops them.
        rng = np.random.default_rng(0)
        g = Grid2D(32, 32, 0.5, 0.5)
        f = normalize(ComplexField(g, LAM, rng.standard_normal((32, 32)) + 0j))
        out = free_space(f, 5.0, 1.0, PropagationSpec(evanescent_policy="zero",
                                                      absorber_width=0.0))
        assert power(out) < power(f) - 1e-3

    def test_reciprocity_conjugate_roundtrip(self):
        f = band_limited_field(Grid2D(64, 64, 0.5, 0.5), LAM, seed=8, k_fraction=0.4)
        fwd = free_space(f, 21.0, 1.0, UNITARY)
        back = free_space(ComplexField(f.grid, LAM, np.conj(fwd.values)),
                          21.0, 1.0, UNITARY)
        assert np.max(np.abs(np.conj(back.values) - f.values)) <= 1e-9

    def test_linearity(self):
        g = Grid2D(48, 48, 0.5, 0.5)
        a = band_limited_field(g, LAM, seed=1)
        b = band_limited_field(g, LAM, seed=2)
        alpha, beta = 0.3 - 0.8j, 1.7 + 0.2j
        mix = ComplexField(g, LAM, alpha * a.values + beta * b.values)
        lhs = free_space(mix, 13.0, 1.0, UNITARY).values
        rhs = alpha * free_space(a, 13.0, 1.0, UNITARY).values \
            + beta * free_space(b, 13.0, 1.0, UNITARY).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# propagate through a volume (split-step BPM)
# ---------------------------------------------------------------------------

class TestBpm:
    def test_zero_volume_equals_free_space(self):
        g = Grid2D(64, 64, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=16, dz=1.0, n0=1.5, dn=np.zeros((64, 64, 16)))
        f = gaussian(g, LAM, waist_um=4.0)
        got = propagate(vol, f, NO_ABSORBER)
        want = free_space(f, 16.0, 1.5, NO_ABSORBER)
        assert np.max(np.abs(got.values - want.values)) <= 1e-10

    def test_uniform_slab_phase(self):
        g = Grid2D(64, 64, 0.5, 0.5)
        delta, nz, dz = 0.03, 16, 1.0
        vol = IndexVolume(grid=g, nz=nz, dz=dz, n0=1.5,
                          dn=np.full((64, 64, nz), delta))
        pw = plane_wave(g, LAM)
        got = propagate(vol, pw, UNITARY)
        want = free_space(pw, nz * dz, 1.5, UNITARY).values \
            * np.exp(1j * 2.0 * math.pi / LAM * delta * nz * dz)
        assert np.max(np.abs(got.values - want)) <= 1e-6

    def test_parabolic_grin_self_imaging(self):
        # n(r) = n0 (1 - A r^2 / 2); a beam matched to the parabolic duct
        # reproduces itself after one pitch P = 2 pi / sqrt(A).
        g = Grid2D(128, 128, 0.25, 0.25)
        n0, nz, dz = 1.5, 64, 0.5
        pitch = nz * dz
        a_coef = (2.0 * math.pi / pitch) ** 2
        w_mode = math.sqrt(LAM / (math.pi * n0 * math.sqrt(a_coef)))

        xs, ys = g.meshgrid()
        # Parabola clipped far outside the mode so dn stays moderate; the
        # beam at 4 w_mode is at exp(-16) and never sees the clip.
        r2 = np.minimum(xs**2 + ys**2, (4.0 * w_mode) ** 2)
        dn2d = -n0 * a_coef * r2 / 2.0
        dn = np.repeat(dn2d[:, :, None], nz, axis=2)
        vol = IndexVolume(grid=g, nz=nz, dz=dz, n0=n0, dn=dn,
                          dn_min=float(dn.min()), dn_max=0.0)

        mode = gaussian(g, LAM, waist_um=w_mode)
        out = propagate(vol, mode, UNITARY)
        assert abs(overlap(normalize(out), mode)) >= 0.99

    def test_step_index_fiber_guides_lp01(self):
        # The default fiber (V = 2.67) as a step-index volume, 200 um long:
        # LP01 must stay in itself and advance at its own n_eff. The pass
        # keeps |c|^2 = 0.99917 and is off by dn_eff = +3.7e-6.
        fiber = default_config().fiber
        g = Grid2D(64, 64, 0.5, 0.5)
        nz, dz = 200, 1.0
        lp01 = lp_modes(fiber, g)[0]
        xs, ys = g.meshgrid()
        core = np.where(np.hypot(xs, ys) <= fiber.core_radius_um, 0.006, 0.0)
        vol = IndexVolume(grid=g, nz=nz, dz=dz, n0=fiber.n_clad,
                          dn=np.repeat(core[:, :, None], nz, axis=2))
        c = overlap(lp01.field, propagate(vol, lp01.field, PropagationSpec(absorber_width=0.1)))
        k0L = 2.0 * math.pi / fiber.wavelength_um * nz * dz
        assert abs(c) ** 2 >= 0.999
        assert abs(np.angle(c * np.exp(-1j * lp01.n_eff * k0L)) / k0L) <= 1e-5

    def test_power_conserved_through_phase_screens(self):
        g = Grid2D(64, 64, 0.5, 0.5)
        vol = band_limited_volume(g, nz=16, dz=1.0, seed=3)
        f = band_limited_field(g, LAM, seed=8, k_fraction=0.3, n_medium=1.5)
        out = propagate(vol, f, UNITARY)
        assert abs(power(out) - power(f)) <= 1e-9

    def test_linearity(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = smooth_random_volume(g, nz=8, dz=1.0, seed=5)
        a = band_limited_field(g, LAM, seed=1)
        b = band_limited_field(g, LAM, seed=2)
        alpha, beta = 0.6 + 0.4j, -0.9 + 0.1j
        mix = ComplexField(g, LAM, alpha * a.values + beta * b.values)
        lhs = propagate(vol, mix, UNITARY).values
        rhs = alpha * propagate(vol, a, UNITARY).values \
            + beta * propagate(vol, b, UNITARY).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_dz_refinement_consistency(self):
        g = Grid2D(64, 64, 0.5, 0.5)
        coarse_vol = smooth_random_volume(g, nz=16, dz=1.0, seed=3)
        fine_vol = IndexVolume(grid=g, nz=32, dz=0.5, n0=1.5,
                               dn=np.repeat(coarse_vol.dn, 2, axis=2),
                               dn_min=0.0, dn_max=0.05)
        f = band_limited_field(g, LAM, seed=8, k_fraction=0.3, n_medium=1.5)
        coarse = propagate(coarse_vol, f, NO_ABSORBER)
        fine = propagate(fine_vol, f, NO_ABSORBER)
        ov = abs(overlap(normalize(coarse), normalize(fine)))
        assert abs(1.0 - ov) <= 1e-3

    def test_grid_mismatch_rejected(self):
        vol = smooth_random_volume(Grid2D(16, 16, 0.5, 0.5), nz=4, dz=1.0, seed=0)
        f = uniform_unit(Grid2D(16, 16, 0.25, 0.25))
        with pytest.raises(ValueError):
            propagate(vol, f, NO_ABSORBER)

    def test_deterministic(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = smooth_random_volume(g, nz=8, dz=1.0, seed=1)
        f = gaussian(g, LAM, waist_um=3.0)
        first = propagate(vol, f)
        second = propagate(vol, f)
        np.testing.assert_array_equal(first.values, second.values)


# ---------------------------------------------------------------------------
# propagate through a layered element
# ---------------------------------------------------------------------------

class TestLayered:
    def test_zero_phase_zero_gap_identity(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        el = LayeredElement(grid=g, layers=(np.zeros((32, 32)),), gaps=(0.0,))
        f = band_limited_field(g, LAM, seed=4)
        out = propagate(el, f, UNITARY)
        assert np.max(np.abs(out.values - f.values)) <= 1e-15

    def test_zero_phase_zero_gap_layer_applies_mask(self):
        # Under the absorber the layer's kick is M exp(i phase) and a zero
        # gap adds no drift, so the layer multiplies the field by M.
        g = Grid2D(32, 32, 0.5, 0.5)
        el = LayeredElement(grid=g, layers=(np.zeros((32, 32)),), gaps=(0.0,))
        f = band_limited_field(g, LAM, seed=4)
        spec = PropagationSpec()
        out = propagate(el, f, spec)
        np.testing.assert_array_equal(out.values,
                                      absorber_mask(g, spec.absorber_width) * f.values)

    def test_thin_lens_focus(self, baselines):
        # Same geometry as the recorded run; the encircled fraction must
        # clear 60% and reproduce both the package number and the direct
        # Rayleigh-Sommerfeld value frozen in the fixture.
        ref = baselines["thin_lens"]
        g = Grid2D(64, 64, 0.5, 0.5)
        f_len = ref["config"]["focal_length_um"]
        xs, ys = g.meshgrid()
        phase = -(2.0 * math.pi / LAM) * (xs**2 + ys**2) / (2.0 * f_len)
        el = LayeredElement(grid=g, layers=(phase,), gaps=(f_len,), n_gap=1.0)
        out = propagate(el, plane_wave(g, LAM), NO_ABSORBER)

        spot_radius = 1.22 * LAM * f_len / (g.nx * g.dx)
        inside = xs**2 + ys**2 <= (3.0 * spot_radius) ** 2
        inten = np.abs(out.values) ** 2
        fraction = float(inten[inside].sum() / inten.sum())

        assert fraction >= 0.6
        assert fraction == pytest.approx(ref["encircled_fraction_package"], abs=1e-9)
        assert ref["encircled_fraction_bruteforce"] >= 0.6
        # the independent integral agreed with the FFT propagator when recorded
        assert ref["oracle_overlap_with_fft"] >= 1.0 - 1e-6

    def test_two_layers_zero_gap_additive(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        rng = np.random.default_rng(11)
        p1 = rng.uniform(-math.pi, math.pi, (32, 32))
        p2 = rng.uniform(-math.pi, math.pi, (32, 32))
        two = LayeredElement(grid=g, layers=(p1, p2), gaps=(0.0, 0.0))
        one = LayeredElement(grid=g, layers=(p1 + p2,), gaps=(0.0,))
        f = band_limited_field(g, LAM, seed=5)
        a = propagate(two, f, UNITARY)
        b = propagate(one, f, UNITARY)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_power_conserved(self):
        g = Grid2D(64, 64, 0.5, 0.5)
        el = LayeredElement(grid=g, layers=tuple(band_limited_phases(g, 3, seed=10)),
                            gaps=(5.0, 5.0, 5.0), n_gap=1.0)
        f = band_limited_field(g, LAM, seed=9, k_fraction=0.3)
        out = propagate(el, f, UNITARY)
        assert abs(power(out) - power(f)) <= 1e-9

    def test_propagate_dispatch(self):
        g = Grid2D(16, 16, 0.5, 0.5)
        f = gaussian(g, LAM, waist_um=2.0)
        vol = smooth_random_volume(g, nz=4, dz=1.0, seed=2)
        el = LayeredElement(grid=g, layers=(np.zeros((16, 16)),), gaps=(4.0,))
        for design in (vol, el):
            steps = element_chain(design, g, LAM, PropagationSpec())
            assert np.array_equal(propagate(design, f).values, forward_sweep(steps, f.values))


# ---------------------------------------------------------------------------
# PropagationSpec validation
# ---------------------------------------------------------------------------

class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(transfer_model="angular"),
        dict(evanescent_policy="damp"),
        dict(absorber_width=float("nan")),
        dict(absorber_width=0.5),
        dict(absorber_width=-0.1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PropagationSpec(**kwargs)
