"""CPU energy measurement: native forward-pass workloads metered via RAPL.

The workloads are NumPy float32 kernels (``WORKLOAD_DTYPE``, PyTorch's default
dtype), with every input and weight drawn directly in that dtype. A large
weight is drawn in pieces on every CPU in the process's affinity, each piece
from the seed's PCG64 stream jumped ahead to its start, so its bytes are those
of one sequential draw. Under a one-CPU affinity, as in a ``pin_to_cpu``
measurement, whose machine builds the workload while pinned, it is drawn on
the calling thread, and no drawing thread outlives ``init_weights``.

The protocol per configuration: the measured host, a machine, runs as many
forward passes as fit in a fixed window and meters that window, reading its
energy counters at the window's start and end; the energy is normalized by
the pass count. This repeats up to three times and the per-pass energies are
averaged; repeats whose counter reads fail are dropped. The machine is
``RaplMachine`` (the package counters, real workloads and the wall clock) by
default, or one passed in, so the protocol is testable without hardware.
``SimulatedMachine`` fills a window in vectorised steps over the same jitter
draws as per-pass stepping, so the result is the same to the bit.

The delta (``energy_delta``) allows at most one wrap per window, so a window
whose energy reaches a counter range (about 262 kJ for RAPL, 65,532 J
simulated) reads low by whole ranges; ROADMAP item 1 reads between passes.
"""
from __future__ import annotations

import glob
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arch import (
    KIND_SPECS,
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    conv_output_side,
    standalone_input_shape,
)
from .errors import (
    AllRepeatsFailedError,
    ConcurrentMeasurementError,
    RaplUnavailableError,
    ShapeError,
    ValidationError,
)

POWERCAP_ROOT_ENV = "JOULECAST_POWERCAP_ROOT"
DEFAULT_POWERCAP_ROOT = "/sys/class/powercap"

#: dtype of every metered workload's input and weights
WORKLOAD_DTYPE = np.float32


# ---------------------------------------------------------------------------
# forward-pass kernels (reference semantics, deterministic weights)
# ---------------------------------------------------------------------------

# Size of the im2col column buffer that conv2d_forward reuses for every block.
_COLUMN_BLOCK_BYTES = 64 << 20


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Convolution (cross-correlation) with zero padding, as im2col + GEMM.

    The windows of the padded input are copied, a block at a time, into one
    reused ``(c_in*k*k, rows*out_w)`` column buffer per sample, and one matmul
    with the flattened weight writes each block straight into the NCHW output.
    A block holds whole samples when one sample fits ``_COLUMN_BLOCK_BYTES``,
    otherwise as many output rows of one sample as fit (at least one row).
    """
    batch, c_in, h, w = x.shape
    c_out, c_in_w, k, _ = weight.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv weight expects {c_in_w} channels, input has {c_in}")
    out_h = conv_output_side(h, k, padding, stride)
    out_w = conv_output_side(w, k, padding, stride)
    padded = x
    if padding:
        padded = np.zeros((batch, c_in, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
    # (batch, c_in, k, k, out_h, out_w): the column matrix of every sample, as a view
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)
    depth = c_in * k * k
    block = _COLUMN_BLOCK_BYTES // x.itemsize
    if depth * out_h * out_w <= block:
        samples, rows = min(batch, block // (depth * out_h * out_w)), out_h
    else:
        samples, rows = 1, max(1, block // (depth * out_w))
    buffer = np.empty(samples * depth * rows * out_w, dtype=x.dtype)
    flat_weight = weight.reshape(c_out, depth)
    out = np.empty((batch, c_out, out_h, out_w), dtype=x.dtype)
    out_planes = out.reshape(batch, c_out, out_h * out_w)
    for b0 in range(0, batch, samples):
        b1 = min(b0 + samples, batch)
        for r0 in range(0, out_h, rows):
            r1 = min(r0 + rows, out_h)
            n, width = b1 - b0, (r1 - r0) * out_w
            columns = buffer[: n * depth * width].reshape(n, depth, width)
            np.copyto(columns.reshape(n, c_in, k, k, r1 - r0, out_w), windows[b0:b1, ..., r0:r1, :])
            np.matmul(flat_weight, columns, out=out_planes[b0:b1, :, r0 * out_w : r1 * out_w])
    out += bias[:, None, None]
    return out


def maxpool2d_forward(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Window max with -inf padding (every window overlaps the real input)."""
    batch, channels, h, w = x.shape
    out_h = conv_output_side(h, kernel, padding, stride)
    out_w = conv_output_side(w, kernel, padding, stride)
    padded = x
    if padding:
        padded = np.full((batch, channels, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
    out = np.full((batch, channels, out_h, out_w), -np.inf, dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            window = padded[
                :, :, ki : ki + (out_h - 1) * stride + 1 : stride, kj : kj + (out_w - 1) * stride + 1 : stride
            ]
            np.maximum(out, window, out=out)
    return out


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return x @ weight.T + bias


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def softmax_forward(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def adaptive_avg_pool_forward(x: np.ndarray, output_size: int) -> np.ndarray:
    batch, channels, h, w = x.shape
    out = np.empty((batch, channels, output_size, output_size), dtype=x.dtype)
    for i in range(output_size):
        y0, y1 = (i * h) // output_size, -(-(i + 1) * h // output_size)
        for j in range(output_size):
            x0, x1 = (j * w) // output_size, -(-(j + 1) * w // output_size)
            out[:, :, i, j] = x[:, :, y0:y1, x0:x1].mean(axis=(2, 3))
    return out


@dataclass(frozen=True)
class _Kernel:
    """One kind's forward pass ``(config, x, weights) -> y`` and, for weighted
    kinds, its weight tensor shape (the bias has one entry per output)."""

    forward: Callable[[LayerConfig, np.ndarray, dict], np.ndarray]
    weight_shape: Callable[[LayerConfig], tuple[int, ...]] | None = None


_KERNELS: dict[LayerKind, _Kernel] = {
    LayerKind.CONV2D: _Kernel(
        lambda c, x, w: conv2d_forward(x, w["weight"], w["bias"], c.stride, c.padding),
        lambda c: (c.out_channels, c.in_channels, c.kernel_size, c.kernel_size),
    ),
    LayerKind.MAXPOOL2D: _Kernel(lambda c, x, w: maxpool2d_forward(x, c.kernel_size, c.stride, c.padding)),
    LayerKind.LINEAR: _Kernel(
        lambda c, x, w: linear_forward(x, w["weight"], w["bias"]),
        lambda c: (c.out_channels, c.in_channels),
    ),
    LayerKind.RELU: _Kernel(lambda c, x, w: relu_forward(x)),
    LayerKind.SIGMOID: _Kernel(lambda c, x, w: sigmoid_forward(x)),
    LayerKind.TANH: _Kernel(lambda c, x, w: tanh_forward(x)),
    LayerKind.SOFTMAX: _Kernel(lambda c, x, w: softmax_forward(x)),
    LayerKind.ADAPTIVE_AVG_POOL: _Kernel(lambda c, x, w: adaptive_avg_pool_forward(x, c.output_size)),
    LayerKind.DROPOUT: _Kernel(lambda c, x, w: x),  # identity at inference
    LayerKind.FLATTEN: _Kernel(lambda c, x, w: x.reshape(x.shape[0], -1)),
}


#: weight arrays with fewer elements than this are drawn on the calling thread
_PARALLEL_ELEMENTS = 1 << 20
#: elements drawn and scaled at a time, so that a block is scaled while still in cache
_DRAW_BLOCK = 1 << 16


def _draw_workers() -> int:
    """CPUs this process may run on: one weight-drawing thread each."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _uniform_blocks(rng: np.random.Generator, out: np.ndarray, scale: float) -> None:
    """Fill the flat ``out`` from ``rng``, uniform on +-``scale``: the values and
    the stream position of ``u = rng.random(out.size); u *= 2*scale; u -= scale``."""
    for i in range(0, out.size, _DRAW_BLOCK):
        block = out[i : i + _DRAW_BLOCK]
        rng.random(out=block, dtype=out.dtype)
        block *= 2 * scale
        block -= scale


def _draw_uniform(out: np.ndarray, seed: int, scale: float) -> np.random.Generator:
    """Fill the flat ``out`` as ``_uniform_blocks(default_rng(seed), out, scale)``
    does, split into one piece per CPU, and return a generator left where that
    sequential draw leaves its stream.

    Each piece starts at an even element: a float32 takes half of one 64-bit
    PCG64 output and a float64 a whole one, so a piece's generator is the seed's
    stream advanced by ``start // per_draw`` outputs. Helper threads draw every
    piece but the last, which the calling thread draws; its generator then ends
    where the sequential stream does, an odd float32 tail's unused upper half
    still buffered. All helpers are joined before this returns, and the first
    exception raised in any piece is raised here.
    """
    n = out.size
    workers = _draw_workers() if n >= _PARALLEL_ELEMENTS else 1
    step = 2 * -(-n // (2 * workers))
    starts = range(0, n, step)
    per_draw = 8 // out.itemsize
    errors = []

    def fill(start):
        rng = np.random.Generator(np.random.PCG64(seed).advance(start // per_draw))
        _uniform_blocks(rng, out[start : start + step], scale)
        return rng

    def helper(start):
        try:
            fill(start)
        except BaseException as exc:
            errors.append(exc)

    helpers = []
    try:
        for start in starts[:-1]:
            thread = threading.Thread(target=helper, args=(start,))
            thread.start()
            helpers.append(thread)
        rng = fill(starts[-1])
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return rng


def init_weights(config: LayerConfig, seed: int = 0, dtype=WORKLOAD_DTYPE) -> dict[str, np.ndarray]:
    """Deterministic weight tensors, uniform on +-1/sqrt(fan-in) and drawn in
    ``dtype`` in place (no float64 temporary); in float64 the draw is the
    same as ``rng.uniform(-scale, scale, shape)``.

    The values are those of one sequential draw from ``default_rng(seed)``,
    the weight and then the bias, byte for byte. A weight of at least
    ``_PARALLEL_ELEMENTS`` is drawn in pieces on every CPU in the process's
    affinity (``_draw_uniform``), so under a one-CPU affinity, as in a pinned
    measurement, it is drawn on the calling thread alone. No thread outlives
    the call.
    """
    weight_shape = _KERNELS[config.kind].weight_shape
    if weight_shape is None:
        return {}
    shape = weight_shape(config)
    scale = 1.0 / math.sqrt(math.prod(shape[1:]))  # 1/sqrt(fan-in); a Python float keeps the dtype
    weight = np.empty(shape, dtype=dtype)
    rng = _draw_uniform(weight.reshape(-1), seed, scale)
    bias = np.empty(shape[0], dtype=dtype)
    _uniform_blocks(rng, bias, scale)
    return {"weight": weight, "bias": bias}


def forward_workload(config: LayerConfig, x: np.ndarray, weights: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """One forward pass through a standalone module: NCHW input for spatial
    kinds, (batch, in_channels) for flat ones; the weights are ``init_weights``
    of seed 0 in the input's dtype unless given."""
    spec = KIND_SPECS[config.kind]
    if not spec.predictable:
        raise ValidationError(f"{config.kind.value} has no standalone workload")
    if spec.spatial and x.ndim != 4:
        raise ShapeError(f"{config.kind.value} expects a 4-d input, got {x.ndim}-d")
    if not spec.spatial and (x.ndim != 2 or x.shape[1] != config.in_channels):
        raise ShapeError(f"{config.kind.value} expects (batch, {config.in_channels}), got {x.shape}")
    if weights is None:
        weights = init_weights(config, 0, x.dtype)
    return _KERNELS[config.kind].forward(config, x, weights)


def make_workload(config: LayerConfig, seed: int = 0):
    """Closure running one forward pass and returning its output; input and
    weights allocated once."""
    shape = standalone_input_shape(config)
    dims = (shape.batch, shape.channels, shape.height, shape.width)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dims if KIND_SPECS[config.kind].spatial else dims[:2], dtype=WORKLOAD_DTYPE)
    weights = init_weights(config, seed)

    def run():
        return forward_workload(config, x, weights)

    return run


def make_architecture_workload(arch: ArchitectureSpec, batch_size: int, seed: int = 0):
    """Closure running one forward pass through the whole architecture."""
    spec = arch.with_batch(batch_size)
    rng = np.random.default_rng(seed)
    shape = spec.input_shape
    x0 = rng.standard_normal((shape.batch, shape.channels, shape.height, shape.width), dtype=WORKLOAD_DTYPE)
    steps = [
        (_KERNELS[layer.kind].forward, layer, init_weights(layer, seed + i))
        for i, layer in enumerate(spec.layers)
    ]

    def run():
        x = x0
        for forward, layer, weights in steps:
            x = forward(layer, x, weights)
        return x

    return run


# ---------------------------------------------------------------------------
# RAPL counters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RaplDomain:
    name: str
    counter_path: str
    max_range_uj: int


class CounterReadError(RuntimeError):
    pass


def powercap_root() -> str:
    return os.environ.get(POWERCAP_ROOT_ENV, DEFAULT_POWERCAP_ROOT)


def discover_rapl_domains() -> list[RaplDomain]:
    """The readable top-level package domains under ``powercap_root()``; a
    non-ASCII name or a range that is not a positive integer is unreadable."""
    domains = []
    for path in sorted(glob.glob(os.path.join(powercap_root(), "intel-rapl:[0-9]*"))):
        if ":" in os.path.basename(path).split("intel-rapl:", 1)[1]:
            continue  # subdomain like intel-rapl:0:0
        try:
            with open(os.path.join(path, "name"), "r", encoding="ascii") as fh:
                name = fh.read().strip()
            with open(os.path.join(path, "max_energy_range_uj"), "r", encoding="ascii") as fh:
                max_range = int(fh.read().strip())
        except (OSError, ValueError):  # unreadable, non-ASCII or not an integer
            continue
        if not name.startswith("package") or max_range <= 0:
            continue
        domains.append(RaplDomain(name, os.path.join(path, "energy_uj"), max_range))
    return domains


def read_energy(domain: RaplDomain) -> int:
    """Current counter value in microjoules."""
    try:
        with open(domain.counter_path, "r", encoding="ascii") as fh:
            return int(fh.read().strip())
    except (OSError, ValueError) as exc:
        raise CounterReadError(f"{domain.counter_path}: {exc}") from exc


def energy_delta(before: int, after: int, max_range: int) -> int:
    """Counter difference accounting for at most one wraparound."""
    return (after - before + max_range) % max_range


class RaplMachine:
    """The host itself: the summed package domains' counters, real forward-pass
    workloads and the wall clock. It warns when built, once per measurement,
    if the load average says other processes' energy will leak in."""

    def __init__(self):
        self.domains = discover_rapl_domains()
        if not self.domains:
            raise RaplUnavailableError(
                f"no readable RAPL package domains under {powercap_root()} "
                "(missing powercap support or insufficient permissions)"
            )
        try:
            self.read_uj()
        except CounterReadError as exc:
            raise RaplUnavailableError(f"RAPL counters not readable: {exc}") from exc
        if hasattr(os, "getloadavg"):
            load = os.getloadavg()[0]
            cpus = os.cpu_count() or 1
            if load > 0.5 * cpus:
                warnings.warn(
                    f"load average {load:.2f} on {cpus} CPUs; concurrent work will contaminate readings",
                    UserWarning,
                    stacklevel=3,  # the caller of measure_config
                )

    @property
    def domain_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.domains)

    def read_uj(self) -> tuple[int, ...]:
        return tuple(read_energy(d) for d in self.domains)

    def workload(self, config: LayerConfig | ArchitectureSpec, macs: int, seed: int):
        """The closure running one forward pass through ``config``, at its own batch."""
        if isinstance(config, ArchitectureSpec):
            return make_architecture_workload(config, config.input_shape.batch, seed)
        return make_workload(config, seed)

    def run_window(self, workload, window_seconds: float) -> tuple[int, float, int]:
        """(passes, elapsed seconds, microjoules summed over the domains) of a wall-clock window."""
        before = self.read_uj()
        passes, elapsed = _run_window(workload, time.monotonic, window_seconds)
        after = self.read_uj()
        return passes, elapsed, sum(energy_delta(b, a, d.max_range_uj) for b, a, d in zip(before, after, self.domains))


#: most simulated passes a window advances in one vectorised step, and the
#: normals drawn at a time for those steps
_CHUNK_PASSES = 4096
#: a window with at most this many passes left steps them one at a time: a
#: vectorised step costs about as much as that many scalar ones
_SCALAR_PASSES = 8


class SimulatedMachine:
    """Deterministic stand-in for a measured host: a virtual clock advanced by
    each forward pass, and an energy counter (``read_uj``, one "simulated"
    domain) integrating constant package power over that clock. Its workload
    is a pass's base time: a pass of ``macs`` MACs takes ``macs / mac_rate``
    seconds times the seeded jitter ``max(1 + noise * z, 0.1)``, one standard
    normal ``z`` per pass.

    ``run_window`` advances a whole measurement window in vectorised steps of
    up to ``_CHUNK_PASSES`` passes (one pass at a time when at most
    ``_SCALAR_PASSES`` are left) over the same draws, in the same order, as
    per-pass stepping, so its pass count and clock are the same to the bit: the
    normals are drawn through a buffer whose unused draws stay at its front for
    the next pass.
    """

    #: the counter wraps to 0 here, as a package domain's ``max_energy_range_uj``
    max_range_uj = 65_532_610_987
    domain_names = ("simulated",)

    def __init__(self, mac_rate: float = 5e9, power_w: float = 20.0, noise: float = 0.01, seed: int = 0):
        self.mac_rate = mac_rate
        self.power_w = power_w
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self._normals = np.empty(0)  # drawn normals; those from index _used on are unused
        self._used = 0
        self._t = 0.0

    def clock(self) -> float:
        return self._t

    def read_uj(self) -> tuple[int, ...]:
        return (int(self.power_w * self._t * 1e6) % self.max_range_uj,)

    def workload(self, config: LayerConfig | ArchitectureSpec, macs: int, seed: int) -> float:
        """The seconds one pass of ``macs`` MACs takes before jitter."""
        return max(macs, 1) / self.mac_rate

    def run_pass(self, base: float) -> None:
        """One pass of ``base`` seconds before jitter."""
        if self._used < self._normals.size:
            z = float(self._normals[self._used])
            self._used += 1
        else:
            z = self._rng.standard_normal()
        self._t += base * max(1.0 + self.noise * z, 0.1)

    def run_window(self, base: float, window_seconds: float) -> tuple[int, float, int]:
        """Passes of ``base`` seconds until ``window_seconds`` have elapsed:
        (passes, elapsed seconds, microjoules between the counter's reads at
        the window's start and end), as per-pass stepping gives them."""
        start = self._t
        before = self.read_uj()[0]
        passes = 0
        while True:
            # the unjittered passes left plus two, as jitter may need more; unused draws stay buffered
            n = int(min(_CHUNK_PASSES, (window_seconds - (self._t - start)) / base + 2))
            if n <= _SCALAR_PASSES:
                self.run_pass(base)
                passes += 1
                elapsed = self._t - start
            else:
                if self._normals.size - self._used < n:
                    fresh = self._rng.standard_normal(_CHUNK_PASSES)
                    self._normals = np.concatenate((self._normals[self._used :], fresh))
                    self._used = 0
                times = np.maximum(1.0 + self.noise * self._normals[self._used : self._used + n], 0.1)
                times *= base
                times[0] += self._t
                times.cumsum(out=times)  # sequential, so each entry is the clock after repeated +=
                over = times - start
                k = min(int(over.searchsorted(window_seconds)), n - 1)  # the pass that fills the window
                self._used += k + 1
                self._t = float(times[k])
                passes += k + 1
                elapsed = float(over[k])
            if elapsed >= window_seconds:
                return passes, elapsed, energy_delta(before, self.read_uj()[0], self.max_range_uj)


# ---------------------------------------------------------------------------
# measurement protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepeatResult:
    passes: int
    elapsed_s: float
    energy_j: float
    long_pass: bool  # a single pass exceeded the window

    @property
    def energy_per_pass_j(self) -> float:
        return self.energy_j / self.passes


@dataclass(frozen=True)
class ProbeResult:
    config: LayerConfig | ArchitectureSpec
    window_seconds: float
    repeats: tuple[RepeatResult, ...]
    failed_repeats: int = 0
    domains: tuple[str, ...] = ()  # energy counter domains that were summed

    @property
    def energy_per_pass_j(self) -> float:
        return float(sum(r.energy_per_pass_j for r in self.repeats) / len(self.repeats))


_measure_lock = threading.Lock()


def _run_window(workload, clock, window_seconds: float) -> tuple[int, float]:
    """Forward passes until ``window_seconds`` have elapsed on ``clock``: (passes, elapsed seconds)."""
    start = clock()
    passes = 0
    while True:
        workload()
        passes += 1
        elapsed = clock() - start
        if elapsed >= window_seconds:
            return passes, elapsed


def measure_config(
    config: LayerConfig | ArchitectureSpec,
    macs: int,
    window_seconds: float = 30.0,
    repeats: int = 3,
    machine=None,
    seed: int = 0,
    pin_to_cpu: int | None = None,
) -> ProbeResult:
    """Meter ``repeats`` fixed windows of forward passes through ``config``,
    a layer or a whole architecture at its own batch, of ``macs`` MACs a pass.

    ``machine`` is the measured host, a ``RaplMachine`` unless given: it
    names its counter domains (``domain_names``), builds the workload
    (``workload(config, macs, seed)``) and fills and meters a window with it
    (``run_window(workload, window_seconds) -> (passes, elapsed seconds,
    microjoules)``), raising ``CounterReadError`` when a counter read fails.
    One measurement at a time per process: a concurrent call contaminates the
    shared package counters and is refused outright. ``pin_to_cpu`` restricts
    the process to one CPU for the duration of the measurement (Linux only),
    including the building of the workload; by default no affinity is set.
    """
    if not math.isfinite(window_seconds):
        raise ValidationError(f"window_seconds must be finite and positive, not {window_seconds}")
    if window_seconds <= 0 or repeats < 1:
        raise ValidationError("window_seconds must be positive and repeats >= 1")
    if not _measure_lock.acquire(blocking=False):
        raise ConcurrentMeasurementError("another measurement is already running in this process")
    saved_affinity = None
    try:
        if pin_to_cpu is not None:
            if not hasattr(os, "sched_setaffinity"):
                raise ValidationError("CPU pinning is not supported on this platform")
            saved_affinity = os.sched_getaffinity(0)
            try:
                os.sched_setaffinity(0, {pin_to_cpu})
            except (OSError, OverflowError, ValueError) as exc:
                raise ValidationError(f"cannot pin the measurement to CPU {pin_to_cpu}: {exc}") from None
        machine = RaplMachine() if machine is None else machine
        workload = machine.workload(config, macs, seed)
        results = []
        failed = 0
        for _ in range(repeats):
            try:
                passes, elapsed, energy_uj = machine.run_window(workload, window_seconds)
            except CounterReadError as exc:
                failed += 1
                warnings.warn(f"dropping repeat with failed counter read: {exc}", UserWarning, stacklevel=2)
                continue
            results.append(
                RepeatResult(
                    passes=passes,
                    elapsed_s=elapsed,
                    energy_j=energy_uj / 1e6,
                    long_pass=passes == 1 and elapsed > window_seconds,
                )
            )
        if not results:
            what = config.kind.value if isinstance(config, LayerConfig) else "architecture workload"
            raise AllRepeatsFailedError(f"all {repeats} repeats failed for {what}")
        return ProbeResult(
            config=config,
            window_seconds=window_seconds,
            repeats=tuple(results),
            failed_repeats=failed,
            domains=tuple(machine.domain_names),
        )
    finally:
        if saved_affinity is not None:
            os.sched_setaffinity(0, saved_affinity)
        _measure_lock.release()
