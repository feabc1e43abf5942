"""CPU energy measurement: native forward-pass workloads metered via RAPL.

The workloads are NumPy float32 kernels (``WORKLOAD_DTYPE``, PyTorch's default
dtype), with every input and weight drawn directly in that dtype, in bulk from
the raw output of the seed's PCG64 stream and with the bytes of
``Generator.random``. A layer's weight and bias are one draw into one buffer.
A large buffer, or a standalone workload's input, is drawn in pieces on every
CPU in the process's affinity, each piece from its stream jumped ahead to its
start, so its bytes are those of one sequential draw. Under a one-CPU
affinity, as in a ``pin_to_cpu`` measurement, whose machine builds the
workload while pinned, it is drawn on the calling thread, and no drawing
thread outlives the draw.

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
simulated) would read low by whole ranges. Each machine has a safe interval,
``safe_seconds``: its smallest counter range over a bound on the power drawn,
the longest window whose energy surely stays under one range. Its
``run_window`` raises ``CounterRangeError`` for a window that lasted that long
instead of returning an energy, and ``measure_config`` refuses a
``window_seconds`` that long up front; no extra counter reads are made.
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
    CounterRangeError,
    JoulecastError,
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
    """Window max with -inf padding (every window overlaps the real input).

    Separable: the maxima over each window's columns go into one buffer of
    every padded row, then the maxima over that buffer's window rows into the
    output, ``2*(kernel-1)`` strided maxima in all. Columns first keeps every
    tie (signed zeros, NaN payloads) resolved as a row-major walk over each
    window resolves it, so the bytes are those of ``kernel**2`` maxima.
    """
    batch, channels, h, w = x.shape
    out_h = conv_output_side(h, kernel, padding, stride)
    out_w = conv_output_side(w, kernel, padding, stride)
    padded = x
    if padding:
        padded = np.full((batch, channels, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
    columns = _window_max(lambda kj: padded[..., kj : kj + (out_w - 1) * stride + 1 : stride], kernel)
    return _window_max(lambda ki: columns[:, :, ki : ki + (out_h - 1) * stride + 1 : stride], kernel)


def _window_max(offset, kernel: int) -> np.ndarray:
    """The elementwise maximum of the views ``offset(0)`` to ``offset(kernel - 1)``,
    taken in that order into a new array."""
    out = np.maximum(offset(0), offset(1)) if kernel > 1 else offset(0).copy()
    for i in range(2, kernel):
        np.maximum(out, offset(i), out=out)
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


#: each kind's forward pass ``(config, x, weights) -> y``; a weighted kind's
#: weight shape is on its ``KIND_SPECS`` row
_KERNELS: dict[LayerKind, Callable[[LayerConfig, np.ndarray, dict], np.ndarray]] = {
    LayerKind.CONV2D: lambda c, x, w: conv2d_forward(x, w["weight"], w["bias"], c.stride, c.padding),
    LayerKind.MAXPOOL2D: lambda c, x, w: maxpool2d_forward(x, c.kernel_size, c.stride, c.padding),
    LayerKind.LINEAR: lambda c, x, w: linear_forward(x, w["weight"], w["bias"]),
    LayerKind.RELU: lambda c, x, w: relu_forward(x),
    LayerKind.SIGMOID: lambda c, x, w: sigmoid_forward(x),
    LayerKind.TANH: lambda c, x, w: tanh_forward(x),
    LayerKind.SOFTMAX: lambda c, x, w: softmax_forward(x),
    LayerKind.ADAPTIVE_AVG_POOL: lambda c, x, w: adaptive_avg_pool_forward(x, c.output_size),
    LayerKind.DROPOUT: lambda c, x, w: x,  # identity at inference
    LayerKind.FLATTEN: lambda c, x, w: x.reshape(x.shape[0], -1),
}


#: weight-and-bias buffers or inputs with fewer elements than this are drawn on the calling thread
_PARALLEL_ELEMENTS = 1 << 20
#: raw 64-bit outputs (two floats each) converted at a time, so that a block is scaled while still in cache
_DRAW_BLOCK = 1 << 15


def _draw_workers() -> int:
    """CPUs this process may run on: one weight-drawing thread each."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _uniform_blocks(bits: np.random.PCG64, out: np.ndarray, scale: float) -> None:
    """Fill the flat float32 ``out`` from a fresh ``bits``, uniform on
    +-``scale``: the values of ``u = Generator(bits).random(out.size,
    np.float32); u *= 2*scale; u -= scale``.

    A float32 takes half of one 64-bit PCG64 output, so each block of
    ``_DRAW_BLOCK`` outputs is converted in bulk from the bit generator's raw
    outputs: ``(half >> 8) * 2**-24`` for the low and then the high 32-bit
    half of each output, as ``next_uint32`` and ``Generator.random`` take them.
    """
    for i in range(0, out.size, 2 * _DRAW_BLOCK):
        block = out[i : i + 2 * _DRAW_BLOCK]
        raw = bits.random_raw(-(-block.size // 2)).astype("<u8", copy=False)
        halves = raw.view("<u4")[: block.size]  # low half first
        halves >>= 8
        block[:] = halves.view("<i4")  # under 2**24: exact, and a faster cast than from unsigned
        block *= 2**-24 * 2 * scale  # one product: scaling by a power of two is exact
        block -= scale


def _draw_uniform(out: np.ndarray, seed: int | list[int], scale: float) -> None:
    """Fill the flat ``out`` as ``_uniform_blocks(PCG64(seed), out, scale)``
    does, split into one piece per CPU. ``seed`` is any ``PCG64`` entropy.

    Each piece starts at an even element: a float32 takes half of one 64-bit
    PCG64 output, so a piece's bit generator is the seed's stream advanced by
    ``start // 2`` outputs. Helper threads draw every piece but the last,
    which the calling thread draws. All helpers are joined before this
    returns, and the first exception raised in any piece is raised here.
    """
    n = out.size
    workers = _draw_workers() if n >= _PARALLEL_ELEMENTS else 1
    step = 2 * -(-n // (2 * workers))
    starts = range(0, n, step)
    errors = []

    def fill(start):
        _uniform_blocks(np.random.PCG64(seed).advance(start // 2), out[start : start + step], scale)

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
        fill(starts[-1])
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def init_weights(config: LayerConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic weight tensors, uniform on +-1/sqrt(fan-in) and drawn in
    ``WORKLOAD_DTYPE`` in place (no float64 temporary).

    The weight and the bias are views of one buffer, the weight's elements and
    then the bias's, filled by one sequential draw from ``default_rng(seed)``
    (``_draw_uniform``). A buffer of at least ``_PARALLEL_ELEMENTS`` is drawn
    in pieces on every CPU in the process's affinity, so under a one-CPU
    affinity, as in a pinned measurement, it is drawn on the calling thread
    alone. No thread outlives the call.
    """
    weight_shape = KIND_SPECS[config.kind].weight_shape
    if weight_shape is None:
        return {}
    shape = weight_shape(config)
    n = math.prod(shape)
    scale = 1.0 / math.sqrt(math.prod(shape[1:]))  # 1/sqrt(fan-in); a Python float keeps the dtype
    buffer = np.empty(n + shape[0], dtype=WORKLOAD_DTYPE)
    _draw_uniform(buffer, seed, scale)
    return {"weight": buffer[:n].reshape(shape), "bias": buffer[n:]}


def standalone_array_shape(config: LayerConfig) -> tuple[int, ...]:
    """The array shape of a standalone config's input (``standalone_input_shape``):
    NCHW for a spatial kind, (batch, in_channels) for a flat one."""
    shape = standalone_input_shape(config)
    dims = (shape.batch, shape.channels, shape.height, shape.width)
    return dims if KIND_SPECS[config.kind].spatial else dims[:2]


def forward_workload(config: LayerConfig, x: np.ndarray, weights: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """One forward pass through a standalone module, whose input ``x`` has
    the shape ``standalone_array_shape`` gives; the weights are
    ``init_weights`` of seed 0 unless given."""
    shape = standalone_array_shape(config)
    if x.shape != shape:
        raise ShapeError(f"{config.kind.value} expects an input of shape {shape}, got {x.shape}")
    if weights is None:
        weights = init_weights(config, 0)
    return _KERNELS[config.kind](config, x, weights)


def make_workload(config: LayerConfig, seed: int = 0):
    """Closure running one forward pass and returning its output: the pass of
    ``forward_workload``, with the input, the weights and the kind's kernel
    bound once, so a metered pass runs the kernel alone.

    The input is uniform on +-1, drawn as the weights are (``_draw_uniform``,
    on every CPU in the affinity) from a stream of its own, the entropy
    ``[seed, 1]``, so it is independent of the weights of ``seed``."""
    x = np.empty(standalone_array_shape(config), dtype=WORKLOAD_DTYPE)
    _draw_uniform(x.reshape(-1), [seed, 1], 1.0)
    weights = init_weights(config, seed)
    forward = _KERNELS[config.kind]

    def run():
        return forward(config, x, weights)

    return run


def make_architecture_workload(arch: ArchitectureSpec, batch_size: int, seed: int = 0):
    """Closure running one forward pass through the whole architecture."""
    spec = arch.with_batch(batch_size)
    rng = np.random.default_rng(seed)
    shape = spec.input_shape
    x0 = rng.standard_normal((shape.batch, shape.channels, shape.height, shape.width), dtype=WORKLOAD_DTYPE)
    steps = [
        (_KERNELS[layer.kind], layer, init_weights(layer, seed + i))
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


def _require_safe(elapsed_s: float, safe_seconds: float) -> None:
    """Refuse a window that lasted its machine's safe interval: its energy may
    have passed one counter range, so its delta could read low."""
    if elapsed_s >= safe_seconds:
        raise CounterRangeError(
            f"a {elapsed_s:.6g} s window reached the counters' safe interval of {safe_seconds:.6g} s"
        )


#: the most power, in watts, that one RAPL package domain is taken to draw
RAPL_PACKAGE_POWER_BOUND_W = 1000.0


class RaplMachine:
    """The host itself: the summed package domains' counters, real forward-pass
    workloads and the wall clock. It warns when built, once per measurement,
    if the load average says other processes' energy will leak in.

    Its safe interval is the smallest domain's range over
    ``RAPL_PACKAGE_POWER_BOUND_W``: about 262 s for a 262 kJ range."""

    def __init__(self):
        self.domains = discover_rapl_domains()
        if not self.domains:
            raise JoulecastError(
                f"no readable RAPL package domains under {powercap_root()} "
                "(missing powercap support or insufficient permissions)"
            )
        self.safe_seconds = min(d.max_range_uj for d in self.domains) / 1e6 / RAPL_PACKAGE_POWER_BOUND_W
        try:
            self.read_uj()
        except CounterReadError as exc:
            raise JoulecastError(f"RAPL counters not readable: {exc}") from exc
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
        """(passes, elapsed seconds, microjoules summed over the domains) of a
        wall-clock window, refused once it reaches the safe interval."""
        before = self.read_uj()
        passes, elapsed = _run_window(workload, time.monotonic, window_seconds)
        _require_safe(elapsed, self.safe_seconds)
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
    #: the constant package power the counter integrates
    power_w = 20.0
    #: the safe interval: its counter range over its power, about 3,276.6 virtual seconds
    safe_seconds = max_range_uj / 1e6 / power_w
    #: MACs a pass runs per virtual second, before jitter
    mac_rate = 5e9
    #: the standard deviation of a pass's relative jitter
    noise = 0.01
    domain_names = ("simulated",)

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._normals = np.empty(0)  # drawn normals; those from index _used on are unused
        self._used = 0
        self._t = 0.0

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
        the window's start and end), as per-pass stepping gives them; a window
        that reaches the safe interval is refused once it ends."""
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
                _require_safe(elapsed, self.safe_seconds)
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
    names its counter domains (``domain_names``), gives its safe interval
    (``safe_seconds``), builds the workload (``workload(config, macs,
    seed)``) and fills and meters a window with it (``run_window(workload,
    window_seconds) -> (passes, elapsed seconds, microjoules)``), raising
    ``CounterReadError`` when a counter read fails, which drops the repeat,
    and ``CounterRangeError`` when the window reached the safe interval, which
    ends the measurement. A ``window_seconds`` that reaches the safe interval
    is refused before the workload is built.
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
        raise JoulecastError("another measurement is already running in this process")
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
        if window_seconds >= machine.safe_seconds:
            raise ValidationError(
                f"window_seconds {window_seconds:g} must be under the counters' safe interval "
                f"of {machine.safe_seconds:.6g} s"
            )
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
            raise JoulecastError(f"all {repeats} repeats failed for {what}")
        return ProbeResult(repeats=tuple(results), failed_repeats=failed, domains=tuple(machine.domain_names))
    finally:
        if saved_affinity is not None:
            os.sched_setaffinity(0, saved_affinity)
        _measure_lock.release()
