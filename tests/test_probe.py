import hashlib
import inspect
import itertools
import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from joulecast import probe
from joulecast.arch import (
    PREDICTABLE_KINDS,
    LayerConfig,
    LayerKind,
    conv_output_side,
    load_architecture,
)
from joulecast.macs import standalone_macs
from joulecast.errors import (
    CounterRangeError,
    JoulecastError,
    ShapeError,
    ValidationError,
)
from joulecast.probe import (
    SimulatedMachine,
    conv2d_forward,
    discover_rapl_domains,
    energy_delta,
    forward_workload,
    linear_forward,
    maxpool2d_forward,
    measure_config,
    relu_forward,
    softmax_forward,
    adaptive_avg_pool_forward,
)


# hand-rolled per-element oracles -------------------------------------------

def conv_oracle(x, weight, bias, stride, padding):
    batch, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.zeros((batch, c_out, out_h, out_w))
    for b in range(batch):
        for co in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    acc = bias[co]
                    for ci in range(c_in):
                        for ki in range(k):
                            for kj in range(k):
                                yi = i * stride + ki - padding
                                xj = j * stride + kj - padding
                                if 0 <= yi < h and 0 <= xj < w:
                                    acc += x[b, ci, yi, xj] * weight[co, ci, ki, kj]
                    out[b, co, i, j] = acc
    return out


def pool_oracle(x, k, stride, padding):
    batch, channels, h, w = x.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.full((batch, channels, out_h, out_w), -np.inf)
    for b in range(batch):
        for c in range(channels):
            for i in range(out_h):
                for j in range(out_w):
                    for ki in range(k):
                        for kj in range(k):
                            yi = i * stride + ki - padding
                            xj = j * stride + kj - padding
                            if 0 <= yi < h and 0 <= xj < w:
                                out[b, c, i, j] = max(out[b, c, i, j], x[b, c, yi, xj])
    return out


def k2_pool_kernel(x, kernel, stride, padding):
    """The pooling kernel before the separable one: ``kernel**2`` strided
    maxima into an output filled with -inf, in row-major window order."""
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


def tie_heavy_input(rng, shape, dtype):
    """Signed zeros, ones and infinities, with a tenth NaNs of random sign and payload."""
    values = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], dtype), size=shape)
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")
    sign = uint.type(1) << uint.type(8 * uint.itemsize - 1)
    nan = np.array(np.nan, dtype).view(uint) | rng.integers(1, 1 << 20, size=shape).astype(uint)
    nan |= np.where(rng.random(shape) < 0.5, sign, uint.type(0)).astype(uint)
    return np.where(rng.random(shape) < 0.1, nan.view(dtype), values)


class TestKernels:
    def test_unit_conv(self):
        x = np.full((1, 1, 1, 1), 3.0)
        weight = np.full((1, 1, 1, 1), 2.0)
        out = conv2d_forward(x, weight, np.zeros(1), stride=1, padding=0)
        assert out.item() == 6.0

    def test_relu(self):
        np.testing.assert_array_equal(relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_conv_matches_hand_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 4, 4))
        weight = rng.standard_normal((1, 1, 3, 3))
        bias = rng.standard_normal(1)
        got = conv2d_forward(x, weight, bias, stride=1, padding=0)
        np.testing.assert_allclose(got, conv_oracle(x, weight, bias, 1, 0), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        st.integers(3, 7), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),
    )
    def test_conv_oracle_equivalence(self, batch, c_in, c_out, side, k, stride, padding):
        if side + 2 * padding < k:
            return
        rng = np.random.default_rng(42)
        x = rng.standard_normal((batch, c_in, side, side))
        weight = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out)
        got = conv2d_forward(x, weight, bias, stride, padding)
        np.testing.assert_allclose(got, conv_oracle(x, weight, bias, stride, padding), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 8), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1))
    def test_pool_oracle_equivalence(self, side, k, stride, padding):
        if padding > k // 2:
            return
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, side, side))
        got = maxpool2d_forward(x, k, stride, padding)
        np.testing.assert_array_equal(got, pool_oracle(x, k, stride, padding))

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 7), stride=st.integers(1, 5), padding=st.integers(0, 3),
        h=st.integers(1, 13), w=st.integers(1, 13), dtype=st.sampled_from([np.float32, np.float64]),
        ties=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, stride=2, padding=0, h=13, w=11, dtype=np.float32, ties=False, seed=0)  # AlexNet's pools
    @example(k=2, stride=2, padding=0, h=12, w=10, dtype=np.float32, ties=True, seed=1)  # VGG's pools
    def test_separable_pool_is_the_k2_kernel_to_the_bit(self, k, stride, padding, h, w, dtype, ties, seed):
        """Same bytes as ``kernel**2`` maxima, non-square inputs, signed-zero ties and NaN payloads included."""
        assume(padding <= k // 2 and min(h, w) + 2 * padding >= k)
        rng = np.random.default_rng(seed)
        shape = (2, 3, h, w)
        x = tie_heavy_input(rng, shape, dtype) if ties else rng.standard_normal(shape).astype(dtype)
        got = maxpool2d_forward(x, k, stride, padding)
        want = k2_pool_kernel(x, k, stride, padding)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h, w, padding", [(2, 2, 0), (6, 2, 0), (2, 6, 0), (1, 1, 1)])
    def test_window_larger_than_padded_input_is_the_shape_rule_error(self, h, w, padding):
        with pytest.raises(ShapeError) as expected:
            conv_output_side(min(h, w), 5, padding, 1)
        x = np.ones((1, 1, h, w))
        with pytest.raises(ShapeError) as conv:
            conv2d_forward(x, np.ones((1, 1, 5, 5)), np.zeros(1), stride=1, padding=padding)
        with pytest.raises(ShapeError) as pool:
            maxpool2d_forward(x, 5, stride=1, padding=padding)
        assert str(conv.value) == str(pool.value) == str(expected.value)

    def test_linear(self):
        x = np.array([[1.0, 2.0]])
        weight = np.array([[3.0, 4.0], [5.0, 6.0]])
        bias = np.array([0.5, -0.5])
        np.testing.assert_array_equal(linear_forward(x, weight, bias), [[11.5, 16.5]])

    def test_softmax_rows_sum_to_one_and_is_stable(self):
        x = np.array([[1000.0, 1001.0], [0.0, 0.0]])
        out = softmax_forward(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-12)

    def test_adaptive_avg_pool_identity_when_sides_match(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 7, 7))
        np.testing.assert_array_equal(adaptive_avg_pool_forward(x, 7), x)

    def test_adaptive_avg_pool_means(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = adaptive_avg_pool_forward(x, 2)
        np.testing.assert_array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_forward_workload_shape_errors(self):
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=4, out_channels=2)
        with pytest.raises(ShapeError):
            forward_workload(cfg, np.ones((1, 3)))

    def test_workload_deterministic(self):
        cfg = LayerConfig(
            kind=LayerKind.CONV2D, batch_size=1, image_size=6, kernel_size=3,
            in_channels=2, out_channels=3, stride=1, padding=1,
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6), dtype=np.float32)
        a = forward_workload(cfg, x, probe.init_weights(cfg, 5))
        b = forward_workload(cfg, x, probe.init_weights(cfg, 5))
        np.testing.assert_array_equal(a, b)

    def test_architecture_workload_runs(self):
        # a tiny custom architecture instead of a 224px preset
        from joulecast.arch import ArchitectureSpec, TensorShape

        tiny = ArchitectureSpec(
            "tiny", TensorShape(1, 2, 8, 8),
            (
                LayerConfig(kind=LayerKind.CONV2D, kernel_size=3, in_channels=2,
                            out_channels=3, stride=1, padding=1),
                LayerConfig(kind=LayerKind.RELU),
                LayerConfig(kind=LayerKind.MAXPOOL2D, kernel_size=2, stride=2, padding=0),
                LayerConfig(kind=LayerKind.ADAPTIVE_AVG_POOL, output_size=2),
                LayerConfig(kind=LayerKind.FLATTEN),
                LayerConfig(kind=LayerKind.LINEAR, in_channels=12, out_channels=5),
                LayerConfig(kind=LayerKind.SOFTMAX),
            ),
        )
        out = probe.make_architecture_workload(tiny, batch_size=2, seed=1)()
        assert out.shape == (2, 5)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-12)


class TestConvColumnBlocks:
    """conv2d_forward copies windows into a bounded im2col column buffer and
    runs one GEMM per block of whole samples or of output rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 7),
        st.integers(1, 5), st.integers(1, 3), st.integers(0, 2),
    )
    @example(batch=2, c_in=3, c_out=2, side=5, k=1, stride=1, padding=0)
    @example(batch=2, c_in=3, c_out=2, side=4, k=1, stride=3, padding=2)
    @example(batch=3, c_in=2, c_out=4, side=1, k=5, stride=1, padding=2)
    @example(batch=1, c_in=4, c_out=1, side=5, k=5, stride=3, padding=0)
    def test_matches_oracle(self, batch, c_in, c_out, side, k, stride, padding):
        assume(side + 2 * padding >= k)
        rng = np.random.default_rng(side * 100 + k * 10 + padding)
        x = rng.standard_normal((batch, c_in, side, side))
        weight = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out)
        got = conv2d_forward(x, weight, bias, stride, padding)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, conv_oracle(x, weight, bias, stride, padding), rtol=0, atol=1e-12)

    # With a 512-byte (64-element) block: "samples" has 16 column elements per
    # sample, so 4 samples per block and batch 5 takes 2 GEMMs; "rows" has 196
    # per sample and 28 per output row, so 2 rows per block and 7 rows take 4
    # GEMMs per sample; "one row" has 90-element output rows (18 deep, 5 wide),
    # each over the block, so each of the 5 rows is its own GEMM.
    @pytest.mark.parametrize(
        "batch, c_in, side, k, stride, padding, gemms",
        [
            pytest.param(5, 1, 3, 2, 1, 0, 2, id="samples"),
            pytest.param(2, 1, 8, 2, 1, 0, 8, id="rows"),
            pytest.param(2, 2, 7, 3, 2, 2, 10, id="one row"),
        ],
    )
    def test_multi_block_matches_one_block(self, monkeypatch, batch, c_in, side, k, stride, padding, gemms):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((batch, c_in, side, side))
        weight = rng.standard_normal((3, c_in, k, k))
        bias = rng.standard_normal(3)
        one_block = conv2d_forward(x, weight, bias, stride, padding)
        calls = []
        matmul = np.matmul

        def counting_matmul(*args, **kwargs):
            calls.append(args[1].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(probe, "_COLUMN_BLOCK_BYTES", 512)
        monkeypatch.setattr(np, "matmul", counting_matmul)
        blocked = conv2d_forward(x, weight, bias, stride, padding)
        monkeypatch.undo()
        assert len(calls) == gemms
        row_bytes = c_in * k * k * blocked.shape[3] * x.itemsize
        assert all(math.prod(shape) * x.itemsize <= max(512, row_bytes) for shape in calls)
        np.testing.assert_allclose(blocked, one_block, rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocked, conv_oracle(x, weight, bias, stride, padding), rtol=0, atol=1e-12)

    def test_column_buffer_is_bounded(self):
        # unchunked, the column matrix here is 8 * 64*7*7 * 64*64 float64 = 784 MiB
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 64, 64, 64))
        weight = rng.standard_normal((8, 64, 7, 7))
        bias = rng.standard_normal(8)
        tracemalloc.start()
        try:
            out = conv2d_forward(x, weight, bias, stride=1, padding=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (8, 8, 64, 64)
        assert peak < 160e6


class TestEnergyDelta:
    def test_plain_difference(self):
        assert energy_delta(100, 250, 10**6) == 150

    def test_wraparound(self):
        assert energy_delta(999_990, 10, 10**6) == 20

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6 - 1), st.integers(0, 10**6 - 1))
    def test_delta_always_in_range(self, before, after):
        delta = energy_delta(before, after, 10**6)
        assert 0 <= delta < 10**6


#: a common package domain's ``max_energy_range_uj``, about 262 kJ: its safe
#: interval at ``probe.RAPL_PACKAGE_POWER_BOUND_W`` is about 262 s
RAPL_RANGE_UJ = 262_143_328_850


def make_powercap_tree(root, domains):
    """A fake powercap tree under ``root``: one ``intel-rapl:<i>`` domain per
    (name, max_range, energy) triple."""
    for i, (name, max_range, energy) in enumerate(domains):
        d = root / f"intel-rapl:{i}"
        d.mkdir()
        (d / "name").write_text(name + "\n")
        (d / "max_energy_range_uj").write_text(f"{max_range}\n")
        (d / "energy_uj").write_text(f"{energy}\n")
    return root


class ScriptedMachine:
    """A measured host whose counter returns a fixed sequence of readings
    ('fail' raises), read at each window's start and end, and whose clock
    advances ``step`` seconds per pass, and only then."""

    domain_names = ("scripted",)
    safe_seconds = math.inf

    def __init__(self, readings, step=1.0, max_range=10**9):
        self._readings = list(readings)
        self.max_range = max_range
        self.step = step
        self.now = 0.0
        self.built = []  # the (config, macs, seed) of each workload built

    def read_uj(self):
        value = self._readings.pop(0)
        if value == "fail":
            raise probe.CounterReadError("scripted failure")
        return (value,)

    def clock(self):
        return self.now

    def run_pass(self):
        self.now += self.step

    def workload(self, config, macs, seed):
        self.built.append((config, macs, seed))
        return self.run_pass

    def run_window(self, workload, window_seconds):
        (before,) = self.read_uj()
        passes, elapsed = probe._run_window(workload, self.clock, window_seconds)
        (after,) = self.read_uj()
        return passes, elapsed, energy_delta(before, after, self.max_range)


class TestMeasureConfig:
    def cfg(self):
        return LayerConfig(kind=LayerKind.RELU, batch_size=1, in_channels=50_000)

    def test_per_pass_normalization(self):
        machine = ScriptedMachine([0, 30_000_000], step=0.03)  # 30 J over the window
        result = measure_config(self.cfg(), 50_000, window_seconds=30.0, repeats=1, machine=machine, seed=4)
        assert result.repeats[0].passes == 1000
        assert result.repeats[0].energy_j == 30.0
        assert result.energy_per_pass_j == 0.03
        assert result.domains == ("scripted",)
        assert machine.built == [(self.cfg(), 50_000, 4)]  # one workload for the measurement

    def test_three_repeat_averaging(self):
        machine = ScriptedMachine([0, 30_000_000, 30_000_000, 61_000_000, 61_000_000, 90_000_000], step=0.03)
        result = measure_config(self.cfg(), 50_000, window_seconds=30.0, repeats=3, machine=machine)
        per_pass = [r.energy_per_pass_j for r in result.repeats]
        assert per_pass == [0.03, 0.031, 0.029]
        assert result.energy_per_pass_j == pytest.approx(0.03, rel=1e-12)
        assert len(machine.built) == 1

    def test_failed_repeat_dropped(self):
        machine = ScriptedMachine([0, 30_000_000, "fail", 0, 29_000_000], step=0.03)
        with pytest.warns(UserWarning, match="failed counter read"):
            result = measure_config(self.cfg(), 50_000, window_seconds=30.0, repeats=3, machine=machine)
        assert len(result.repeats) == 2
        assert result.failed_repeats == 1
        assert result.energy_per_pass_j == pytest.approx((0.030 + 0.029) / 2, rel=1e-12)

    def test_all_repeats_failed(self):
        machine = ScriptedMachine(["fail", "fail"], step=0.03)
        with pytest.warns(UserWarning):
            with pytest.raises(JoulecastError, match="^all 2 repeats failed for ReLU$"):
                measure_config(self.cfg(), 50_000, window_seconds=30.0, repeats=2, machine=machine)

    def test_wraparound_inside_window(self):
        machine = ScriptedMachine([999_999_990, 20], step=1.0, max_range=10**9)
        result = measure_config(self.cfg(), 50_000, window_seconds=1.0, repeats=1, machine=machine)
        assert result.repeats[0].energy_j == pytest.approx(30 / 1e6)

    def test_single_long_pass_flagged(self):
        machine = ScriptedMachine([0, 1_000_000], step=45.0)
        result = measure_config(self.cfg(), 50_000, window_seconds=30.0, repeats=1, machine=machine)
        assert result.repeats[0].passes == 1
        assert result.repeats[0].long_pass

    def test_concurrent_measurement_refused(self):
        assert probe._measure_lock.acquire(blocking=False)
        try:
            with pytest.raises(JoulecastError, match="^another measurement is already running in this process$"):
                measure_config(self.cfg(), 50_000, window_seconds=1.0, repeats=1,
                               machine=ScriptedMachine([0, 1]))
        finally:
            probe._measure_lock.release()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_cpu_pinning_is_restored(self):
        before = os.sched_getaffinity(0)
        cpu = min(before)
        seen = []

        class Recording(ScriptedMachine):
            def workload(self, config, macs, seed):
                seen.append(os.sched_getaffinity(0))
                return super().workload(config, macs, seed)

            def run_pass(self):
                seen.append(os.sched_getaffinity(0))
                super().run_pass()

        measure_config(self.cfg(), 50_000, window_seconds=1.0, repeats=1, machine=Recording([0, 1_000]),
                       pin_to_cpu=cpu)
        assert seen == [{cpu}, {cpu}]  # the workload is built and run pinned
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_refused(self, window):
        machine = ScriptedMachine([0, 1_000])
        reads = itertools.count()

        def clock():  # a window that can never fill fails here instead of hanging
            if next(reads) >= 1_000:
                raise RuntimeError("the window never ended")
            return machine.now

        machine.clock = clock
        with pytest.raises(ValidationError) as info:
            measure_config(self.cfg(), 50_000, window_seconds=window, repeats=1, machine=machine)
        assert str(info.value) == f"window_seconds must be finite and positive, not {window}"
        assert next(reads) == 0  # refused before the first clock read
        assert machine.built == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    @pytest.mark.parametrize("cpu", [-1, 100_000_000_000, 4096])
    def test_unpinnable_cpu_refused(self, cpu):
        before = os.sched_getaffinity(0)
        machine = ScriptedMachine([0, 1_000])
        with pytest.raises(ValidationError) as info:
            measure_config(self.cfg(), 50_000, window_seconds=1.0, repeats=1, machine=machine, pin_to_cpu=cpu)
        assert str(info.value).startswith(f"cannot pin the measurement to CPU {cpu}: ")
        assert machine.built == [] and machine.now == 0.0  # no workload built or run
        assert os.sched_getaffinity(0) == before
        assert probe._measure_lock.acquire(blocking=False)  # released for the next measurement
        probe._measure_lock.release()

    def test_simulated_machine_energy_tracks_macs(self):
        machine = simulated(seed=0, noise=0.0)
        macs = 25_000
        result = measure_config(self.cfg(), macs, window_seconds=0.01, repeats=3, machine=machine)
        expected = 20.0 * macs / 5e9
        assert result.energy_per_pass_j == pytest.approx(expected, rel=1e-6)
        assert result.domains == ("simulated",)

    @pytest.mark.parametrize("window", [30.0, 1e9])
    def test_window_at_the_safe_interval_refused_before_any_workload(self, window):
        machine = ScriptedMachine([0, 1_000])
        machine.safe_seconds = 30.0
        with pytest.raises(ValidationError) as info:
            measure_config(self.cfg(), 50_000, window_seconds=window, repeats=1, machine=machine)
        assert str(info.value) == f"window_seconds {window:g} must be under the counters' safe interval of 30 s"
        assert machine.built == [] and machine.now == 0.0
        assert probe._measure_lock.acquire(blocking=False)  # released for the next measurement
        probe._measure_lock.release()

    def test_simulated_window_past_the_safe_interval_ends_the_measurement(self):
        machine = SimulatedMachine(seed=0)
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=1, out_channels=1)
        # one pass of about 4,000 virtual seconds against a 0.05 s window
        with pytest.raises(CounterRangeError, match=r"^a \d{4}(\.\d+)? s window reached the counters' "
                                                    r"safe interval of 3276\.63 s$"):
            measure_config(cfg, 2 * 10**13, window_seconds=0.05, repeats=3, machine=machine)
        assert machine._t > SimulatedMachine.safe_seconds  # the first repeat's one pass, and no other
        assert machine._t < 2 * SimulatedMachine.safe_seconds


def simulated(seed=0, noise=0.01, mac_rate=5e9):
    """A ``SimulatedMachine`` on ``seed`` whose passes run ``mac_rate`` MACs a
    virtual second, before jitter of relative deviation ``noise``."""
    return type("Simulated", (SimulatedMachine,), {"noise": noise, "mac_rate": mac_rate})(seed)


def _twins(seed, noise=0.01, mac_rate=5e9):
    """Two machines on one seed: the first is stepped pass by pass, the second fills windows."""
    return simulated(seed, noise, mac_rate), simulated(seed, noise, mac_rate)


# a simulated pass depends on its MACs alone, not on the config or the seed
_ANY_CONFIG = LayerConfig(kind=LayerKind.RELU, batch_size=1, in_channels=1)


def _one_pass(machine, macs):
    machine.run_pass(machine.workload(_ANY_CONFIG, macs, 0))


def _per_pass_window(machine, macs, window):
    """The reference: ``window`` filled one pass at a time on the machine's virtual clock."""
    return probe._run_window(lambda: _one_pass(machine, macs), lambda: machine._t, window)


def _same_window(per_pass, windowed, macs, window):
    """Fill one window on each twin; both must advance the clock alike. A window
    under the safe interval must give the per-pass twin's passes, elapsed time
    and counter delta; one that reached it is refused, and None is returned."""
    (before,) = per_pass.read_uj()
    expected = _per_pass_window(per_pass, macs, window)
    (after,) = per_pass.read_uj()
    workload = windowed.workload(_ANY_CONFIG, macs, 0)
    got = None
    if expected[1] >= windowed.safe_seconds:
        with pytest.raises(CounterRangeError, match="^a .* s window reached the counters' safe interval of "):
            windowed.run_window(workload, window)
    else:
        got = windowed.run_window(workload, window)
        assert got == (*expected, energy_delta(before, after, per_pass.max_range_uj))
    assert windowed._t == per_pass._t
    return got


def _next_pass_times(machine, n=8):
    """The clock after each of the next ``n`` passes at a noise that never clamps,
    so it reads the next ``n`` draws of the machine's stream."""
    machine.noise = 1e-3
    times = []
    for _ in range(n):
        machine.run_pass(1.0)
        times.append(machine._t)
    return times


class TestSimulatedWindow:
    """A simulated window filled in vectorised steps equals per-pass stepping to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from([0.0, 0.01, 0.3, 5.0]),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(1, 10**9), st.floats(0.1, 20_000.0)),
            min_size=1, max_size=6,
        ),
    )
    def test_window_matches_per_pass_stepping(self, seed, noise, ops):
        per_pass, windowed = _twins(seed, noise)
        for single, macs, span in ops:
            if single:
                _one_pass(per_pass, macs)
                _one_pass(windowed, macs)
                assert windowed._t == per_pass._t
            else:  # a window of about ``span`` unjittered passes
                _same_window(per_pass, windowed, macs, span * macs / per_pass.mac_rate)
        assert _next_pass_times(windowed) == _next_pass_times(per_pass)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from([0.0, 0.01, 0.3]),
        macs=st.integers(10**10, 10**12),  # 2 to 200 virtual seconds a pass
        window=st.floats(3_277.0, 20_000.0),
    )
    @example(seed=0, noise=0.01, macs=10**10, window=3_277.0)
    def test_window_past_one_counter_range(self, seed, noise, macs, window):
        """At 20 W a window over 3,277 virtual seconds passes one counter range:
        it is refused, after the passes that per-pass stepping takes."""
        per_pass, windowed = _twins(seed, noise)
        _one_pass(per_pass, macs)  # start the window off the counter's zero
        _one_pass(windowed, macs)
        start = per_pass._t
        assert _same_window(per_pass, windowed, macs, window) is None
        assert windowed.power_w * (per_pass._t - start) * 1e6 > windowed.max_range_uj
        assert _next_pass_times(windowed) == _next_pass_times(per_pass)

    @pytest.mark.parametrize("seed", range(4))
    def test_once_wrapping_window_under_the_safe_interval_is_exact(self, seed):
        per_pass, windowed = _twins(seed)
        _one_pass(per_pass, 15 * 10**12)  # about 3,000 virtual seconds: the counter near its top
        _one_pass(windowed, 15 * 10**12)
        (before,) = windowed.read_uj()
        passes, elapsed, energy_uj = _same_window(per_pass, windowed, 10**10, 1_000.0)  # 2 s passes
        (after,) = windowed.read_uj()
        assert after < before  # the counter wrapped once
        assert elapsed < windowed.safe_seconds
        assert energy_uj == pytest.approx(windowed.power_w * elapsed * 1e6, abs=1)

    @pytest.mark.parametrize("passes", [
        probe._CHUNK_PASSES,  # one step that the window ends on
        2 * probe._CHUNK_PASSES,  # two
        probe._CHUNK_PASSES + 1,  # one step, then a single pass
        probe._CHUNK_PASSES + 20,  # a step that leaves the window open, then a short one
    ])
    def test_window_ending_on_a_chunk_boundary(self, passes):
        # a pass of exactly 2**-20 s: the clock sums exactly and the last pass meets the window
        per_pass, windowed = _twins(seed=5, noise=0.0, mac_rate=2.0**20)
        window = passes * 2.0**-20
        assert _same_window(per_pass, windowed, 1, window)[:2] == (passes, window)
        assert _next_pass_times(windowed) == _next_pass_times(per_pass)

    @pytest.mark.parametrize("chunk, scalar", [(1, 0), (2, 0), (3, 1), (7, 2), (probe._CHUNK_PASSES, 0)])
    def test_small_chunks_match_per_pass_stepping(self, chunk, scalar, monkeypatch):
        monkeypatch.setattr(probe, "_CHUNK_PASSES", chunk)
        monkeypatch.setattr(probe, "_SCALAR_PASSES", scalar)
        for seed in range(5):
            per_pass, windowed = _twins(seed, noise=0.3)
            for macs in (1_000_000, 37_000, 5_000_000, 123_456):
                _same_window(per_pass, windowed, macs, 0.003)
                _one_pass(per_pass, macs)
                _one_pass(windowed, macs)
            assert _next_pass_times(windowed) == _next_pass_times(per_pass)

    def test_single_long_pass(self):
        per_pass, windowed = _twins(seed=2)
        macs = 10**9  # 0.2 s per pass against a 0.05 s window
        assert _same_window(per_pass, windowed, macs, 0.05)[0] == 1
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=1, out_channels=1)
        result = measure_config(cfg, macs, window_seconds=0.05, repeats=2, machine=windowed)
        assert [(r.passes, r.long_pass) for r in result.repeats] == [(1, True), (1, True)]
        assert _next_pass_times(windowed) != _next_pass_times(per_pass)  # two passes ahead

    def test_zero_noise_passes_are_the_base_time(self):
        per_pass, windowed = _twins(seed=8, noise=0.0, mac_rate=2.0**20)
        assert _same_window(per_pass, windowed, 2**10, 1000 * 2.0**-10)[:2] == (1000, 1000 * 2.0**-10)

    def test_clamped_jitter(self):
        per_pass, windowed = _twins(seed=4, noise=5.0)  # 1 + 5z < 0.1 for about 43% of draws
        for macs in (1_000, 77_777, 2_000_000):
            _same_window(per_pass, windowed, macs, 0.01)
        assert _next_pass_times(windowed) == _next_pass_times(per_pass)

    def test_single_passes_interleaved_with_windows(self):
        per_pass, windowed = _twins(seed=11)
        for macs, window in ((40_000, 0.02), (3_000, None), (900, 0.005), (12, None), (5_000_000, 0.05),
                             (1, None), (1, 0.00002), (80_000, None)):
            if window is None:
                _one_pass(per_pass, macs)
                _one_pass(windowed, macs)
                assert windowed._t == per_pass._t
            else:
                _same_window(per_pass, windowed, macs, window)
        assert _next_pass_times(windowed) == _next_pass_times(per_pass)

    def test_a_million_pass_window(self):
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=1, out_channels=1)
        macs = standalone_macs(cfg)  # 2 MACs: 0.4 ns a pass
        per_pass, windowed = _twins(seed=6, noise=0.0)
        result = measure_config(cfg, macs, window_seconds=4e-4, repeats=1, machine=windowed)
        expected = _per_pass_window(per_pass, macs, 4e-4)
        assert (result.repeats[0].passes, result.repeats[0].elapsed_s) == expected
        assert result.repeats[0].passes > 10**6
        assert windowed._t == per_pass._t
        assert result.energy_per_pass_j == pytest.approx(20.0 * macs / 5e9, rel=1e-3)


class TestLoadWarning:
    """Only real RAPL counters see other processes' energy, so only they warn on load."""

    @pytest.fixture(autouse=True)
    def busy_machine(self, monkeypatch):
        monkeypatch.setattr(os, "getloadavg", lambda: (1e6, 1e6, 1e6))

    def cfg(self):
        return LayerConfig(kind=LayerKind.RELU, batch_size=1, in_channels=1_000)

    def test_simulated_measurement_does_not_warn(self):
        machine = simulated(seed=0, noise=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            measure_config(self.cfg(), 1_000, window_seconds=0.01, repeats=1, machine=machine)

    def test_rapl_measurement_warns(self, tmp_path, monkeypatch):
        root = make_powercap_tree(tmp_path, [("package-0", RAPL_RANGE_UJ, 5)])
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(root))
        with pytest.warns(UserWarning, match="load average") as record:
            measure_config(self.cfg(), 1_000, window_seconds=1e-3, repeats=2)
        assert len(record) == 1  # once per measurement, not per repeat
        assert record[0].filename == __file__  # at the caller of measure_config


# one small standalone config per predictable kind (a missing kind fails as a KeyError)
_SMALL_CONFIGS = {
    LayerKind.CONV2D: LayerConfig(kind=LayerKind.CONV2D, batch_size=2, image_size=6, kernel_size=3,
                                  in_channels=2, out_channels=3, stride=1, padding=1),
    LayerKind.MAXPOOL2D: LayerConfig(kind=LayerKind.MAXPOOL2D, batch_size=2, image_size=6, kernel_size=3,
                                     in_channels=2, stride=2, padding=1),
    LayerKind.LINEAR: LayerConfig(kind=LayerKind.LINEAR, batch_size=2, in_channels=5, out_channels=4),
    **{kind: LayerConfig(kind=kind, batch_size=2, in_channels=7)
       for kind in (LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.SOFTMAX)},
}


class TestWorkloadDtype:
    """The metered workloads run in float32, and no kernel upcasts it."""

    @pytest.mark.parametrize("kind", PREDICTABLE_KINDS, ids=lambda k: k.value)
    def test_float32_kernel_stays_float32_and_matches_float64(self, kind):
        cfg = _SMALL_CONFIGS[kind]
        dims = probe.standalone_array_shape(cfg)
        x = np.random.default_rng(4).standard_normal(dims, dtype=np.float32)
        weights = probe.init_weights(cfg, seed=4)
        out64 = forward_workload(cfg, x.astype(np.float64), {k: w.astype(np.float64) for k, w in weights.items()})
        out32 = forward_workload(cfg, x, weights)
        assert out64.dtype == np.float64
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("kind", PREDICTABLE_KINDS, ids=lambda k: k.value)
    def test_make_workload_returns_float32(self, kind):
        out = probe.make_workload(_SMALL_CONFIGS[kind])()
        assert out.dtype == probe.WORKLOAD_DTYPE == np.float32


@pytest.mark.parametrize("kind", PREDICTABLE_KINDS, ids=lambda k: k.value)
def test_make_workload_equals_forward_workload(kind):
    # the closure's bound kernel runs the pass ``forward_workload`` runs, on
    # the input and the weights ``make_workload`` draws from its seed: the
    # input uniform on +-1 from the entropy [seed, 1]
    cfg = _SMALL_CONFIGS[kind]
    dims = probe.standalone_array_shape(cfg)
    x = np.random.default_rng([6, 1]).random(dims, dtype=probe.WORKLOAD_DTYPE)
    x *= 2.0
    x -= 1.0
    expected = forward_workload(cfg, x, probe.init_weights(cfg, 6))
    out = probe.make_workload(cfg, seed=6)()
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind, shape, expected", [
    (LayerKind.MAXPOOL2D, (5, 4, 20, 20), (2, 2, 6, 6)),
    (LayerKind.RELU, (9, 7), (2, 7)),
    (LayerKind.CONV2D, (2, 2, 11, 11), (2, 2, 6, 6)),
], ids=["MaxPool2d", "ReLU", "Conv2d"])
def test_forward_workload_refuses_any_other_input_shape(kind, shape, expected):
    # each kernel would run on such an input, returning an output propagate_shape does not give
    refusal = f"{kind.value} expects an input of shape {expected}, got {shape}"
    with pytest.raises(ShapeError, match=f"^{re.escape(refusal)}$"):
        forward_workload(_SMALL_CONFIGS[kind], np.zeros(shape, dtype=probe.WORKLOAD_DTYPE))


def test_make_workload_refuses_a_kind_with_no_standalone_workload():
    with pytest.raises(ValidationError, match="^Dropout is not individually measurable$"):
        probe.make_workload(LayerConfig(kind=LayerKind.DROPOUT))


def test_init_weights_keeps_one_copy_of_the_weight():
    cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=2000, out_channels=2000)
    tracemalloc.start()
    try:
        weights = probe.init_weights(cfg, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights["weight"].dtype == weights["bias"].dtype == np.float32
    assert peak < 1.5 * weights["weight"].nbytes


def sequential_weights(cfg, seed):
    """The weights as one generator draws them, the weight and then the bias."""
    shape = (cfg.out_channels, cfg.in_channels)
    scale = 1.0 / math.sqrt(cfg.in_channels)
    rng = np.random.default_rng(seed)

    def uniform(size):
        u = rng.random(size, dtype=np.float32)
        u *= 2 * scale
        u -= scale
        return u

    return {"weight": uniform(shape), "bias": uniform(shape[0])}


def cpus(count):
    return lambda pid: set(range(count))


def counted_threads(monkeypatch):
    """Patch ``threading.Thread`` to record each thread made; returns the record."""
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Counted)
    return made


_THRESHOLD = probe._PARALLEL_ELEMENTS
_BLOCK = 2 * probe._DRAW_BLOCK  # floats converted at a time


class TestSplitWeightDraw:
    """A weight and bias drawn in pieces on every CPU are byte for byte one
    sequential draw, and no helper thread outlives the draw."""

    # above the parallel threshold
    LARGE = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=2000, out_channels=2000)

    @staticmethod
    def check_split_draw(out_channels, in_channels, workers, seed):
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=in_channels, out_channels=out_channels)
        expected = sequential_weights(cfg, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", cpus(workers), raising=False)
            weights = probe.init_weights(cfg, seed)
        assert weights["weight"].dtype == weights["bias"].dtype == np.float32
        assert weights["weight"].tobytes() == expected["weight"].tobytes()
        assert weights["bias"].tobytes() == expected["bias"].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        out_channels=st.integers(1, 4),
        in_channels=st.integers(_THRESHOLD // 4, _THRESHOLD),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # the weight and bias together: below the threshold and odd, at it, and above it and odd
    @example(out_channels=1, in_channels=_THRESHOLD - 2, workers=2, seed=0)
    @example(out_channels=1, in_channels=_THRESHOLD - 1, workers=2, seed=0)
    @example(out_channels=3, in_channels=_THRESHOLD // 3 + 1, workers=2, seed=0)
    @example(out_channels=4, in_channels=_THRESHOLD // 4 + _BLOCK // 4, workers=3, seed=1)
    @example(out_channels=3, in_channels=_THRESHOLD // 3 + _BLOCK + 1, workers=4, seed=2)
    def test_split_draw_is_the_sequential_draw(self, out_channels, in_channels, workers, seed):
        self.check_split_draw(out_channels, in_channels, workers, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        out_channels=st.integers(1, 7),
        in_channels=st.integers(1, 40),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(out_channels=9, in_channels=1, workers=2, seed=0)  # the last piece starts inside the bias
    def test_split_draw_at_small_thresholds(self, out_channels, in_channels, workers, seed):
        """Many pieces and block boundaries, with the threshold and block shrunk to a few elements."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probe, "_PARALLEL_ELEMENTS", 16)
            mp.setattr(probe, "_DRAW_BLOCK", 3)
            self.check_split_draw(out_channels, in_channels, workers, seed)

    @pytest.mark.parametrize("cfg", [_SMALL_CONFIGS[LayerKind.CONV2D], _SMALL_CONFIGS[LayerKind.LINEAR], LARGE],
                             ids=["Conv2d", "Linear", "large Linear"])
    def test_weight_and_bias_are_views_of_one_draw(self, cfg):
        weights = probe.init_weights(cfg, seed=3)
        base = weights["weight"].base
        assert base is not None and weights["bias"].base is base
        assert base.size == weights["weight"].size + weights["bias"].size

    def test_alexnet_weights_pinned(self):
        """The weights ``make_architecture_workload`` draws for AlexNet at batch 1,
        pinned by a digest taken when every weight was one sequential draw."""
        digest = hashlib.sha256()
        for i, layer in enumerate(load_architecture("alexnet").with_batch(1).layers):
            for tensor in probe.init_weights(layer, i).values():
                digest.update(tensor.tobytes())
        assert digest.hexdigest() == "f7762878ed7d352fdefc70febfec7463720aafe2607dea322b36cdf0b463e0bd"

    def test_no_thread_outlives_a_draw(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", cpus(4), raising=False)
        before = threading.active_count()
        probe.init_weights(self.LARGE)
        assert threading.active_count() == before
        probe.make_workload(self.LARGE)
        assert threading.active_count() == before
        probe.make_architecture_workload(load_architecture("alexnet"), 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_thread_per_cpu_and_none_on_one_cpu(self, monkeypatch, workers):
        made = counted_threads(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(workers), raising=False)
        probe.init_weights(self.LARGE)
        assert len(made) == workers - 1  # the calling thread draws the last piece

    def test_small_weight_starts_no_thread(self, monkeypatch):
        made = counted_threads(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(4), raising=False)
        probe.init_weights(LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=1000, out_channels=1000))
        assert made == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    @pytest.mark.filterwarnings("ignore:load average")
    def test_pinned_measurement_draws_on_one_thread(self, tmp_path, monkeypatch):
        made = counted_threads(monkeypatch)
        root = make_powercap_tree(tmp_path, [("package-0", RAPL_RANGE_UJ, 5)])
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(root))
        # the default machine and the real workload, in a window that one pass fills
        result = measure_config(self.LARGE, standalone_macs(self.LARGE), window_seconds=1e-9, repeats=1,
                                pin_to_cpu=min(os.sched_getaffinity(0)))
        assert result.repeats[0].passes == 1
        assert made == []

    def test_failing_helper_is_raised_and_joined(self, monkeypatch):
        caller = threading.current_thread()
        fill = probe._uniform_blocks

        def fail_off_the_caller(bits, out, scale):
            if threading.current_thread() is not caller:
                raise RuntimeError("helper failed")
            fill(bits, out, scale)

        monkeypatch.setattr(probe, "_uniform_blocks", fail_off_the_caller)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(4), raising=False)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            probe.init_weights(self.LARGE)
        assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:load average")
class TestBulkDraw:
    """Floats converted in bulk from raw PCG64 output are those ``Generator.random``
    draws from a fresh stream."""

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 40),
        block=st.integers(1, 9),  # in 64-bit outputs, two floats each
        scale=st.floats(1e-3, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=2 * _BLOCK + 1, block=probe._DRAW_BLOCK, scale=1.0, seed=0)
    @example(size=2 * _BLOCK, block=probe._DRAW_BLOCK, scale=0.01, seed=1)
    def test_bulk_draw_is_generator_random(self, size, block, scale, seed):
        expected = np.random.default_rng(seed).random(size, dtype=np.float32)
        expected *= 2 * scale
        expected -= scale
        out = np.empty(size, np.float32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probe, "_DRAW_BLOCK", block)
            probe._uniform_blocks(np.random.PCG64(seed), out, scale)
        assert out.tobytes() == expected.tobytes()

    # a ReLU input above the parallel threshold, of an odd number of elements
    LARGE_INPUT = LayerConfig(kind=LayerKind.RELU, batch_size=3, in_channels=_THRESHOLD // 3 + 5)

    @staticmethod
    def bound_input(run):
        return inspect.getclosurevars(run).nonlocals["x"]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_input_draw_is_one_sequential_draw_on_every_cpu(self, monkeypatch, workers):
        made = counted_threads(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(workers), raising=False)
        x = self.bound_input(probe.make_workload(self.LARGE_INPUT, seed=5))
        assert len(made) == workers - 1  # none under a one-CPU affinity
        expected = np.random.default_rng([5, 1]).random(x.shape, dtype=np.float32)
        expected *= 2.0
        expected -= 1.0
        assert x.dtype == np.float32 and x.tobytes() == expected.tobytes()

    def test_input_draw_is_independent_of_the_weights(self):
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=4, in_channels=300, out_channels=2)
        run = probe.make_workload(cfg, seed=9)
        x = self.bound_input(run)
        weights = inspect.getclosurevars(run).nonlocals["weights"]
        reference = probe.init_weights(cfg, 9)
        assert all(weights[k].tobytes() == reference[k].tobytes() for k in ("weight", "bias"))
        # neither the start of the weights' stream nor where the weights leave it
        for skip in (0, sum(w.size for w in weights.values())):
            weights_stream = np.random.default_rng(9)
            weights_stream.random(skip, dtype=np.float32)
            draw = weights_stream.random(x.size, dtype=np.float32) * 2 - 1
            assert np.count_nonzero(x.reshape(-1) == draw) == 0
        assert float(x.min()) >= -1.0 and float(x.max()) < 1.0


class TestRaplDiscovery:
    def test_discovers_package_domains(self, tmp_path, monkeypatch):
        root = make_powercap_tree(tmp_path, [("package-0", 262143328850, 12345), ("psys", 10**9, 1)])
        sub = tmp_path / "intel-rapl:0:0"
        sub.mkdir()
        (sub / "name").write_text("core\n")
        (sub / "max_energy_range_uj").write_text("1000\n")
        (sub / "energy_uj").write_text("5\n")
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(root))
        domains = discover_rapl_domains()
        assert [d.name for d in domains] == ["package-0"]
        assert domains[0].max_range_uj == 262143328850
        assert probe.read_energy(domains[0]) == 12345

    def test_env_override(self, tmp_path, monkeypatch):
        make_powercap_tree(tmp_path, [("package-0", 1000, 1)])
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(tmp_path))
        assert len(discover_rapl_domains()) == 1

    def test_unavailable_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(tmp_path / "nothing"))
        unavailable = (f"no readable RAPL package domains under {tmp_path / 'nothing'} "
                       "(missing powercap support or insufficient permissions)")
        with pytest.raises(JoulecastError, match=f"^{re.escape(unavailable)}$"):
            probe.RaplMachine()

    @pytest.mark.parametrize("files, cause, message", [
        # a domain missing its name or range, or not a package domain, is not discovered
        ({"max_energy_range_uj": "1000\n", "energy_uj": "5\n"}, None, "no readable RAPL package domains under {root} "
         "(missing powercap support or insufficient permissions)"),
        ({"name": "package-0\n", "energy_uj": "5\n"}, None, "no readable RAPL package domains under {root} "
         "(missing powercap support or insufficient permissions)"),
        ({"name": "psys\n", "max_energy_range_uj": "1000\n", "energy_uj": "5\n"}, None,
         "no readable RAPL package domains under {root} (missing powercap support or insufficient permissions)"),
        # a domain whose name is not ASCII, or whose range is not a positive integer, is not discovered
        ({"name": "package-\u00e9\n", "max_energy_range_uj": "1000\n", "energy_uj": "5\n"}, None,
         "no readable RAPL package domains under {root} (missing powercap support or insufficient permissions)"),
        ({"name": "package-0\n", "max_energy_range_uj": "abc\n", "energy_uj": "5\n"}, None,
         "no readable RAPL package domains under {root} (missing powercap support or insufficient permissions)"),
        ({"name": "package-0\n", "max_energy_range_uj": "0\n", "energy_uj": "5\n"}, None,
         "no readable RAPL package domains under {root} (missing powercap support or insufficient permissions)"),
        ({"name": "package-0\n", "max_energy_range_uj": "-1000\n", "energy_uj": "5\n"}, None,
         "no readable RAPL package domains under {root} (missing powercap support or insufficient permissions)"),
        # a discovered domain whose counter cannot be read
        ({"name": "package-0\n", "max_energy_range_uj": "1000\n"}, probe.CounterReadError,
         "RAPL counters not readable: {counter}: [Errno 2] No such file or directory: '{counter}'"),
        ({"name": "package-0\n", "max_energy_range_uj": "1000\n", "energy_uj": "abc\n"}, probe.CounterReadError,
         "RAPL counters not readable: {counter}: invalid literal for int() with base 10: 'abc'"),
    ])
    def test_tree_refusals(self, tmp_path, monkeypatch, files, cause, message):
        domain = tmp_path / "intel-rapl:0"
        domain.mkdir()
        for name, text in files.items():
            (domain / name).write_bytes(text.encode("utf-8"))
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(tmp_path))
        expected = message.format(root=tmp_path, counter=domain / "energy_uj")
        with pytest.raises(JoulecastError, match=f"^{re.escape(expected)}$") as info:
            probe.RaplMachine()
        assert type(info.value) is JoulecastError
        assert str(info.value) == expected
        assert type(info.value.__cause__) is (type(None) if cause is None else cause)

    @pytest.mark.filterwarnings("ignore:load average")  # the host's load, not the code, decides it
    def test_machine_reads(self, tmp_path, monkeypatch):
        root = make_powercap_tree(tmp_path, [("package-0", 2 * 10**6, 111), ("package-1", 10**6, 222)])
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(root))
        machine = probe.RaplMachine()
        assert machine.read_uj() == (111, 222)
        assert machine.domain_names == ("package-0", "package-1")
        assert machine.safe_seconds == 1e-3  # the smaller range, 1 J, at 1 kW


@pytest.mark.filterwarnings("ignore:load average")
class TestRaplWindow:
    """``RaplMachine.run_window`` meters its window on a fake powercap tree whose
    counters ``probe.read_energy`` scripts, one reading list per domain."""

    def cfg(self):
        return LayerConfig(kind=LayerKind.RELU, batch_size=1, in_channels=1_000)

    def script(self, tmp_path, monkeypatch, readings, max_range=RAPL_RANGE_UJ):
        """``readings`` maps each package domain to its counter's readings ('fail'
        raises), the first taken when the machine is built."""
        root = make_powercap_tree(tmp_path, [(name, max_range, 0) for name in readings])
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(root))
        left = {name: list(values) for name, values in readings.items()}

        def read_energy(domain):
            value = left[domain.name].pop(0)
            if value == "fail":
                raise probe.CounterReadError(f"{domain.counter_path}: scripted failure")
            return value

        monkeypatch.setattr(probe, "read_energy", read_energy)
        return left

    def test_domains_summed_across_a_wrap(self, tmp_path, monkeypatch):
        left = self.script(tmp_path, monkeypatch,
                           {"package-0": [5, 100, 250], "package-1": [5, RAPL_RANGE_UJ - 10, 10]})
        result = measure_config(self.cfg(), 1_000, window_seconds=1e-3, repeats=1)
        assert result.repeats[0].energy_j == 170 / 1e6  # 150 uJ, and 20 uJ across package-1's wrap
        assert result.domains == ("package-0", "package-1")
        assert left == {"package-0": [], "package-1": []}  # read once when built, then around the window

    def test_window_past_the_safe_interval_is_refused(self, tmp_path, monkeypatch):
        # a 10 uJ range is 10 ns at 1 kW, and one pass over 100,000 floats takes longer
        left = self.script(tmp_path, monkeypatch, {"package-0": [0, 0], "package-1": [0, 0]}, max_range=10)
        cfg = LayerConfig(kind=LayerKind.RELU, batch_size=1, in_channels=100_000)
        with pytest.raises(CounterRangeError, match=r"^a .* s window reached the counters' safe interval of 1e-08 s$"):
            measure_config(cfg, 100_000, window_seconds=1e-9, repeats=3)
        assert left == {"package-0": [], "package-1": []}  # refused before the window's closing read

    def test_failed_read_mid_measurement_drops_the_repeat(self, tmp_path, monkeypatch):
        left = self.script(tmp_path, monkeypatch, {"package-0": [0, 0, 1_000, 1_000, "fail", 2_000, 2_500]})
        with pytest.warns(UserWarning, match="dropping repeat with failed counter read: .*scripted failure"):
            result = measure_config(self.cfg(), 1_000, window_seconds=1e-3, repeats=3)
        assert [r.energy_j for r in result.repeats] == [1_000 / 1e6, 500 / 1e6]
        assert result.failed_repeats == 1
        assert left == {"package-0": []}


HAVE_RAPL = bool(discover_rapl_domains())


@pytest.mark.skipif(not HAVE_RAPL, reason="no readable RAPL powercap domains on this host")
def test_rapl_smoke_measurement():
    cfg = LayerConfig(kind=LayerKind.TANH, batch_size=8, in_channels=100_000)
    result = measure_config(cfg, standalone_macs(cfg), window_seconds=0.5, repeats=1)
    assert result.energy_per_pass_j > 0.0
