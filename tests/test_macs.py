import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from joulecast.arch import (
    PRESET_NAMES,
    LayerConfig,
    LayerKind,
    ResolvedLayer,
    TensorShape,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
    propagate_shape,
)
from joulecast.errors import MacOverflowError
from joulecast.macs import architecture_macs, layer_macs, standalone_macs

# Table of per-type totals for a batch-1 VGG11 pass with bias accumulates on.
VGG11_TOTALS = {
    LayerKind.CONV2D: 7_492_882_432,
    LayerKind.LINEAR: 123_642_856,
    LayerKind.MAXPOOL2D: 3_060_736,
    LayerKind.RELU: 3_717_120,
}


# ---------------------------------------------------------------------------
# independent loop-counting oracles
# ---------------------------------------------------------------------------

def conv_oracle(batch, c_in, c_out, side, k, stride, padding):
    """Count multiplies in a direct six-loop convolution."""
    out_side = (side + 2 * padding - k) // stride + 1
    count = 0
    for _b in range(batch):
        for _co in range(c_out):
            for _i in range(out_side):
                for _j in range(out_side):
                    for _ci in range(c_in):
                        for _ki in range(k):
                            for _kj in range(k):
                                count += 1
    return count


def linear_oracle(batch, c_in, c_out):
    count = 0
    for _b in range(batch):
        for _o in range(c_out):
            for _i in range(c_in):
                count += 1
    return count


def pool_oracle(batch, channels, side, k, stride, padding):
    """Count window-element visits in naive pooling, halved onto the MAC scale."""
    out_side = (side + 2 * padding - k) // stride + 1
    visits = 0
    for _b in range(batch):
        for _c in range(channels):
            for _i in range(out_side):
                for _j in range(out_side):
                    visits += k * k
    return visits // 2


def conv_config(batch, c_in, c_out, side, k, stride, padding):
    return LayerConfig(
        kind=LayerKind.CONV2D, batch_size=batch, image_size=side, kernel_size=k,
        in_channels=c_in, out_channels=c_out, stride=stride, padding=padding,
    )


class TestConv:
    def test_unit_conv_is_one_mac(self):
        cfg = conv_config(1, 1, 1, 1, 1, 1, 0)
        assert standalone_macs(cfg, include_bias=False) == 1
        assert standalone_macs(cfg, include_bias=True) == 2

    def test_vgg11_first_conv_matches_oracle(self):
        got = standalone_macs(conv_config(1, 3, 64, 224, 3, 1, 1), include_bias=False)
        assert got == 86_704_128
        # the closed form must equal a literal multiply count on a shrunken twin
        assert standalone_macs(conv_config(1, 3, 8, 14, 3, 1, 1), include_bias=False) == conv_oracle(
            1, 3, 8, 14, 3, 1, 1
        )


class TestLinear:
    def test_unit(self):
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=1, out_channels=1)
        assert standalone_macs(cfg, include_bias=False) == 1

    def test_square_4096(self):
        cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=1, in_channels=4096, out_channels=4096)
        got = standalone_macs(cfg, include_bias=False)
        assert got == 16_777_216
        assert got == linear_oracle(1, 64, 64) * (4096 // 64) ** 2  # scaled-down oracle
        assert linear_oracle(3, 17, 29) == standalone_macs(
            LayerConfig(kind=LayerKind.LINEAR, batch_size=3, in_channels=17, out_channels=29),
            include_bias=False,
        )


class TestMaxPool:
    def test_floor_halving(self):
        cfg = LayerConfig(
            kind=LayerKind.MAXPOOL2D, batch_size=2, image_size=1, kernel_size=1,
            in_channels=1, stride=1, padding=0,
        )
        assert standalone_macs(cfg) == 1  # floor(2/2)

    def test_vgg11_first_pool(self):
        cfg = LayerConfig(
            kind=LayerKind.MAXPOOL2D, batch_size=1, image_size=224, kernel_size=2,
            in_channels=64, stride=2, padding=0,
        )
        assert standalone_macs(cfg) == 1_605_632
        assert pool_oracle(1, 64, 28, 2, 2, 0) == standalone_macs(
            LayerConfig(kind=LayerKind.MAXPOOL2D, batch_size=1, image_size=28,
                        kernel_size=2, in_channels=64, stride=2, padding=0),
        )


def relu_layer_macs(shape: TensorShape) -> int:
    """``layer_macs`` of a ReLU applied to ``shape``."""
    relu = LayerConfig(kind=LayerKind.RELU)
    return layer_macs(ResolvedLayer(0, relu, shape, propagate_shape(shape, relu)))


class TestRelu:
    def test_tiny(self):
        assert relu_layer_macs(TensorShape(1, 1, 1, 2)) == 1

    def test_flat_50k(self):
        assert relu_layer_macs(TensorShape(1, 50_000, 1, 1)) == 25_000


class TestArchitecture:
    def test_vgg11_per_type_totals(self):
        per_layer, total = architecture_macs(load_architecture("vgg11"), include_bias=True)
        by_kind: dict[LayerKind, int] = {}
        for _, kind, macs in per_layer:
            by_kind[kind] = by_kind.get(kind, 0) + macs
        assert by_kind == VGG11_TOTALS
        assert total == sum(VGG11_TOTALS.values())

    def test_empty_architecture_total_zero(self):
        from joulecast.arch import ArchitectureSpec

        arch = ArchitectureSpec("none", TensorShape(1, 3, 8, 8), ())
        per_layer, total = architecture_macs(arch)
        assert per_layer == [] and total == 0

    def test_batch_doubling(self):
        arch = load_architecture("vgg11")
        one, total_one = architecture_macs(arch.with_batch(1))
        two, total_two = architecture_macs(arch.with_batch(2))
        assert total_two == 2 * total_one
        assert all(m2 == 2 * m1 for (_, _, m1), (_, _, m2) in zip(one, two))

    def test_total_is_exact_sum(self):
        per_layer, total = architecture_macs(load_architecture("alexnet"))
        assert total == sum(m for _, _, m in per_layer)

    def test_presets_per_layer_pinned(self):
        # every preset's per-layer counts at batch 1, 8 and 64, with and without bias
        lines = []
        for name in PRESET_NAMES:
            for batch in (1, 8, 64):
                for include_bias in (True, False):
                    per_layer, total = architecture_macs(load_architecture(name).with_batch(batch), include_bias)
                    lines += [f"{name} {batch} {include_bias} {i} {kind.value} {macs}" for i, kind, macs in per_layer]
                    lines.append(f"{name} {batch} {include_bias} total {total}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e0b74e611800c6449e2d3d7aaf1a698fabeb9fcfc7fa892ff7d0c077bebdb115"


def test_overflow_guard():
    cfg = LayerConfig(
        kind=LayerKind.LINEAR, batch_size=512, in_channels=5000, out_channels=5000,
    )
    out = TensorShape(512, 5000, 1, 1)
    layer_macs(ResolvedLayer(0, cfg, TensorShape(512, 5000, 1, 1), out))  # in range
    with pytest.raises(MacOverflowError):
        layer_macs(ResolvedLayer(0, cfg, TensorShape(512, 5000, 100_000, 100_000), out))


small_conv = st.tuples(
    st.integers(1, 4),  # batch
    st.integers(1, 4),  # c_in
    st.integers(1, 4),  # c_out
    st.integers(2, 8),  # side
    st.integers(1, 3),  # kernel
    st.integers(1, 3),  # stride
    st.integers(0, 2),  # padding
)


@settings(max_examples=60, deadline=None)
@given(small_conv)
def test_conv_matches_loop_oracle(params):
    batch, c_in, c_out, side, k, stride, padding = params
    if side + 2 * padding < k:
        return
    cfg = conv_config(batch, c_in, c_out, side, k, stride, padding)
    assert standalone_macs(cfg, include_bias=False) == conv_oracle(batch, c_in, c_out, side, k, stride, padding)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 40))
def test_linear_matches_loop_oracle(batch, c_in, c_out):
    cfg = LayerConfig(kind=LayerKind.LINEAR, batch_size=batch, in_channels=c_in, out_channels=c_out)
    assert standalone_macs(cfg, include_bias=False) == linear_oracle(batch, c_in, c_out)


@settings(max_examples=100, deadline=None)
@given(small_conv)
def test_batch_linearity(params):
    batch, c_in, c_out, side, k, stride, padding = params
    if side + 2 * padding < k:
        return
    one = standalone_macs(conv_config(1, c_in, c_out, side, k, stride, padding))
    many = standalone_macs(conv_config(batch, c_in, c_out, side, k, stride, padding))
    assert many == batch * one


@settings(max_examples=100, deadline=None)
@given(small_conv, st.sampled_from(["in_channels", "out_channels", "batch_size"]))
def test_monotone_in_multiplicative_params(params, grown):
    batch, c_in, c_out, side, k, stride, padding = params
    if side + 2 * padding < k:
        return
    base = dict(batch_size=batch, in_channels=c_in, out_channels=c_out,
                image_size=side, kernel_size=k, stride=stride, padding=padding)
    bigger = dict(base)
    bigger[grown] += 1
    cfg = LayerConfig(kind=LayerKind.CONV2D, **base)
    cfg_big = LayerConfig(kind=LayerKind.CONV2D, **bigger)
    assert standalone_macs(cfg_big) >= standalone_macs(cfg)


def test_elementwise_matches_relu():
    shape = TensorShape(3, 7, 5, 5)
    assert relu_layer_macs(shape) == (3 * 7 * 25) // 2


@pytest.mark.parametrize("include_bias", [True, False])
@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_standalone_rewrite_keeps_layer_macs(name, batch, include_bias):
    arch = load_architecture(name).with_batch(batch)
    for resolved in extract_predictable_layers(arch):
        config = as_standalone_config(resolved.config, resolved.input_shape)
        assert standalone_macs(config, include_bias) == layer_macs(resolved, include_bias), resolved.index


@pytest.mark.parametrize("include_bias", [True, False])
@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_argument_counts_as_rebatched_layer(name, batch, include_bias):
    # no MAC rule reads a shape's batch: a layer resolved at batch 2 counts
    # at any batch as the layer resolved at that batch does
    at_two = extract_predictable_layers(load_architecture(name).with_batch(2))
    rebatched = extract_predictable_layers(load_architecture(name).with_batch(batch))
    assert [layer_macs(r, include_bias, batch) for r in at_two] == [
        layer_macs(r, include_bias) for r in rebatched
    ]
    assert architecture_macs(load_architecture(name).with_batch(2), include_bias, batch) == architecture_macs(
        load_architecture(name).with_batch(batch), include_bias
    )


def test_halving_follows_the_batch():
    # a 3x3 window over one output element (9 ops) and one element after it:
    # halving before multiplying by the batch would give 8 and 0 at batch 2
    arch = load_architecture({
        "name": "odd", "input": {"batch": 1, "channels": 1, "height": 3, "width": 3},
        "layers": [{"kind": "MaxPool2d", "kernel_size": 3, "stride": 1, "padding": 0}, {"kind": "Flatten"},
                   {"kind": "Sigmoid"}],
    })
    pool, act = extract_predictable_layers(arch)
    assert (layer_macs(pool, batch=2), layer_macs(act, batch=2)) == (9, 1)
    assert (layer_macs(pool, batch=3), layer_macs(act, batch=3)) == (13, 1)
