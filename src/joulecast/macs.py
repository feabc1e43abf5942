"""Multiply-accumulate (MAC) counts per forward pass, exact integer arithmetic.

Convolution and linear layers count one MAC per multiply; when bias is
included, one extra accumulate per biased output element is added. Pooling
and activations perform no multiplies, so their op counts are halved to
express them on the MAC scale (floor division; one op per element visited).
"""
from __future__ import annotations

from .arch import (
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    ResolvedLayer,
    TensorShape,
    conv_output_side,
    extract_predictable_layers,
    propagate_shape,
    standalone_input_shape,
)
from .errors import MacOverflowError, ValidationError

INT64_MAX = 2**63 - 1


def _checked(value: int, where: str = "") -> int:
    if value > INT64_MAX:
        raise MacOverflowError(f"{where}MAC count {value} exceeds the 64-bit budget")
    return value


# The MAC rules, one per formula: (config, shape, batch, include_bias) -> MACs.
# Each reads the channels and sides of one shape (see ``_MAC_RULES``) and
# takes the batch as an argument, so a layer resolved at one batch counts at
# any other.


def _conv2d(config: LayerConfig, out: TensorShape, batch: int, include_bias: bool) -> int:
    macs = config.kernel_size**2 * out.width * out.height * config.in_channels * config.out_channels * batch
    if include_bias:
        macs += out.width * out.height * config.out_channels * batch
    return _checked(macs)


def _linear(config: LayerConfig, in_shape: TensorShape, batch: int, include_bias: bool) -> int:
    macs = in_shape.width * in_shape.height * config.in_channels * config.out_channels * batch
    if include_bias:
        macs += config.out_channels * batch
    return _checked(macs)


def _maxpool2d(config: LayerConfig, out: TensorShape, batch: int, include_bias: bool) -> int:
    ops = config.kernel_size**2 * out.width * out.height * out.channels * batch
    return _checked(ops // 2)


def _elementwise(config: LayerConfig | None, in_shape: TensorShape, batch: int, include_bias: bool) -> int:
    return _checked((in_shape.per_sample_elements * batch) // 2)


def conv2d_macs(config: LayerConfig, out: TensorShape, include_bias: bool = True) -> int:
    """k^2 * w_out * h_out * c_in * c_out * B, plus one MAC per output element for bias."""
    if config.kind is not LayerKind.CONV2D:
        raise ValidationError(f"conv2d_macs got a {config.kind.value} config")
    return _conv2d(config, out, out.batch, include_bias)


def linear_macs(config: LayerConfig, in_shape: TensorShape, include_bias: bool = True) -> int:
    """w_in * h_in * c_in * c_out * B, plus c_out * B for bias."""
    if config.kind is not LayerKind.LINEAR:
        raise ValidationError(f"linear_macs got a {config.kind.value} config")
    return _linear(config, in_shape, in_shape.batch, include_bias)


def maxpool2d_macs(config: LayerConfig, out: TensorShape) -> int:
    """(k^2 * w_out * h_out * c_in * B) / 2: comparison ops halved onto the MAC scale."""
    if config.kind is not LayerKind.MAXPOOL2D:
        raise ValidationError(f"maxpool2d_macs got a {config.kind.value} config")
    return _maxpool2d(config, out, out.batch, False)


def relu_macs(in_shape: TensorShape) -> int:
    """(w_in * h_in * c_in * B) / 2: one elementwise op per element, halved; every activation's rule."""
    return _elementwise(None, in_shape, in_shape.batch, False)


#: the MAC rule of every kind that has one, and whether it reads the layer's
#: output shape (else its input shape)
_MAC_RULES = {
    LayerKind.CONV2D: (_conv2d, True),
    LayerKind.MAXPOOL2D: (_maxpool2d, True),
    LayerKind.LINEAR: (_linear, False),
    LayerKind.RELU: (_elementwise, False),
    LayerKind.SIGMOID: (_elementwise, False),
    LayerKind.TANH: (_elementwise, False),
    LayerKind.SOFTMAX: (_elementwise, False),
}


def layer_macs(resolved: ResolvedLayer, include_bias: bool = True, batch: int | None = None) -> int:
    """MAC count of one resolved layer within an architecture, at ``batch``
    (by default the batch of its shapes)."""
    config = resolved.config
    try:
        rule, reads_output = _MAC_RULES[config.kind]
    except KeyError:
        raise ValidationError(f"{config.kind.value} has no MAC count") from None
    shape = resolved.output_shape if reads_output else resolved.input_shape
    return rule(config, shape, shape.batch if batch is None else batch, include_bias)


def standalone_macs(config: LayerConfig, include_bias: bool = True) -> int:
    """MAC count of a standalone config (shapes derived from its own fields)."""
    in_shape = standalone_input_shape(config)
    return layer_macs(ResolvedLayer(0, config, in_shape, propagate_shape(in_shape, config)), include_bias)


def architecture_macs(
    arch: ArchitectureSpec, include_bias: bool = True
) -> tuple[list[tuple[int, LayerKind, int]], int]:
    """Per-layer MAC counts for the predictable layers plus their exact total."""
    per_layer = []
    total = 0
    for resolved in extract_predictable_layers(arch):
        kind = resolved.config.kind
        try:
            macs = layer_macs(resolved, include_bias)
        except MacOverflowError as exc:
            raise MacOverflowError(f"layer {resolved.index} ({kind.value}): {exc}") from exc
        per_layer.append((resolved.index, kind, macs))
        total = _checked(total + macs, "total: ")
    return per_layer, total


__all__ = [
    "INT64_MAX",
    "conv2d_macs",
    "linear_macs",
    "maxpool2d_macs",
    "relu_macs",
    "layer_macs",
    "standalone_macs",
    "architecture_macs",
    "conv_output_side",
]
