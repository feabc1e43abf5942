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


def _checked(value: int) -> int:
    if value > INT64_MAX:
        raise MacOverflowError(f"MAC count {value} exceeds the 64-bit budget")
    return value


def conv2d_macs(config: LayerConfig, out: TensorShape, include_bias: bool = True) -> int:
    """k^2 * w_out * h_out * c_in * c_out * B, plus one MAC per output element for bias."""
    if config.kind is not LayerKind.CONV2D:
        raise ValidationError(f"conv2d_macs got a {config.kind.value} config")
    macs = (
        config.kernel_size**2
        * out.width
        * out.height
        * config.in_channels
        * config.out_channels
        * out.batch
    )
    if include_bias:
        macs += out.width * out.height * config.out_channels * out.batch
    return _checked(macs)


def linear_macs(config: LayerConfig, in_shape: TensorShape, include_bias: bool = True) -> int:
    """w_in * h_in * c_in * c_out * B, plus c_out * B for bias."""
    if config.kind is not LayerKind.LINEAR:
        raise ValidationError(f"linear_macs got a {config.kind.value} config")
    macs = in_shape.width * in_shape.height * config.in_channels * config.out_channels * in_shape.batch
    if include_bias:
        macs += config.out_channels * in_shape.batch
    return _checked(macs)


def maxpool2d_macs(config: LayerConfig, out: TensorShape) -> int:
    """(k^2 * w_out * h_out * c_in * B) / 2: comparison ops halved onto the MAC scale."""
    if config.kind is not LayerKind.MAXPOOL2D:
        raise ValidationError(f"maxpool2d_macs got a {config.kind.value} config")
    ops = config.kernel_size**2 * out.width * out.height * out.channels * out.batch
    return _checked(ops // 2)


def relu_macs(in_shape: TensorShape) -> int:
    """(w_in * h_in * c_in * B) / 2: one elementwise op per element, halved; every activation's rule."""
    return _checked((in_shape.per_sample_elements * in_shape.batch) // 2)


# the MAC rule of every kind that has one: (resolved layer, include_bias) -> MACs
_MAC_RULES = {
    LayerKind.CONV2D: lambda r, bias: conv2d_macs(r.config, r.output_shape, bias),
    LayerKind.MAXPOOL2D: lambda r, bias: maxpool2d_macs(r.config, r.output_shape),
    LayerKind.LINEAR: lambda r, bias: linear_macs(r.config, r.input_shape, bias),
    LayerKind.RELU: lambda r, bias: relu_macs(r.input_shape),
    LayerKind.SIGMOID: lambda r, bias: relu_macs(r.input_shape),
    LayerKind.TANH: lambda r, bias: relu_macs(r.input_shape),
    LayerKind.SOFTMAX: lambda r, bias: relu_macs(r.input_shape),
}


def layer_macs(resolved: ResolvedLayer, include_bias: bool = True) -> int:
    """MAC count of one resolved layer within an architecture."""
    rule = _MAC_RULES.get(resolved.config.kind)
    if rule is None:
        raise ValidationError(f"{resolved.config.kind.value} has no MAC count")
    return rule(resolved, include_bias)


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
        macs = layer_macs(resolved, include_bias)
        per_layer.append((resolved.index, resolved.config.kind, macs))
        total = _checked(total + macs)
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
