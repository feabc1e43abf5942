"""Multiply-accumulate (MAC) counts per forward pass, exact integer arithmetic.

Each predictable kind's MAC rule is on its ``arch.KIND_SPECS`` row, with the
counting conventions; every count is checked here against the 64-bit budget.
"""
from __future__ import annotations

from .arch import (
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    ResolvedLayer,
    extract_predictable_layers,
    propagate_shape,
    standalone_input_shape,
    standalone_spec,
)
from .errors import JoulecastError, MacOverflowError

INT64_MAX = 2**63 - 1


def _checked(value: int, where: str = "") -> int:
    if value > INT64_MAX:
        raise MacOverflowError(f"{where}MAC count {value} exceeds the 64-bit budget")
    return value


def layer_macs(resolved: ResolvedLayer, include_bias: bool = True, batch: int | None = None) -> int:
    """MAC count of one resolved layer within an architecture, at ``batch``
    (by default the batch of its shapes)."""
    config = resolved.config
    rule = standalone_spec(config.kind).macs
    in_shape = resolved.input_shape
    return _checked(
        rule(config, in_shape, resolved.output_shape, in_shape.batch if batch is None else batch, include_bias)
    )


def standalone_macs(config: LayerConfig, include_bias: bool = True) -> int:
    """MAC count of a standalone config (shapes derived from its own fields)."""
    in_shape = standalone_input_shape(config)
    return layer_macs(ResolvedLayer(0, config, in_shape, propagate_shape(in_shape, config)), include_bias)


def layer_error(resolved: ResolvedLayer, exc: JoulecastError) -> JoulecastError:
    """``exc`` again, its message prefixed with the layer it arose in."""
    return type(exc)(f"layer {resolved.index} ({resolved.config.kind.value}): {exc}")


def architecture_macs(
    arch: ArchitectureSpec, include_bias: bool = True, batch: int | None = None
) -> tuple[list[tuple[int, LayerKind, int]], int]:
    """Per-layer MAC counts for the predictable layers plus their exact total,
    at ``batch`` (by default the batch of the spec's shapes)."""
    per_layer = []
    total = 0
    for resolved in extract_predictable_layers(arch):
        try:
            macs = layer_macs(resolved, include_bias, batch)
        except MacOverflowError as exc:
            raise layer_error(resolved, exc) from exc
        per_layer.append((resolved.index, resolved.config.kind, macs))
        total = _checked(total + macs, "total: ")
    return per_layer, total


__all__ = [
    "INT64_MAX",
    "layer_macs",
    "standalone_macs",
    "layer_error",
    "architecture_macs",
]
