"""Layer configurations, architectures, and tensor shape propagation.

Everything here is immutable and pure: shapes are propagated by value and
architectures validate themselves on construction, so a loaded spec is
always fully resolvable.

Values are checked where they enter: a ``LayerConfig`` or ``TensorShape``
built by its constructor or ``from_dict``, and a batch where a call takes
it (``with_batch``, ``predict.estimate``). Objects derived only from checked
values (the shapes that resolution produces, the standalone configs
``estimate`` predicts from) are built unchecked with ``_instance``, as no
check could fail on them.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import ParseError, ShapeError, ValidationError


class LayerKind(str, Enum):
    CONV2D = "Conv2d"
    MAXPOOL2D = "MaxPool2d"
    LINEAR = "Linear"
    RELU = "ReLU"
    SIGMOID = "Sigmoid"
    TANH = "Tanh"
    SOFTMAX = "Softmax"
    ADAPTIVE_AVG_POOL = "AdaptiveAvgPool"
    DROPOUT = "Dropout"
    FLATTEN = "Flatten"


#: every kind by its value; a member finds itself, as it equals and hashes as its value
_KINDS_BY_VALUE = {kind.value: kind for kind in LayerKind}

# every field a LayerConfig can carry, in canonical order
_CONFIG_FIELDS = (
    "batch_size",
    "image_size",
    "kernel_size",
    "in_channels",
    "out_channels",
    "stride",
    "padding",
    "output_size",
)
_LAYER_KEYS = frozenset(("kind",) + _CONFIG_FIELDS)
#: a LayerConfig's state with no field set, in field order
_UNSET_CONFIG = dict.fromkeys(("kind",) + _CONFIG_FIELDS)
#: the check-plan floor of a field the kind does not carry: no int reaches it
_INAPPLICABLE = math.inf


def _instance(cls, state: dict):
    """An instance of the frozen dataclass ``cls`` whose ``__dict__`` is
    ``state`` (all its fields, in field order), made without a frozen
    ``__setattr__`` per field; ``__post_init__`` is not run."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", state)
    return obj


def _validated(cls, values: dict):
    """``cls(**values)`` for a frozen dataclass with a ``__post_init__`` and
    ``values`` in field order: the same instance and the same checks."""
    obj = _instance(cls, values)
    obj.__post_init__()
    return obj


@dataclass(frozen=True)
class LayerConfig:
    """Parameters of a single layer.

    A config is either *standalone* (an individually measured module, all
    applicable fields set, including ``batch_size``) or *embedded* in an
    architecture, where ``batch_size``/``image_size`` and, for pooling and
    activations, ``in_channels`` are resolved from the incoming shape.
    For activations ``in_channels`` is the flat input size. Which fields a
    kind carries, and which it requires, is in its ``KIND_SPECS`` row.
    """

    kind: LayerKind
    batch_size: int | None = None
    image_size: int | None = None
    kernel_size: int | None = None
    in_channels: int | None = None
    out_channels: int | None = None
    stride: int | None = None
    padding: int | None = None
    output_size: int | None = None

    def __post_init__(self):
        # one pass over the kind's check plan: a plain int in range takes one
        # test, anything else falls through to the exact checks in the order
        # that fixes which error comes first
        values = self.__dict__
        kind = values["kind"]
        if not isinstance(kind, LayerKind):
            kind = LayerKind(kind)
            object.__setattr__(self, "kind", kind)
        missing = False
        for name, floor, required in _CHECK_PLANS[kind]:
            value = values[name]
            if type(value) is int and value >= floor:
                continue
            if value is None:
                if required:
                    missing = True
                continue
            if floor is _INAPPLICABLE:
                raise ValidationError(f"{kind.value}: field {name!r} is not applicable")
            if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValidationError(f"{kind.value}: field {name!r} must be an integer")
            if value < floor:
                raise ValidationError(f"{kind.value}: {name}={value} is out of range")
        if missing:
            for name in KIND_SPECS[kind].required:
                if values[name] is None:
                    raise ValidationError(f"{kind.value}: field {name!r} is required")
        # only window kinds carry image_size, and they require kernel_size and padding
        image_size = values["image_size"]
        if image_size is not None and image_size + 2 * values["padding"] < values["kernel_size"]:
            raise ValidationError(
                f"{kind.value}: kernel {values['kernel_size']} exceeds padded input "
                f"{image_size}+2*{values['padding']}"
            )
        if kind is LayerKind.MAXPOOL2D and values["padding"] > values["kernel_size"] // 2:
            raise ValidationError(
                f"MaxPool2d: padding {values['padding']} exceeds half the kernel size {values['kernel_size']}"
            )

    def require_standalone(self) -> None:
        """Raise unless this config is of a measurable kind and fully
        specified for standalone measurement."""
        missing = [name for name in standalone_spec(self.kind).fields if getattr(self, name) is None]
        if missing:
            raise ValidationError(
                f"{self.kind.value}: standalone config is missing {', '.join(missing)}"
            )

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        for name in _CONFIG_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LayerConfig":
        if "kind" not in data:
            raise ValidationError("layer object is missing 'kind'")
        try:
            kind = _KINDS_BY_VALUE[data["kind"]]
        except (KeyError, TypeError):  # an unhashable kind is unknown too
            raise ValidationError(f"unknown layer kind {data['kind']!r}") from None
        if not _LAYER_KEYS.issuperset(data):
            raise ValidationError(f"{kind.value}: unknown fields {sorted(data.keys() - _LAYER_KEYS)}")
        values = dict(_UNSET_CONFIG)
        values.update(data)
        values["kind"] = kind
        return _validated(cls, values)


@dataclass(frozen=True)
class TensorShape:
    """Shape of a (batch, channels, height, width) tensor; flat vectors use h=w=1."""

    batch: int
    channels: int
    height: int
    width: int

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if type(v) is int and v >= 1:
                continue
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValidationError(f"TensorShape.{name}={v!r} must be a positive integer")

    @property
    def per_sample_elements(self) -> int:
        return self.channels * self.height * self.width

    def to_dict(self) -> dict:
        return {"batch": self.batch, "channels": self.channels, "height": self.height, "width": self.width}

    @classmethod
    def from_dict(cls, data: dict) -> "TensorShape":
        missing = {"batch", "channels", "height", "width"} - set(data)
        if missing:
            raise ValidationError(f"input shape is missing {sorted(missing)}")
        return cls(data["batch"], data["channels"], data["height"], data["width"])


def _shape(batch: int, channels: int, height: int, width: int) -> TensorShape:
    """``TensorShape(batch, channels, height, width)`` built unchecked: every
    value is a field of a checked shape or config, a product of them, or a
    ``conv_output_side``, which is at least 1."""
    return _instance(TensorShape, {"batch": batch, "channels": channels, "height": height, "width": width})


def conv_output_side(in_side: int, kernel: int, padding: int, stride: int) -> int:
    """Output side of a square convolution/pooling window sweep."""
    out = (in_side + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"kernel {kernel} with padding {padding} produces an empty output "
            f"from side {in_side}"
        )
    return out


def _window_shape(input_shape: TensorShape, layer: LayerConfig) -> TensorShape:
    """A square kernel swept over the image; channels change only if out_channels is set."""
    if layer.image_size is not None and (
        input_shape.height != layer.image_size or input_shape.width != layer.image_size
    ):
        raise ShapeError(
            f"{layer.kind.value}: declared image_size {layer.image_size} does not match "
            f"input {input_shape.height}x{input_shape.width}"
        )
    out_h = conv_output_side(input_shape.height, layer.kernel_size, layer.padding, layer.stride)
    out_w = conv_output_side(input_shape.width, layer.kernel_size, layer.padding, layer.stride)
    if layer.in_channels is not None and input_shape.channels != layer.in_channels:
        raise ShapeError(
            f"{layer.kind.value} expects {layer.in_channels} input channels, got {input_shape.channels}"
        )
    channels = input_shape.channels if layer.out_channels is None else layer.out_channels
    return _shape(input_shape.batch, channels, out_h, out_w)


def _linear_shape(input_shape: TensorShape, layer: LayerConfig) -> TensorShape:
    if input_shape.height != 1 or input_shape.width != 1:
        raise ShapeError("Linear requires a flat input (insert a Flatten layer)")
    if input_shape.channels != layer.in_channels:
        raise ShapeError(
            f"Linear expects {layer.in_channels} input features, got {input_shape.channels}"
        )
    return _shape(input_shape.batch, layer.out_channels, 1, 1)


def _elementwise_shape(input_shape: TensorShape, layer: LayerConfig) -> TensorShape:
    """Shape-preserving; a declared in_channels is the flat input size."""
    if layer.in_channels is not None and input_shape.per_sample_elements != layer.in_channels:
        raise ShapeError(
            f"{layer.kind.value} declared input size {layer.in_channels}, "
            f"got {input_shape.per_sample_elements}"
        )
    return input_shape


def _flatten_shape(input_shape: TensorShape, layer: LayerConfig) -> TensorShape:
    return _shape(input_shape.batch, input_shape.per_sample_elements, 1, 1)


def _adaptive_pool_shape(input_shape: TensorShape, layer: LayerConfig) -> TensorShape:
    return _shape(input_shape.batch, input_shape.channels, layer.output_size, layer.output_size)


# The MAC rules, one per formula: (config, input shape, output shape, batch,
# include_bias) -> the exact MAC count of one forward pass; ``macs`` checks
# it against the 64-bit budget. Each reads the channels and sides of one of
# the two shapes (the counters in ``macs`` pass None for the other) and takes
# the batch as an argument, so a layer resolved at one batch counts at any
# other. Convolution and linear layers count one MAC per multiply; when
# bias is included, one extra accumulate per biased output element is added.
# Pooling and activations perform no multiplies, so their op counts are
# halved to express them on the MAC scale (floor division of the whole
# count; one op per element visited).


def _conv2d_macs(config: LayerConfig, _input, out: TensorShape, batch: int, include_bias: bool) -> int:
    macs = config.kernel_size**2 * out.width * out.height * config.in_channels * config.out_channels * batch
    if include_bias:
        macs += out.width * out.height * config.out_channels * batch
    return macs


def _linear_macs(config: LayerConfig, in_shape: TensorShape, _output, batch: int, include_bias: bool) -> int:
    macs = in_shape.width * in_shape.height * config.in_channels * config.out_channels * batch
    if include_bias:
        macs += config.out_channels * batch
    return macs


def _maxpool2d_macs(config: LayerConfig, _input, out: TensorShape, batch: int, _bias: bool) -> int:
    return config.kernel_size**2 * out.width * out.height * out.channels * batch // 2


def _elementwise_macs(_config, in_shape: TensorShape, _output, batch: int, _bias: bool) -> int:
    return in_shape.per_sample_elements * batch // 2


MacRule = Callable[[LayerConfig, TensorShape, TensorShape, int, bool], int]


@dataclass(frozen=True)
class KindSpec:
    """The facts about one layer kind that every stage reads.

    ``fields`` are the parameters a config of this kind may set, in canonical
    order (the order of CSV columns, features and sampler draws); a standalone
    config sets all of them. ``required`` must be set even on a layer embedded
    in an architecture; the other fields resolve from its input shape.
    ``spatial`` kinds take an NCHW input, the others a flat (batch, elements)
    one. ``output_shape`` resolves the layer's output from its input shape.

    A *predictable* kind carries energy: it is sampled, measured standalone
    and gets a predictor. Its row, built by ``_predictable``, holds its MAC
    rule (``macs``) and the inclusive ``(lo, hi)`` sampler range of each of
    its fields, keyed in field order; the other kinds are parsed and
    discarded, and have neither. A weighted kind's row also gives the shape
    of its weight tensor (``weight_shape``); its bias has one entry per
    output channel.
    """

    fields: tuple[str, ...]
    required: frozenset[str]
    spatial: bool
    output_shape: Callable[[TensorShape, LayerConfig], TensorShape]
    macs: MacRule | None = None
    ranges: Mapping[str, tuple[int, int]] | None = None
    weight_shape: Callable[[LayerConfig], tuple[int, ...]] | None = None
    predictable: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "predictable", self.macs is not None)


def _predictable(
    ranges: dict[str, tuple[int, int]], required, spatial: bool, output_shape, macs: MacRule, weight_shape=None
) -> KindSpec:
    """The row of a predictable kind whose fields are the keys of ``ranges``."""
    return KindSpec(
        tuple(ranges), frozenset(required), spatial, output_shape, macs, MappingProxyType(ranges), weight_shape
    )


_ACTIVATION = _predictable(
    {"batch_size": (1, 512), "in_channels": (50_000, 5_000_000)},
    required=(),
    spatial=False,
    output_shape=_elementwise_shape,
    macs=_elementwise_macs,
)

KIND_SPECS: dict[LayerKind, KindSpec] = {
    LayerKind.CONV2D: _predictable(
        {
            "batch_size": (1, 256),
            "image_size": (4, 224),
            "kernel_size": (1, 11),
            "in_channels": (1, 512),
            "out_channels": (1, 512),
            "stride": (1, 5),
            "padding": (0, 3),
        },
        required=("kernel_size", "in_channels", "out_channels", "stride", "padding"),
        spatial=True,
        output_shape=_window_shape,
        macs=_conv2d_macs,
        weight_shape=lambda c: (c.out_channels, c.in_channels, c.kernel_size, c.kernel_size),
    ),
    LayerKind.MAXPOOL2D: _predictable(
        {
            "batch_size": (1, 256),
            "image_size": (4, 224),
            "kernel_size": (1, 11),
            # pooling preserves channels; the sampled channel range sets the input's
            "in_channels": (1, 512),
            "stride": (1, 5),
            "padding": (0, 3),
        },
        required=("kernel_size", "stride", "padding"),
        spatial=True,
        output_shape=_window_shape,
        macs=_maxpool2d_macs,
    ),
    LayerKind.LINEAR: _predictable(
        {
            "batch_size": (1, 512),
            "in_channels": (1, 5000),
            "out_channels": (1, 5000),
        },
        required=("in_channels", "out_channels"),
        spatial=False,
        output_shape=_linear_shape,
        macs=_linear_macs,
        weight_shape=lambda c: (c.out_channels, c.in_channels),
    ),
    LayerKind.RELU: _ACTIVATION,
    LayerKind.SIGMOID: _ACTIVATION,
    LayerKind.TANH: _ACTIVATION,
    LayerKind.SOFTMAX: _ACTIVATION,
    LayerKind.ADAPTIVE_AVG_POOL: KindSpec(
        fields=("output_size",),
        required=frozenset({"output_size"}),
        spatial=True,
        output_shape=_adaptive_pool_shape,
    ),
    LayerKind.DROPOUT: KindSpec(
        fields=(), required=frozenset(), spatial=False, output_shape=_elementwise_shape
    ),
    LayerKind.FLATTEN: KindSpec(
        fields=(), required=frozenset(), spatial=True, output_shape=_flatten_shape
    ),
}

#: per kind, (field, floor, required) for every field in canonical order; the
#: floor is the field's minimum, or ``_INAPPLICABLE`` when the kind lacks it
_CHECK_PLANS: dict[LayerKind, tuple[tuple[str, float, bool], ...]] = {
    kind: tuple(
        (
            name,
            _INAPPLICABLE if name not in spec.fields else 0 if name == "padding" else 1,
            name in spec.required,
        )
        for name in _CONFIG_FIELDS
    )
    for kind, spec in KIND_SPECS.items()
}

#: kinds that carry energy and get a per-type predictor, in table order
PREDICTABLE_KINDS = tuple(kind for kind, spec in KIND_SPECS.items() if spec.predictable)


def standalone_spec(kind: LayerKind) -> KindSpec:
    """The ``KIND_SPECS`` row of a predictable kind, the kinds with a
    standalone form; every other kind is refused here, in one wording."""
    spec = KIND_SPECS[kind]
    if not spec.predictable:
        raise ValidationError(f"{kind.value} is not individually measurable")
    return spec


#: every field a standalone config can carry, in canonical order (the CSV parameter columns)
STANDALONE_FIELDS = tuple(
    name for name in _CONFIG_FIELDS if any(name in KIND_SPECS[kind].fields for kind in PREDICTABLE_KINDS)
)


def propagate_shape(input_shape: TensorShape, layer: LayerConfig) -> TensorShape:
    """Resolve the output shape of ``layer`` applied to ``input_shape``."""
    return KIND_SPECS[layer.kind].output_shape(input_shape, layer)


@dataclass(frozen=True)
class ResolvedLayer:
    """A layer with its position and concrete input/output shapes."""

    index: int
    config: LayerConfig
    input_shape: TensorShape
    output_shape: TensorShape


@dataclass(frozen=True)
class ArchitectureSpec:
    """A named stack of layers over an input shape.

    Construction propagates the shape through every layer, which validates
    the spec, and keeps the resolved layers: a spec is immutable, so
    ``extract_predictable_layers`` and ``output_shape`` read them instead of
    propagating again.
    """

    name: str
    input_shape: TensorShape
    layers: tuple[LayerConfig, ...]
    _resolved: tuple[ResolvedLayer, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        resolved = []
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                next_shape = propagate_shape(shape, layer)
            except ShapeError as exc:
                raise ValidationError(f"{self.name}: layer {i} ({layer.kind.value}): {exc}") from exc
            resolved.append(_resolved_layer(i, layer, shape, next_shape))
            shape = next_shape
        object.__setattr__(self, "_resolved", tuple(resolved))

    def with_batch(self, batch_size: int) -> "ArchitectureSpec":
        if batch_size < 1:
            raise ValidationError(f"batch_size={batch_size} must be positive")
        return replace(self, input_shape=replace(self.input_shape, batch=batch_size))

    @property
    def output_shape(self) -> TensorShape:
        return self._resolved[-1].output_shape if self._resolved else self.input_shape

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input": self.input_shape.to_dict(),
            "layers": [layer.to_dict() for layer in self.layers],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ArchitectureSpec":
        missing = {"name", "input", "layers"} - set(data)
        if missing:
            raise ValidationError(f"architecture document is missing {sorted(missing)}")
        if not isinstance(data["name"], str):
            raise ValidationError(f"architecture 'name' must be a string, not {_json_type(data['name'])}")
        if not isinstance(data["input"], dict):
            raise ValidationError(f"architecture 'input' must be an object, not {_json_type(data['input'])}")
        if not isinstance(data["layers"], (list, tuple)):
            raise ValidationError(f"architecture 'layers' must be an array, not {_json_type(data['layers'])}")
        layers = []
        for i, obj in enumerate(data["layers"]):
            if not isinstance(obj, dict):
                raise ValidationError(f"layer {i} must be an object, not {_json_type(obj)}")
            try:
                layers.append(LayerConfig.from_dict(obj))
            except ValidationError as exc:
                raise ValidationError(f"layer {i}: {exc}") from None
        return cls(data["name"], TensorShape.from_dict(data["input"]), tuple(layers))


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _json_type(value) -> str:
    """The JSON name of a decoded value's type, for error messages."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _resolved_layer(
    index: int, config: LayerConfig, input_shape: TensorShape, output_shape: TensorShape
) -> ResolvedLayer:
    return _instance(
        ResolvedLayer,
        {"index": index, "config": config, "input_shape": input_shape, "output_shape": output_shape},
    )


def extract_predictable_layers(arch: ArchitectureSpec) -> list[ResolvedLayer]:
    """Resolved layers that carry energy, skipping the negligible structural ones."""
    return [r for r in arch._resolved if KIND_SPECS[r.config.kind].predictable]


def as_standalone_config(layer: LayerConfig, input_shape: TensorShape) -> LayerConfig:
    """Rewrite an embedded layer as the equivalent individually-measurable config.

    ``batch_size`` comes from the input's batch, ``image_size`` from the
    square side and ``in_channels`` from the channels (spatial kinds) or the
    per-sample elements (flat kinds); every other field comes from the layer.
    The pair is checked as a new config would be.
    """
    return _validated(LayerConfig, _standalone_values(layer, input_shape, input_shape.batch))


def _standalone_values(layer: LayerConfig, input_shape: TensorShape, batch: int) -> dict:
    """The field values of ``as_standalone_config`` at ``batch``, unchecked
    beyond the kind and a square input. No field but ``batch_size`` reads the
    batch, so a layer resolved at one batch gives its values at any other.
    They pass the config's checks when the layer resolved to ``input_shape``
    and ``batch`` is a positive ``int``: the sweep that resolved it left the
    padded input no smaller than the kernel."""
    spec = standalone_spec(layer.kind)
    if spec.spatial and input_shape.height != input_shape.width:
        raise ShapeError(
            f"{layer.kind.value}: non-square input {input_shape.height}x{input_shape.width} "
            "has no standalone image_size"
        )
    values = dict(layer.__dict__, batch_size=batch)
    if spec.spatial:  # the predictable spatial kinds are the window kinds, which carry image_size
        values["image_size"] = input_shape.height
        values["in_channels"] = input_shape.channels
    else:
        values["in_channels"] = input_shape.per_sample_elements
    return values


def standalone_input_shape(config: LayerConfig) -> TensorShape:
    """Input tensor shape for a standalone config; flat inputs use h=w=1."""
    config.require_standalone()
    side = config.image_size if KIND_SPECS[config.kind].spatial else 1
    return TensorShape(config.batch_size, config.in_channels, side, side)


def _conv(c_in: int, c_out: int, kernel: int = 3, stride: int = 1, padding: int = 1) -> LayerConfig:
    return LayerConfig(
        kind=LayerKind.CONV2D,
        kernel_size=kernel,
        in_channels=c_in,
        out_channels=c_out,
        stride=stride,
        padding=padding,
    )


def _pool(kernel: int, stride: int) -> LayerConfig:
    return LayerConfig(kind=LayerKind.MAXPOOL2D, kernel_size=kernel, stride=stride, padding=0)


def _linear(c_in: int, c_out: int) -> LayerConfig:
    return LayerConfig(kind=LayerKind.LINEAR, in_channels=c_in, out_channels=c_out)


def _act() -> LayerConfig:
    return LayerConfig(kind=LayerKind.RELU)


_VGG_PLANS = {
    "vgg11": (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    "vgg13": (64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    "vgg16": (64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"),
}


def _vgg_layers(plan) -> tuple[LayerConfig, ...]:
    layers: list[LayerConfig] = []
    channels = 3
    for item in plan:
        if item == "M":
            layers.append(_pool(2, 2))
        else:
            layers.append(_conv(channels, item))
            layers.append(_act())
            channels = item
    layers.append(LayerConfig(kind=LayerKind.ADAPTIVE_AVG_POOL, output_size=7))
    layers.append(LayerConfig(kind=LayerKind.FLATTEN))
    layers += [
        _linear(512 * 7 * 7, 4096),
        _act(),
        LayerConfig(kind=LayerKind.DROPOUT),
        _linear(4096, 4096),
        _act(),
        LayerConfig(kind=LayerKind.DROPOUT),
        _linear(4096, 1000),
    ]
    return tuple(layers)


def _alexnet_layers() -> tuple[LayerConfig, ...]:
    return (
        _conv(3, 64, kernel=11, stride=4, padding=2),
        _act(),
        _pool(3, 2),
        _conv(64, 192, kernel=5, padding=2),
        _act(),
        _pool(3, 2),
        _conv(192, 384),
        _act(),
        _conv(384, 256),
        _act(),
        _conv(256, 256),
        _act(),
        _pool(3, 2),
        LayerConfig(kind=LayerKind.ADAPTIVE_AVG_POOL, output_size=6),
        LayerConfig(kind=LayerKind.FLATTEN),
        LayerConfig(kind=LayerKind.DROPOUT),
        _linear(256 * 6 * 6, 4096),
        _act(),
        LayerConfig(kind=LayerKind.DROPOUT),
        _linear(4096, 4096),
        _act(),
        _linear(4096, 1000),
    )


def _preset(name: str) -> ArchitectureSpec:
    input_shape = TensorShape(batch=1, channels=3, height=224, width=224)
    if name == "alexnet":
        return ArchitectureSpec("alexnet", input_shape, _alexnet_layers())
    return ArchitectureSpec(name, input_shape, _vgg_layers(_VGG_PLANS[name]))


PRESET_NAMES = ("alexnet", "vgg11", "vgg13", "vgg16")


def load_architecture(source) -> ArchitectureSpec:
    """Load an architecture from a preset name, JSON text (its first
    non-blank character is ``{``), a JSON file path, or a dict, tried in
    that order."""
    if isinstance(source, dict):
        return ArchitectureSpec.from_dict(source)
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if not isinstance(source, str):
        raise ValidationError(f"cannot load an architecture from {type(source).__name__}")
    lowered = source.strip().lower()
    if lowered in PRESET_NAMES:
        return _preset(lowered)
    if source.lstrip().startswith("{"):
        return _architecture_from_json(source)
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source}: not UTF-8 text: {exc.reason}") from None
        try:
            return _architecture_from_json(text)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{source}: {exc}") from None
    raise ValidationError(
        f"{source!r} is not a preset ({', '.join(PRESET_NAMES)}), an existing file, or JSON text"
    )


def _architecture_from_json(text: str) -> ArchitectureSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid architecture JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("architecture JSON must be an object")
    return ArchitectureSpec.from_dict(data)
