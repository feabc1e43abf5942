import itertools
import json
import os
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ACTIVATIONS_NET, NON_SQUARE_NET, run_child
from joulecast.arch import (
    _CONFIG_FIELDS,
    _LAYER_KEYS,
    KIND_SPECS,
    PREDICTABLE_KINDS,
    STANDALONE_FIELDS,
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    ResolvedLayer,
    TensorShape,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
    propagate_shape,
)
from joulecast.dataset import sample_config
from joulecast.errors import ParseError, ShapeError, ValidationError
from joulecast.macs import layer_macs
from joulecast.predict import DEFAULT_MODEL_SPECS
from joulecast.probe import _KERNELS, forward_workload, make_workload


def conv_cfg(side=None, k=3, p=1, s=1, c_in=3, c_out=64, batch=None):
    return LayerConfig(
        kind=LayerKind.CONV2D, batch_size=batch, image_size=side, kernel_size=k,
        in_channels=c_in, out_channels=c_out, stride=s, padding=p,
    )


class TestPropagate:
    def test_same_padding_identity(self):
        out = propagate_shape(TensorShape(1, 3, 224, 224), conv_cfg(k=3, p=1, s=1))
        assert (out.height, out.width, out.channels) == (224, 224, 64)

    def test_exact_halving(self):
        cfg = LayerConfig(kind=LayerKind.MAXPOOL2D, kernel_size=2, stride=2, padding=0)
        out = propagate_shape(TensorShape(1, 64, 224, 224), cfg)
        assert (out.height, out.width, out.channels) == (112, 112, 64)

    def test_alexnet_first_conv(self):
        # floor((224 + 2*2 - 11)/4) + 1 = 55
        out = propagate_shape(TensorShape(1, 3, 224, 224), conv_cfg(k=11, p=2, s=4))
        assert out.height == out.width == 55

    def test_empty_output_raises(self):
        with pytest.raises(ShapeError):
            propagate_shape(TensorShape(1, 3, 4, 4), conv_cfg(k=9, p=1, s=1))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            propagate_shape(TensorShape(1, 8, 32, 32), conv_cfg(c_in=3))

    def test_linear_requires_flat_input(self):
        cfg = LayerConfig(kind=LayerKind.LINEAR, in_channels=64, out_channels=10)
        with pytest.raises(ShapeError):
            propagate_shape(TensorShape(1, 64, 2, 2), cfg)
        out = propagate_shape(TensorShape(4, 64, 1, 1), cfg)
        assert out == TensorShape(4, 10, 1, 1)

    def test_flatten_collapses(self):
        out = propagate_shape(TensorShape(2, 64, 7, 7), LayerConfig(kind=LayerKind.FLATTEN))
        assert out == TensorShape(2, 64 * 49, 1, 1)

    def test_adaptive_avg_pool_resizes(self):
        cfg = LayerConfig(kind=LayerKind.ADAPTIVE_AVG_POOL, output_size=7)
        out = propagate_shape(TensorShape(1, 512, 14, 14), cfg)
        assert out == TensorShape(1, 512, 7, 7)

    def test_activation_preserves_shape(self):
        shape = TensorShape(3, 17, 5, 9)
        assert propagate_shape(shape, LayerConfig(kind=LayerKind.RELU)) == shape

    @given(
        side=st.integers(1, 300), k=st.integers(1, 11),
        p=st.integers(0, 3), s=st.integers(1, 5),
    )
    def test_conv_arithmetic_matches_enumeration(self, side, k, p, s):
        """Output side equals the number of window start positions inside the padding."""
        starts = [i for i in range(0, side + 2 * p - k + 1, s)]
        cfg_ok = side + 2 * p >= k
        if not cfg_ok:
            return
        out = propagate_shape(
            TensorShape(1, 1, side, side),
            LayerConfig(kind=LayerKind.CONV2D, kernel_size=k, in_channels=1,
                        out_channels=1, stride=s, padding=p),
        )
        assert out.height == len(starts)

    def test_deterministic(self):
        shape = TensorShape(1, 3, 224, 224)
        assert propagate_shape(shape, conv_cfg()) == propagate_shape(shape, conv_cfg())


class TestLayerConfig:
    def test_rejects_inapplicable_field(self):
        with pytest.raises(ValidationError):
            LayerConfig(kind=LayerKind.LINEAR, kernel_size=3, in_channels=1, out_channels=1)

    def test_rejects_zero_kernel(self):
        with pytest.raises(ValidationError):
            conv_cfg(k=0)

    def test_kernel_vs_padded_image(self):
        with pytest.raises(ValidationError):
            conv_cfg(side=4, k=9, p=1)
        conv_cfg(side=4, k=6, p=1)  # 4 + 2 >= 6 is fine

    def test_maxpool_padding_bound(self):
        with pytest.raises(ValidationError):
            LayerConfig(kind=LayerKind.MAXPOOL2D, kernel_size=3, stride=1, padding=2)
        LayerConfig(kind=LayerKind.MAXPOOL2D, kernel_size=4, stride=1, padding=2)

    @pytest.mark.parametrize("fields, message", [
        # the first broken rule in canonical field order wins
        (dict(kind=LayerKind.LINEAR, kernel_size=3, in_channels=1),
         "Linear: field 'kernel_size' is not applicable"),
        (dict(kind=LayerKind.LINEAR, in_channels=1), "Linear: field 'out_channels' is required"),
        (dict(kind=LayerKind.CONV2D, kernel_size=3, in_channels=3, out_channels=8, stride=True, padding=1),
         "Conv2d: field 'stride' must be an integer"),
        (dict(kind=LayerKind.CONV2D, kernel_size=np.int64(3), in_channels=3, out_channels=8, stride=1,
              padding=1),
         "Conv2d: field 'kernel_size' must be an integer"),
        (dict(kind=LayerKind.RELU, in_channels=2.0), "ReLU: field 'in_channels' must be an integer"),
        (dict(kind=LayerKind.CONV2D, kernel_size=3, in_channels=3, out_channels=8, stride=1, padding=-1),
         "Conv2d: padding=-1 is out of range"),
        (dict(kind=LayerKind.CONV2D, kernel_size=0, in_channels=3, out_channels=8, stride=1, padding=-1),
         "Conv2d: kernel_size=0 is out of range"),
        (dict(kind=LayerKind.CONV2D, image_size=4, kernel_size=9, in_channels=3, out_channels=8, stride=1,
              padding=1),
         "Conv2d: kernel 9 exceeds padded input 4+2*1"),
        (dict(kind=LayerKind.MAXPOOL2D, kernel_size=3, stride=1, padding=2),
         "MaxPool2d: padding 2 exceeds half the kernel size 3"),
        (dict(kind=LayerKind.MAXPOOL2D, image_size=2, kernel_size=5, stride=1, padding=3),
         "MaxPool2d: padding 3 exceeds half the kernel size 5"),
    ])
    def test_invalid_config_message(self, fields, message):
        with pytest.raises(ValidationError) as info:
            LayerConfig(**fields)
        assert type(info.value) is ValidationError and str(info.value) == message

    @pytest.mark.parametrize("kind", [kind for kind, spec in KIND_SPECS.items() if len(spec.required) > 1],
                             ids=lambda kind: kind.value)
    def test_missing_field_named_is_the_first_in_field_order(self, kind):
        spec = KIND_SPECS[kind]
        required = [name for name in spec.fields if name in spec.required]
        for first, second in itertools.combinations(required, 2):
            fields = {name: 0 if name == "padding" else 1 for name in required if name not in (first, second)}
            with pytest.raises(ValidationError) as info:
                LayerConfig(kind=kind, **fields)
            assert str(info.value) == f"{kind.value}: field {first!r} is required"

    def test_missing_field_named_is_the_same_under_every_hash_seed(self):
        """``KindSpec.required`` is a frozenset, whose order follows the hash
        seed; under seed 3 it lists out_channels before kernel_size."""
        child = run_child(
            "from joulecast.arch import LayerConfig\n"
            "from joulecast.errors import ValidationError\n"
            "try:\n"
            "    LayerConfig.from_dict({'kind': 'Conv2d', 'stride': 1, 'padding': 0})\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n",
            PYTHONHASHSEED="3",
        )
        assert (child.returncode, child.stdout) == (0, "Conv2d: field 'kernel_size' is required\n"), child.stderr

    def test_kind_string_is_coerced(self):
        assert LayerConfig(kind="ReLU") == LayerConfig(kind=LayerKind.RELU)

    def test_requires_standalone_fields(self):
        cfg = conv_cfg(side=None, batch=None)
        with pytest.raises(ValidationError):
            cfg.require_standalone()
        conv_cfg(side=32, batch=2).require_standalone()

    @pytest.mark.parametrize("config", [
        LayerConfig(kind=LayerKind.DROPOUT),
        LayerConfig(kind=LayerKind.FLATTEN),
        LayerConfig(kind=LayerKind.ADAPTIVE_AVG_POOL, output_size=6),
    ], ids=lambda c: c.kind.value)
    def test_kind_with_no_standalone_form_is_not_standalone(self, config):
        with pytest.raises(ValidationError) as info:
            config.require_standalone()
        assert str(info.value) == f"{config.kind.value} is not individually measurable"


class TestTensorShape:
    @pytest.mark.parametrize("args, message", [
        ((0, 3, 8, 8), "TensorShape.batch=0 must be a positive integer"),
        ((1, True, 8, 8), "TensorShape.channels=True must be a positive integer"),
        ((1, 3, np.int64(8), 8), "TensorShape.height=np.int64(8) must be a positive integer"),
        ((1, 3, 8, 8.0), "TensorShape.width=8.0 must be a positive integer"),
        ((1, 3, -1, "8"), "TensorShape.height=-1 must be a positive integer"),
    ])
    def test_invalid_shape_message(self, args, message):
        with pytest.raises(ValidationError) as info:
            TensorShape(*args)
        assert type(info.value) is ValidationError and str(info.value) == message


# The validators as they stood before the one-pass check plan, copied
# verbatim: the reference every config and shape must still be accepted or
# rejected by, with the same first error.
@dataclass(frozen=True)
class ReferenceLayerConfig:
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
        values = self.__dict__
        kind = values["kind"]
        if not isinstance(kind, LayerKind):
            kind = LayerKind(kind)
            object.__setattr__(self, "kind", kind)
        spec = KIND_SPECS[kind]
        fields = spec.fields
        for name in _CONFIG_FIELDS:
            value = values[name]
            if value is None:
                continue
            if name not in fields:
                raise ValidationError(f"{kind.value}: field {name!r} is not applicable")
            if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValidationError(f"{kind.value}: field {name!r} must be an integer")
            minimum = 0 if name == "padding" else 1
            if value < minimum:
                raise ValidationError(f"{kind.value}: {name}={value} is out of range")
        for name in fields:
            if name in spec.required and values[name] is None:
                raise ValidationError(f"{kind.value}: field {name!r} is required")
        # only window kinds carry image_size, and they require kernel_size and padding
        if self.image_size is not None and self.image_size + 2 * self.padding < self.kernel_size:
            raise ValidationError(
                f"{kind.value}: kernel {self.kernel_size} exceeds padded input "
                f"{self.image_size}+2*{self.padding}"
            )
        if kind is LayerKind.MAXPOOL2D and self.padding > self.kernel_size // 2:
            raise ValidationError(
                f"MaxPool2d: padding {self.padding} exceeds half the kernel size {self.kernel_size}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "LayerConfig":
        if "kind" not in data:
            raise ValidationError("layer object is missing 'kind'")
        try:
            kind = LayerKind(data["kind"])
        except ValueError:
            raise ValidationError(f"unknown layer kind {data['kind']!r}") from None
        extra = data.keys() - _LAYER_KEYS
        if extra:
            raise ValidationError(f"{kind.value}: unknown fields {sorted(extra)}")
        return cls(**dict(data, kind=kind))


@dataclass(frozen=True)
class ReferenceTensorShape:
    batch: int
    channels: int
    height: int
    width: int

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if (type(v) is not int and (not isinstance(v, int) or isinstance(v, bool))) or v < 1:
                raise ValidationError(f"TensorShape.{name}={v!r} must be a positive integer")


def outcome(build):
    """(exception type, message) if ``build()`` raises, else the built object's state."""
    try:
        built = build()
    except Exception as exc:
        return type(exc), str(exc)
    return list(built.__dict__.items())


field_values = st.one_of(
    st.none(),
    st.integers(-2, 12),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-2, 12).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
)
kinds = st.one_of(st.sampled_from(list(LayerKind)), st.sampled_from([k.value for k in LayerKind] + ["Conv3d"]))


class TestValidationEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(kind=kinds, fields=st.fixed_dictionaries({}, optional={name: field_values for name in _CONFIG_FIELDS}))
    def test_layer_config_matches_reference(self, kind, fields):
        assert outcome(lambda: LayerConfig(kind=kind, **fields)) == outcome(
            lambda: ReferenceLayerConfig(kind=kind, **fields)
        )
        data = dict(fields, kind=kind)
        assert outcome(lambda: LayerConfig.from_dict(data)) == outcome(
            lambda: ReferenceLayerConfig.from_dict(data)
        )

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(LayerKind)), data=st.data())
    def test_small_configs_of_every_kind_match_reference(self, kind, data):
        # every field of the kind set to a small positive int, so the window
        # and padding checks meet their boundaries, then a few fields changed
        fields = {name: data.draw(st.integers(1, 6)) for name in KIND_SPECS[kind].fields}
        fields.update(data.draw(st.dictionaries(
            st.sampled_from(_CONFIG_FIELDS), st.one_of(st.integers(-1, 6), st.none(), field_values)
        )))
        doc = dict(fields, kind=kind.value)
        assert outcome(lambda: LayerConfig.from_dict(doc)) == outcome(lambda: ReferenceLayerConfig.from_dict(doc))

    @pytest.mark.parametrize("kind", [LayerKind.CONV2D, LayerKind.MAXPOOL2D])
    def test_window_field_grid_matches_reference(self, kind):
        # every boundary of the window and padding checks, and every set of
        # missing required fields, on both window kinds
        grid = {
            "image_size": (None, 1, 2, 3, 4),
            "kernel_size": (None, 1, 2, 3, 4, 5, 6),
            "padding": (None, 0, 1, 2, 3),
            "stride": (None, 1),
            "in_channels": (None, 3),
            "out_channels": (None, 4) if kind is LayerKind.CONV2D else (None,),
        }
        for values in itertools.product(*grid.values()):
            fields = dict(zip(grid, values))
            assert outcome(lambda: LayerConfig(kind=kind, **fields)) == outcome(
                lambda: ReferenceLayerConfig(kind=kind, **fields)
            )

    @pytest.mark.parametrize("kind", [
        "Conv3d", "", "conv2d", "CONV2D", " Conv2d", ["Conv2d"], {"kind": "Conv2d"}, None, 3, 2.5, True,
        LayerKind.CONV2D, LayerKind.SOFTMAX, "Flatten",
    ], ids=repr)
    @pytest.mark.parametrize("extra", [{}, {"bias": True}, {"groups": 2, "dilation": 1}, {1: 2}])
    def test_parse_errors_match_reference(self, kind, extra):
        # the parse (a value->member lookup of the kind, a subset test of the
        # keys) against the reference's ``LayerKind(...)`` and key-set difference
        fields = {"kernel_size": 3, "in_channels": 3, "out_channels": 4, "stride": 1, "padding": 1}
        data = {"kind": kind, **(fields if kind is LayerKind.CONV2D else {}), **extra}
        got = outcome(lambda: LayerConfig.from_dict(data))
        assert got == outcome(lambda: ReferenceLayerConfig.from_dict(data))
        if not isinstance(got, list):
            assert got[0] is ValidationError

    @settings(max_examples=300, deadline=None)
    @given(values=st.tuples(field_values, field_values, field_values, field_values))
    def test_tensor_shape_matches_reference(self, values):
        assert outcome(lambda: TensorShape(*values)) == outcome(lambda: ReferenceTensorShape(*values))


def reference_resolution(arch):
    """(index, config, input shape, output shape) per layer, propagated here."""
    out = []
    shape = arch.input_shape
    for i, layer in enumerate(arch.layers):
        next_shape = propagate_shape(shape, layer)
        out.append((i, layer, shape, next_shape))
        shape = next_shape
    return out, shape


#: the structural kinds, each after a layer of the same output shape
POOLED_NET = {
    "name": "pooled",
    "input": {"batch": 1, "channels": 3, "height": 12, "width": 12},
    "layers": [
        {"kind": "Conv2d", "kernel_size": 3, "in_channels": 3, "out_channels": 4, "stride": 1, "padding": 1},
        {"kind": "ReLU"},
        {"kind": "Conv2d", "kernel_size": 3, "in_channels": 4, "out_channels": 4, "stride": 1, "padding": 1},
        {"kind": "AdaptiveAvgPool", "output_size": 2},
        {"kind": "Dropout"},
        {"kind": "Flatten"},
        {"kind": "Dropout"},
        {"kind": "Linear", "in_channels": 16, "out_channels": 5},
        {"kind": "Softmax"},
    ],
}
REBATCH_SOURCES = ["alexnet", "vgg16", ACTIVATIONS_NET, POOLED_NET, NON_SQUARE_NET]


def assert_same_resolution(arch, expected):
    """Every resolved layer equal to the expected one field by field, with the
    same instance state and field order."""
    got, want = arch._resolved, expected._resolved
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert list(g.__dict__) == list(w.__dict__)
        assert (g.index, g.config, g.input_shape, g.output_shape) == (w.index, w.config, w.input_shape, w.output_shape)
        for shape in (g.input_shape, g.output_shape):
            assert type(shape) is TensorShape and list(shape.__dict__) == ["batch", "channels", "height", "width"]
    assert list(arch.__dict__) == list(expected.__dict__)


class TestResolution:
    @pytest.mark.parametrize("name", ["alexnet", "vgg11", "vgg13", "vgg16"])
    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_matches_reference_propagation(self, name, batch):
        arch = load_architecture(name).with_batch(batch)
        expected, output = reference_resolution(arch)
        resolved = arch._resolved
        assert [(r.index, r.config, r.input_shape, r.output_shape) for r in resolved] == expected
        assert arch.output_shape == output
        assert extract_predictable_layers(arch) == [
            r for r in resolved if KIND_SPECS[r.config.kind].predictable
        ]

    def test_empty_output_is_input(self):
        arch = ArchitectureSpec("empty", TensorShape(2, 3, 8, 8), ())
        assert arch.output_shape == arch.input_shape and arch._resolved == ()

    @pytest.mark.parametrize("source", REBATCH_SOURCES, ids=lambda s: s if isinstance(s, str) else s["name"])
    @pytest.mark.parametrize("batch", [2, 8, 64])
    def test_with_batch_equals_fresh_load(self, source, batch):
        doc = load_architecture(source).to_dict()
        doc["input"]["batch"] = batch
        fresh = load_architecture(doc)
        rebatched = load_architecture(source).with_batch(batch)
        assert rebatched == fresh
        assert_same_resolution(rebatched, fresh)
        assert rebatched.output_shape == fresh.output_shape

    @pytest.mark.parametrize("source", REBATCH_SOURCES, ids=lambda s: s if isinstance(s, str) else s["name"])
    @pytest.mark.parametrize("batch", [2, 8, 64])
    def test_with_batch_round_trip(self, source, batch):
        arch = load_architecture(source)
        back = arch.with_batch(batch).with_batch(1)
        assert back is not arch and back == arch
        assert_same_resolution(back, arch)

    def test_with_batch_of_a_non_int_one_still_raises(self):
        with pytest.raises(ValidationError, match=r"^TensorShape\.batch=True must be a positive integer$"):
            load_architecture("vgg11").with_batch(True)

    @pytest.mark.parametrize("batch", [2.0, np.int64(4)], ids=["float", "int64"])
    def test_with_batch_of_a_float_or_numpy_one_raises(self, batch):
        with pytest.raises(ValidationError) as info:
            load_architecture("vgg11").with_batch(batch)
        assert str(info.value) == f"TensorShape.batch={batch!r} must be a positive integer"

    @pytest.mark.parametrize("batch", [0, -3])
    def test_with_batch_rejects_non_positive(self, batch):
        with pytest.raises(ValidationError) as info:
            load_architecture("vgg11").with_batch(batch)
        assert str(info.value) == f"batch_size={batch} must be positive"

    def test_returned_list_is_fresh(self):
        arch = load_architecture("alexnet")
        predictable = extract_predictable_layers(arch)
        predictable.pop()
        assert len(extract_predictable_layers(arch)) == len(predictable) + 1
        assert arch.output_shape == TensorShape(1, 1000, 1, 1)


#: the refusal of a name that is no preset, file or JSON text
UNKNOWN_PRESET = "'resnet50' is not a preset (alexnet, vgg11, vgg13, vgg16), an existing file, or JSON text"


class TestPresets:
    @pytest.mark.parametrize("name", ["alexnet", "vgg11", "vgg13", "vgg16"])
    def test_propagates_to_1000_classes(self, name):
        arch = load_architecture(name)
        assert arch.input_shape == TensorShape(1, 3, 224, 224)
        assert arch.output_shape == TensorShape(1, 1000, 1, 1)

    def test_vgg11_predictable_layer_census(self):
        counts = {}
        for r in extract_predictable_layers(load_architecture("vgg11")):
            counts[r.config.kind] = counts.get(r.config.kind, 0) + 1
        assert counts == {
            LayerKind.CONV2D: 8,
            LayerKind.MAXPOOL2D: 5,
            LayerKind.LINEAR: 3,
            LayerKind.RELU: 10,
        }

    @pytest.mark.parametrize(
        "name,convs", [("alexnet", 5), ("vgg11", 8), ("vgg13", 10), ("vgg16", 13)]
    )
    def test_conv_counts(self, name, convs):
        arch = load_architecture(name)
        assert sum(1 for l in arch.layers if l.kind is LayerKind.CONV2D) == convs

    @pytest.mark.parametrize("name", ["alexnet", "vgg11", "vgg13", "vgg16"])
    def test_serialization_round_trip(self, name):
        arch = load_architecture(name)
        again = load_architecture(arch.to_json())
        assert again == arch

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match=f"^{re.escape(UNKNOWN_PRESET)}$"):
            load_architecture("resnet50")


class TestExtract:
    def test_empty_architecture(self):
        arch = ArchitectureSpec("empty", TensorShape(1, 3, 8, 8), ())
        assert extract_predictable_layers(arch) == []

    def test_all_discarded(self):
        arch = ArchitectureSpec(
            "drop", TensorShape(1, 3, 8, 8),
            (LayerConfig(kind=LayerKind.DROPOUT), LayerConfig(kind=LayerKind.DROPOUT)),
        )
        assert extract_predictable_layers(arch) == []

    def test_order_and_shapes(self):
        arch = ArchitectureSpec(
            "tiny", TensorShape(2, 3, 8, 8),
            (
                conv_cfg(k=3, p=1, s=1, c_in=3, c_out=4),
                LayerConfig(kind=LayerKind.RELU),
                LayerConfig(kind=LayerKind.DROPOUT),
                LayerConfig(kind=LayerKind.FLATTEN),
                LayerConfig(kind=LayerKind.LINEAR, in_channels=256, out_channels=10),
            ),
        )
        resolved = extract_predictable_layers(arch)
        assert [r.config.kind for r in resolved] == [LayerKind.CONV2D, LayerKind.RELU, LayerKind.LINEAR]
        assert [r.index for r in resolved] == [0, 1, 4]
        assert resolved[1].input_shape == TensorShape(2, 4, 8, 8)


def _net(*layers, **change) -> dict:
    """A 16x16 three-channel architecture document of ``layers``, with ``change`` applied."""
    return {"name": "bad", "input": {"batch": 1, "channels": 3, "height": 16, "width": 16},
            "layers": list(layers), **change}


class TestLoadJson:
    def test_single_conv_document(self):
        doc = {
            "name": "one",
            "input": {"batch": 1, "channels": 3, "height": 16, "width": 16},
            "layers": [
                {"kind": "Conv2d", "kernel_size": 3, "in_channels": 3,
                 "out_channels": 8, "stride": 1, "padding": 1}
            ],
        }
        arch = load_architecture(json.dumps(doc))
        assert len(arch.layers) == 1
        assert arch.output_shape.channels == 8

    def test_invalid_kernel_rejected(self):
        doc = {
            "name": "bad",
            "input": {"batch": 1, "channels": 3, "height": 16, "width": 16},
            "layers": [
                {"kind": "Conv2d", "kernel_size": 0, "in_channels": 3,
                 "out_channels": 8, "stride": 1, "padding": 1}
            ],
        }
        with pytest.raises(ValidationError):
            load_architecture(json.dumps(doc))

    @pytest.mark.parametrize("change, message", [
        ({"layers": [5]}, "layer 0 must be an object, not a number"),
        ({"layers": [{"kind": "ReLU"}, "ReLU"]}, "layer 1 must be an object, not a string"),
        ({"layers": [{"kind": "ReLU"}, None]}, "layer 1 must be an object, not null"),
        ({"layers": {"kind": "ReLU"}}, "architecture 'layers' must be an array, not an object"),
        ({"layers": None}, "architecture 'layers' must be an array, not null"),
        ({"layers": "ReLU"}, "architecture 'layers' must be an array, not a string"),
        ({"name": 7}, "architecture 'name' must be a string, not a number"),
        ({"name": None}, "architecture 'name' must be a string, not null"),
        ({"input": [1, 3, 16, 16]}, "architecture 'input' must be an object, not an array"),
        ({"input": None}, "architecture 'input' must be an object, not null"),
        ({"layers": [{"kind": "ReLU"}, {"kind": "Conv"}]}, "layer 1: unknown layer kind 'Conv'"),
        ({"layers": [{"kernel_size": 3}]}, "layer 0: layer object is missing 'kind'"),
        ({"layers": [{"kind": "ReLU", "stride": 1}]}, "layer 0: ReLU: field 'stride' is not applicable"),
        ({"layers": [{"kind": "ReLU", "size": 1}]}, "layer 0: ReLU: unknown fields ['size']"),
    ])
    def test_malformed_document_rejected(self, change, message):
        doc = {"name": "bad", "input": {"batch": 1, "channels": 3, "height": 16, "width": 16},
               "layers": [{"kind": "ReLU"}], **change}
        for source in (doc, json.dumps(doc)):
            with pytest.raises(ValidationError) as info:
                load_architecture(source)
            assert type(info.value) is ValidationError and str(info.value) == message

    @pytest.mark.parametrize("document, message", [
        ({"name": "bad", "layers": []}, "architecture document is missing ['input']"),
        (_net(input={"batch": 1, "channels": 3, "height": 16}), "input shape is missing ['width']"),
        (_net({"kind": "Conv2d", "image_size": 8, "kernel_size": 3, "in_channels": 3, "out_channels": 4,
               "stride": 1, "padding": 1}),
         "bad: layer 0 (Conv2d): Conv2d: declared image_size 8 does not match input 16x16"),
        (_net({"kind": "MaxPool2d", "kernel_size": 2, "in_channels": 4, "stride": 2, "padding": 0}),
         "bad: layer 0 (MaxPool2d): MaxPool2d expects 4 input channels, got 3"),
        (_net({"kind": "Flatten"}, {"kind": "Linear", "in_channels": 10, "out_channels": 4}),
         "bad: layer 1 (Linear): Linear expects 10 input features, got 768"),
        (_net({"kind": "ReLU", "in_channels": 10}), "bad: layer 0 (ReLU): ReLU declared input size 10, got 768"),
        ([{"kind": "ReLU"}], "architecture JSON must be an object"),
        ("ReLU", "architecture JSON must be an object"),
    ])
    def test_file_refusals(self, tmp_path, document, message):
        # every refusal of an architecture file's contents, prefixed with its path
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_architecture(path)
        assert type(info.value) is ValidationError and str(info.value) == f"{path}: {message}"

    def test_malformed_file_names_path(self, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text('{"name": "bad", "input": {"batch": 1, "channels": 3, "height": 4, '
                        '"width": 4}, "layers": [5]}', encoding="utf-8")
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: layer 0 must be an object")):
            load_architecture(path)

    def test_file_path(self, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text(load_architecture("vgg11").to_json())
        assert load_architecture(path) == load_architecture("vgg11")

    def test_json_text_is_not_looked_up_as_a_file(self, monkeypatch, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text(load_architecture("alexnet").to_json())
        text = "\n  " + load_architecture("vgg11").to_json()
        looked_up = []
        real_exists = os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda p: looked_up.append(p) or real_exists(p))
        assert load_architecture(text) == load_architecture("vgg11")
        assert load_architecture(" VGG11 ") == load_architecture("vgg11")
        assert looked_up == []
        assert load_architecture(path) == load_architecture("alexnet")
        assert looked_up == [str(path)]
        with pytest.raises(ValidationError, match=f"^{re.escape(UNKNOWN_PRESET)}$") as info:
            load_architecture("resnet50")
        assert str(info.value) == (
            "'resnet50' is not a preset (alexnet, vgg11, vgg13, vgg16), an existing file, or JSON text"
        )
        with pytest.raises(ParseError, match="^invalid architecture JSON: "):
            load_architecture("{not json")


class TestStandalone:
    def test_conv_in_architecture(self):
        arch = load_architecture("vgg11").with_batch(4)
        first = extract_predictable_layers(arch)[0]
        cfg = as_standalone_config(first.config, first.input_shape)
        assert cfg.batch_size == 4
        assert cfg.image_size == 224
        assert cfg.in_channels == 3 and cfg.out_channels == 64
        cfg.require_standalone()

    def test_activation_flattens_elements(self):
        layer = LayerConfig(kind=LayerKind.RELU)
        cfg = as_standalone_config(layer, TensorShape(2, 64, 7, 7))
        assert cfg.in_channels == 64 * 49
        assert cfg.batch_size == 2

    def test_pool_takes_input_channels(self):
        layer = LayerConfig(kind=LayerKind.MAXPOOL2D, kernel_size=2, stride=2, padding=0)
        cfg = as_standalone_config(layer, TensorShape(1, 96, 28, 28))
        assert cfg.in_channels == 96
        assert cfg.out_channels is None


class TestKindTable:
    def test_one_row_per_kind(self):
        assert list(KIND_SPECS) == list(LayerKind)

    def test_every_kind_has_its_facts(self):
        for kind, spec in KIND_SPECS.items():
            assert kind in _KERNELS, kind
            if spec.predictable:
                assert spec.macs is not None, kind
                assert tuple(spec.ranges) == spec.fields, kind
                assert all(lo <= hi for lo, hi in spec.ranges.values()), kind
                assert kind in DEFAULT_MODEL_SPECS, kind
            else:
                assert spec.macs is None and spec.ranges is None, kind
        assert set(DEFAULT_MODEL_SPECS) == set(PREDICTABLE_KINDS)

    def test_required_fields_are_fields(self):
        for kind, spec in KIND_SPECS.items():
            assert spec.required <= set(spec.fields), kind

    def test_predictable_kinds(self):
        assert PREDICTABLE_KINDS == (
            LayerKind.CONV2D, LayerKind.MAXPOOL2D, LayerKind.LINEAR,
            LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.SOFTMAX,
        )

    def test_standalone_fields_are_the_csv_columns(self):
        assert STANDALONE_FIELDS == (
            "batch_size", "image_size", "kernel_size", "in_channels", "out_channels", "stride", "padding",
        )

    @pytest.mark.parametrize("layer", [
        LayerConfig(kind=LayerKind.ADAPTIVE_AVG_POOL, output_size=2),
        LayerConfig(kind=LayerKind.DROPOUT),
        LayerConfig(kind=LayerKind.FLATTEN),
    ], ids=lambda layer: layer.kind.value)
    def test_structural_kinds_are_not_measurable(self, layer):
        with pytest.raises(ValidationError):
            as_standalone_config(layer, TensorShape(1, 3, 4, 4))


DROPOUT = LayerConfig(kind=LayerKind.DROPOUT)
DROPOUT_SHAPE = TensorShape(2, 3, 4, 4)


@pytest.mark.parametrize("refuse", [
    lambda: sample_config(LayerKind.DROPOUT, 0),
    DROPOUT.require_standalone,
    lambda: as_standalone_config(DROPOUT, DROPOUT_SHAPE),
    lambda: forward_workload(DROPOUT, np.zeros((2, 48), dtype=np.float32)),
    lambda: make_workload(DROPOUT),
    lambda: layer_macs(ResolvedLayer(0, DROPOUT, DROPOUT_SHAPE, DROPOUT_SHAPE)),
], ids=["sample_config", "require_standalone", "as_standalone_config", "forward_workload", "make_workload",
        "layer_macs"])
def test_a_kind_with_no_standalone_form_has_one_refusal(refuse):
    with pytest.raises(ValidationError, match="^Dropout is not individually measurable$"):
        refuse()
