import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from joulecast.arch import (
    KIND_SPECS,
    PREDICTABLE_KINDS,
    STANDALONE_FIELDS,
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    TensorShape,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
    propagate_shape,
)
from joulecast.dataset import DEFAULT_SAMPLER_RANGES
from joulecast.errors import ShapeError, UnknownPresetError, ValidationError


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

    def test_kind_string_is_coerced(self):
        assert LayerConfig(kind="ReLU") == LayerConfig(kind=LayerKind.RELU)

    def test_requires_standalone_fields(self):
        cfg = conv_cfg(side=None, batch=None)
        with pytest.raises(ValidationError):
            cfg.require_standalone()
        conv_cfg(side=32, batch=2).require_standalone()


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


def reference_resolution(arch):
    """(index, config, input shape, output shape) per layer, propagated here."""
    out = []
    shape = arch.input_shape
    for i, layer in enumerate(arch.layers):
        next_shape = propagate_shape(shape, layer)
        out.append((i, layer, shape, next_shape))
        shape = next_shape
    return out, shape


class TestResolution:
    @pytest.mark.parametrize("name", ["alexnet", "vgg11", "vgg13", "vgg16"])
    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_matches_reference_propagation(self, name, batch):
        arch = load_architecture(name).with_batch(batch)
        expected, output = reference_resolution(arch)
        resolved = arch.resolve_layers()
        assert [(r.index, r.config, r.input_shape, r.output_shape) for r in resolved] == expected
        assert arch.output_shape == output
        assert extract_predictable_layers(arch) == [
            r for r in resolved if KIND_SPECS[r.config.kind].predictable
        ]

    def test_empty_output_is_input(self):
        arch = ArchitectureSpec("empty", TensorShape(2, 3, 8, 8), ())
        assert arch.output_shape == arch.input_shape and arch.resolve_layers() == []

    @pytest.mark.parametrize("name", ["alexnet", "vgg16"])
    @pytest.mark.parametrize("batch", [2, 8, 64])
    def test_with_batch_equals_fresh_load(self, name, batch):
        doc = load_architecture(name).to_dict()
        doc["input"]["batch"] = batch
        fresh = load_architecture(doc)
        rebatched = load_architecture(name).with_batch(batch)
        assert rebatched == fresh
        assert rebatched.resolve_layers() == fresh.resolve_layers()
        assert rebatched.output_shape == fresh.output_shape

    def test_with_batch_of_own_batch_is_self(self):
        arch = load_architecture("vgg11")
        assert arch.with_batch(1) is arch
        rebatched = arch.with_batch(4)
        assert rebatched is not arch and rebatched.with_batch(4) is rebatched

    def test_with_batch_of_a_non_int_one_still_raises(self):
        with pytest.raises(ValidationError, match=r"^TensorShape\.batch=True must be a positive integer$"):
            load_architecture("vgg11").with_batch(True)

    @pytest.mark.parametrize("batch", [0, -3])
    def test_with_batch_rejects_non_positive(self, batch):
        with pytest.raises(ValidationError) as info:
            load_architecture("vgg11").with_batch(batch)
        assert str(info.value) == f"batch_size={batch} must be positive"

    def test_returned_list_is_fresh(self):
        arch = load_architecture("alexnet")
        before = arch.resolve_layers()
        mutated = arch.resolve_layers()
        mutated.clear()
        predictable = extract_predictable_layers(arch)
        predictable.pop()
        assert arch.resolve_layers() == before
        assert len(extract_predictable_layers(arch)) == len(predictable) + 1
        assert arch.output_shape == TensorShape(1, 1000, 1, 1)


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
        with pytest.raises(UnknownPresetError):
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

    def test_sampler_ranges_follow_field_order(self):
        assert set(DEFAULT_SAMPLER_RANGES) == set(PREDICTABLE_KINDS)
        for kind in PREDICTABLE_KINDS:
            assert tuple(DEFAULT_SAMPLER_RANGES[kind]) == KIND_SPECS[kind].fields, kind

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
