"""The one-pass estimate against the re-batching path it replaced.

``estimate`` reads the spec's own resolved layers and passes the requested
batch to the standalone rewrite and the MAC rules; the reference below
re-batches the spec with ``with_batch`` first and reads every batch from the
resolved shapes. Both must give the same bits and the same errors.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ACTIVATIONS_NET
from joulecast.arch import (
    PRESET_NAMES,
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    TensorShape,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
)
from joulecast.errors import MacOverflowError, ValidationError
from joulecast.macs import architecture_macs, layer_macs
from joulecast.predict import PredictorBundle, PredictorModel, estimate
from perfbench.archgen import random_architecture

DATA_DIR = Path(__file__).parent / "data"

SOURCES = (
    list(PRESET_NAMES)
    + [random_architecture(np.random.default_rng(seed), f"random{seed}") for seed in range(24)]
    + [ACTIVATIONS_NET]
)


def reference_estimate(bundle, arch, batch_size):
    """The estimate path before it read the spec's own layers: re-batch, then rewrite and count."""
    layers = []
    total_joules = 0.0
    total_macs = 0
    for layer in extract_predictable_layers(arch.with_batch(batch_size)):
        standalone = as_standalone_config(layer.config, layer.input_shape)
        macs = layer_macs(layer, include_bias=True)
        joules, clamped = bundle.model_for(layer.config.kind).predict_energy(standalone, macs)
        layers.append((layer.index, layer.config.kind, macs, repr(joules), clamped))
        total_joules += joules
        total_macs += macs
    return layers, repr(total_joules), total_macs


def as_compared(result):
    layers = [(l.layer_index, l.kind, l.macs, repr(l.joules), l.clamped) for l in result.layers]
    return layers, repr(result.total_joules), result.total_macs


@pytest.fixture(scope="module", params=["stored", "trained"])
def bundle(request, trained_bundle):
    if request.param == "stored":
        return PredictorBundle.load(DATA_DIR / "bundle_v1.json")
    return trained_bundle


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s if isinstance(s, str) else s["name"])
def test_matches_rebatching_reference(bundle, source):
    arch = load_architecture(source)
    # the spec's own batch, other batches, and a spec resolved at one batch
    # asked for at another (1 -> b -> 1)
    cases = [(arch, 1), (arch, 8), (arch, 64)]
    cases += [(arch.with_batch(b), request) for b in (8, 64) for request in (1, b, 3)]
    for spec, batch in cases:
        result = estimate(bundle, spec, batch)
        assert as_compared(result) == reference_estimate(bundle, spec, batch), (spec.input_shape, batch)
        assert result.batch_size == batch and result.architecture == spec.name


@pytest.mark.parametrize("batch", [True, 2.0, np.int64(8), 0, -1], ids=repr)
def test_bad_batch_raises_as_reference(bundle, batch):
    arch = load_architecture("vgg11")
    with pytest.raises(Exception) as expected:
        reference_estimate(bundle, arch, batch)
    with pytest.raises(Exception) as got:
        estimate(bundle, arch, batch)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_one_predict_energy_call_per_layer_in_order(bundle, monkeypatch):
    calls = []
    original = PredictorModel.predict_energy

    def counting(self, config, macs):
        calls.append((config.kind, macs))
        return original(self, config, macs)

    monkeypatch.setattr(PredictorModel, "predict_energy", counting)
    arch = load_architecture("alexnet").with_batch(8)
    result = estimate(bundle, arch, 2)
    assert calls == [(layer.kind, layer.macs) for layer in result.layers]
    assert [layer.layer_index for layer in result.layers] == [
        r.index for r in extract_predictable_layers(arch)
    ]


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s if isinstance(s, str) else s["name"])
def test_unchecked_derived_objects_equal_checked_ones(bundle, source, monkeypatch):
    # resolution builds its shapes, and estimate its standalone configs,
    # without re-running the checks: each must equal the object the checked
    # public constructors build from the same values
    configs = []
    original = PredictorModel.predict_energy

    def capturing(self, config, macs):
        configs.append(config)
        return original(self, config, macs)

    monkeypatch.setattr(PredictorModel, "predict_energy", capturing)
    arch = load_architecture(source)
    for batch in (1, 8, 64):
        configs.clear()
        estimate(bundle, arch, batch)
        layers = extract_predictable_layers(arch)
        assert len(configs) == len(layers)
        for config, layer in zip(configs, layers):
            checked = as_standalone_config(layer.config, replace(layer.input_shape, batch=batch))
            assert type(config) is LayerConfig and list(config.__dict__.items()) == list(checked.__dict__.items())
        for layer in arch.with_batch(batch)._resolved:
            for shape in (layer.input_shape, layer.output_shape):
                checked = TensorShape(**shape.to_dict())
                assert type(shape) is TensorShape and list(shape.__dict__.items()) == list(checked.__dict__.items())


def test_public_standalone_rewrite_still_checks_the_pair():
    # a 7-wide kernel over a 4x4 input padded by 1 never resolves in a spec;
    # given directly, the pair is refused by the config check
    layer = LayerConfig(kind=LayerKind.CONV2D, kernel_size=7, in_channels=3, out_channels=4, stride=1, padding=1)
    with pytest.raises(ValidationError) as info:
        as_standalone_config(layer, TensorShape(1, 3, 4, 4))
    assert str(info.value) == "Conv2d: kernel 7 exceeds padded input 4+2*1"


def _flat_net(features: int, layers: list[LayerConfig]) -> ArchitectureSpec:
    return ArchitectureSpec("big", TensorShape(1, features, 1, 1), tuple(layers))


def _linear(c_in: int, c_out: int) -> LayerConfig:
    return LayerConfig(kind=LayerKind.LINEAR, in_channels=c_in, out_channels=c_out)


class TestMacBudget:
    """A layer or a total past the 64-bit MAC budget fails the estimate as it fails ``macs``."""

    # each layer fits the budget and their sum, 10000000004000000000, does not
    TOTAL_ONLY = _flat_net(3 * 10**9, [_linear(3 * 10**9, 2 * 10**9), _linear(2 * 10**9, 2 * 10**9)])
    # the ReLU fits and the Linear after it does not
    PER_LAYER = _flat_net(4 * 10**9, [LayerConfig(kind=LayerKind.RELU), _linear(4 * 10**9, 4 * 10**9)])
    TOTAL_MESSAGE = "total: MAC count 10000000004000000000 exceeds the 64-bit budget"
    LAYER_MESSAGE = "layer 1 (Linear): MAC count 16000000004000000000 exceeds the 64-bit budget"

    @pytest.mark.parametrize("arch, message", [(TOTAL_ONLY, TOTAL_MESSAGE), (PER_LAYER, LAYER_MESSAGE)],
                             ids=["total", "layer"])
    def test_estimate_and_architecture_macs_refuse_alike(self, bundle, arch, message):
        with pytest.raises(MacOverflowError) as info:
            estimate(bundle, arch, 1)
        assert str(info.value) == message
        with pytest.raises(MacOverflowError) as info:
            architecture_macs(arch)
        assert str(info.value) == message

    def test_batch_crosses_the_budget(self, bundle):
        # one Linear of 2**31 x 2**31 MACs fits at batch 1 and not at batch 4
        arch = _flat_net(2**31, [_linear(2**31, 2**31)])
        assert estimate(bundle, arch, 1).total_macs == 2**62 + 2**31
        with pytest.raises(MacOverflowError, match=r"^layer 0 \(Linear\): MAC count \d+ exceeds"):
            estimate(bundle, arch, 4)

    # (architecture, request batch): a layer or the total crosses the budget
    # only at the request batch, or already at the spec's own
    AT_BATCH = [
        (_flat_net(2**31, [_linear(2**31, 2**31)]), 4),
        (_flat_net(2**30, [_linear(2**30, 2**30), _linear(2**30, 2**30)]), 4),
        (TOTAL_ONLY, 2),
        (PER_LAYER, 3),
    ]

    @pytest.mark.parametrize("arch, batch", AT_BATCH, ids=["layer", "total", "total-own-batch", "layer-own-batch"])
    def test_architecture_macs_at_a_batch_refuses_as_estimate(self, bundle, arch, batch):
        with pytest.raises(MacOverflowError) as expected:
            estimate(bundle, arch, batch)
        with pytest.raises(MacOverflowError) as got:
            architecture_macs(arch, True, batch)
        assert str(got.value) == str(expected.value)
        with pytest.raises(MacOverflowError) as rebatched:
            architecture_macs(arch.with_batch(batch))
        assert str(rebatched.value) == str(expected.value)


class TestErrorOrder:
    """With two errors in one architecture, a MAC count past the budget is
    refused first: ``estimate`` counts every layer (``architecture_macs``)
    before it looks up a predictor or rewrites a layer as standalone."""

    OVERFLOW = "layer 2 (Linear): MAC count 19300000000000000000 exceeds the 64-bit budget"

    def test_overflow_before_non_square_input(self, bundle):
        # layer 0 has no standalone form, layer 2 is past the budget
        arch = ArchitectureSpec("wide", TensorShape(1, 3, 8, 6), (
            LayerConfig(kind=LayerKind.CONV2D, kernel_size=3, in_channels=3, out_channels=4, stride=1, padding=1),
            LayerConfig(kind=LayerKind.FLATTEN),
            _linear(4 * 8 * 6, 10**17),
        ))
        with pytest.raises(MacOverflowError) as info:
            estimate(bundle, arch, 1)
        assert str(info.value) == self.OVERFLOW

    def test_overflow_before_missing_predictor(self, bundle):
        # layer 0 is a ReLU the bundle has no predictor for, layer 1 is past the budget
        no_relu = PredictorBundle({k: m for k, m in bundle.models.items() if k is not LayerKind.RELU}, {})
        with pytest.raises(ValidationError, match="^bundle has no predictor for ReLU$"):
            estimate(no_relu, _flat_net(8, [LayerConfig(kind=LayerKind.RELU)]), 1)
        with pytest.raises(MacOverflowError) as info:
            estimate(no_relu, TestMacBudget.PER_LAYER, 1)
        assert str(info.value) == TestMacBudget.LAYER_MESSAGE
