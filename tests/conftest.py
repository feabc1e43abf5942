"""Shared synthetic-data builders: worlds with a known energy law so the
pipeline's recovered models can be checked against an analytic truth."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from joulecast.arch import (
    KIND_SPECS,
    LayerConfig,
    LayerKind,
    ResolvedLayer,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
    propagate_shape,
    standalone_input_shape,
)
from joulecast.dataset import (
    _SAMPLE_DRAWS,
    MeasurementRecord,
    ModelWiseLayer,
    ModelWiseRecord,
    appending_layerwise_csv,
    appending_modelwise_csv,
    config_key,
    split_indices,
)
from joulecast.errors import ValidationError
from joulecast.features import FeatureMap, KindMatrix
from joulecast.macs import layer_macs, standalone_macs
from joulecast.predict import train_default_bundle

#: joules per MAC of the synthetic machine
ALPHA = 3e-11

# moderate sampling ranges: keep synthetic MAC magnitudes near the layers of
# real 224px architectures so estimate tests exercise interpolation
TEST_RANGES = {
    LayerKind.CONV2D: {
        "batch_size": (1, 8),
        "image_size": (8, 64),
        "kernel_size": (1, 5),
        "in_channels": (1, 64),
        "out_channels": (1, 64),
        "stride": (1, 3),
        "padding": (0, 2),
    },
    LayerKind.MAXPOOL2D: {
        "batch_size": (1, 8),
        "image_size": (8, 64),
        "kernel_size": (1, 5),
        "in_channels": (1, 64),
        "stride": (1, 3),
        "padding": (0, 2),
    },
    LayerKind.LINEAR: {
        "batch_size": (1, 64),
        "in_channels": (1, 2000),
        "out_channels": (1, 2000),
    },
    **{kind: KIND_SPECS[kind].ranges for kind in
       (LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.SOFTMAX)},
}

#: a non-square input: it resolves at any batch, and no layer of it has a standalone form
NON_SQUARE_NET = {
    "name": "wide",
    "input": {"batch": 1, "channels": 3, "height": 8, "width": 6},
    "layers": [
        {"kind": "Conv2d", "kernel_size": 3, "in_channels": 3, "out_channels": 4, "stride": 1, "padding": 1},
        {"kind": "MaxPool2d", "kernel_size": 2, "stride": 2, "padding": 0},
        {"kind": "Flatten"},
        {"kind": "Linear", "in_channels": 48, "out_channels": 2},
    ],
}

#: the net of the stored-bundle estimate pin: Sigmoid, Tanh and Softmax
ACTIVATIONS_NET = {
    "name": "activations",
    "input": {"batch": 1, "channels": 3, "height": 16, "width": 16},
    "layers": [
        {"kind": "Conv2d", "kernel_size": 3, "in_channels": 3, "out_channels": 8, "stride": 1, "padding": 1},
        {"kind": "Sigmoid"},
        {"kind": "MaxPool2d", "kernel_size": 2, "stride": 2, "padding": 0},
        {"kind": "Tanh"},
        {"kind": "Flatten"},
        {"kind": "Linear", "in_channels": 512, "out_channels": 10},
        {"kind": "Softmax"},
    ],
}

MAC_LINEAR_KINDS = (LayerKind.CONV2D, LayerKind.MAXPOOL2D, LayerKind.LINEAR, LayerKind.RELU)
POLY_ACTIVATIONS = (LayerKind.SIGMOID, LayerKind.TANH, LayerKind.SOFTMAX)


def mac_energy(config, macs: int) -> float:
    return ALPHA * macs


def activation_energy(config, macs: int) -> float:
    """Positive polynomial in (batch, in_size); Tanh adds a quadratic term."""
    b = float(config.batch_size)
    s = float(config.in_channels)
    energy = 1e-4 + 2e-6 * b + 1e-9 * s + 2e-9 * b * s
    if config.kind is LayerKind.TANH:
        energy += 1e-15 * s * s
    return energy


def true_energy(config, macs: int) -> float:
    if config.kind in POLY_ACTIVATIONS:
        return activation_energy(config, macs)
    return mac_energy(config, macs)


def draw_config(kind: LayerKind, rng: np.random.Generator, table) -> LayerConfig:
    """``dataset.sample_config``'s draw loop over ``table``, a kind's field
    ranges, instead of its ``KindSpec.ranges``: the same draws in the same order."""
    for _ in range(_SAMPLE_DRAWS):
        fields = {name: int(rng.integers(lo, hi + 1)) for name, (lo, hi) in table.items()}
        try:
            return LayerConfig(kind=kind, **fields)
        except ValidationError:
            continue
    raise ValidationError(f"no valid {kind.value} config after {_SAMPLE_DRAWS} draws")


def standalone_layer(config: LayerConfig) -> ResolvedLayer:
    """A standalone config resolved on its own input, as ``macs.standalone_macs``
    resolves it; ``macs.layer_macs(standalone_layer(config), False)`` counts it
    without bias accumulates."""
    in_shape = standalone_input_shape(config)
    return ResolvedLayer(0, config, in_shape, propagate_shape(in_shape, config))


def synth_records(
    kind: LayerKind,
    n: int,
    seed: int,
    noise: float = 0.01,
    repeats: int = 1,
    ranges=None,
) -> list[MeasurementRecord]:
    rng = np.random.default_rng(seed)
    ranges = ranges or TEST_RANGES
    records = []
    for _ in range(n):
        config = draw_config(kind, rng, ranges[kind])
        macs = standalone_macs(config)
        base = true_energy(config, macs)
        for r in range(1, repeats + 1):
            wobble = 1.0 + noise * float(rng.standard_normal()) if noise else 1.0
            records.append(
                MeasurementRecord(
                    config=config,
                    macs=macs,
                    cpu_energy_j=max(base * wobble, 1e-12),
                    repeat=r,
                )
            )
    return records


def write_layerwise(path, records) -> None:
    """Append ``records`` to a layer-wise CSV through the writer ``collect`` uses."""
    with appending_layerwise_csv(path) as write:
        write(records)


def write_modelwise(path, records) -> None:
    """Append ``records`` to a model-wise CSV through the writer ``collect`` uses."""
    with appending_modelwise_csv(path) as write:
        write(records)


def split_records(records, seed):
    """``records`` dealt into the train, validation and test parts of ``split_indices``."""
    parts = split_indices([config_key(r.config) for r in records], seed)
    return tuple([records[i] for i in part] for part in parts)


def fit_map(records, feature_set, poly, scaler):
    """``FeatureMap.fit_rows`` on every row of the records' kind matrix: the map and its design ``(X, y)``."""
    return FeatureMap.fit_rows(KindMatrix.build(records), np.arange(len(records)), feature_set, poly, scaler)


def design_of(features, records):
    """``features.design_rows`` on every row of the records' kind matrix: its design ``(X, y)``."""
    return features.design_rows(KindMatrix.build(records), np.arange(len(records)))


def synth_dataset(seed: int = 7, n_mac: int = 240, n_act: int = 160) -> list[MeasurementRecord]:
    records: list[MeasurementRecord] = []
    for offset, kind in enumerate(MAC_LINEAR_KINDS):
        records += synth_records(kind, n_mac, seed + offset)
    for offset, kind in enumerate(POLY_ACTIVATIONS):
        records += synth_records(kind, n_act, seed + 10 + offset)
    return records


def synth_modelwise(
    arch_names=("alexnet", "vgg11", "vgg13", "vgg16"),
    batches=(1, 2, 4),
    seed: int = 3,
    noise: float = 0.0,
    total_scale: float = 1.0,
) -> list[ModelWiseRecord]:
    """Model-wise records whose layer energies follow the synthetic truth;
    ``total_scale`` skews the stored total away from the layer sum."""
    rng = np.random.default_rng(seed)
    records = []
    for name in arch_names:
        arch = load_architecture(name)
        for batch in batches:
            layers = []
            total = 0.0
            total_macs = 0
            for resolved in extract_predictable_layers(arch.with_batch(batch)):
                config = as_standalone_config(resolved.config, resolved.input_shape)
                macs = layer_macs(resolved)
                wobble = 1.0 + noise * float(rng.standard_normal()) if noise else 1.0
                energy = max(true_energy(config, macs) * wobble, 1e-12)
                layers.append(
                    ModelWiseLayer(resolved.index, config, macs, energy)
                )
                total += energy
                total_macs += macs
            records.append(
                ModelWiseRecord(
                    architecture=name,
                    batch_size=batch,
                    total_energy_j=total * total_scale,
                    total_macs=total_macs,
                    layers=tuple(layers),
                )
            )
    return records


@pytest.fixture(scope="session")
def bundle_dataset() -> list[MeasurementRecord]:
    return synth_dataset()


@pytest.fixture(scope="session")
def trained_bundle(bundle_dataset):
    return train_default_bundle(bundle_dataset, 11)


def run_child(code: str, *args: str, **env) -> subprocess.CompletedProcess:
    """Run ``code`` with ``sys.argv[1:]`` set to ``args`` in a fresh
    interpreter that imports this checkout's package, with ``env`` added to
    its environment. It gets one BLAS thread, 1 GiB of address space and
    60 s, so code that never ends fails its test instead of filling the
    machine's memory."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", **env},
    )
