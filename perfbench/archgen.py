"""Seeded random VGG-style architecture documents.

Every document has the same layer sequence by kind, so the estimate work per
document does not depend on the seed: three blocks of two 3x3 convolutions,
an activation after each and a 2x2 max pool, then Flatten, Linear, an
activation, Dropout, Linear and Softmax. The seed draws the input side, the
channel and hidden widths, the class count, and which block uses ReLU,
Sigmoid or Tanh. Every document thereby uses Sigmoid, Tanh and Softmax, the
activation predictors the preset architectures never reach.
"""
from __future__ import annotations

SIDES = (32, 48, 64, 96, 128)  # three halvings leave a side of at least 4
CONV_CHANNELS = (16, 32, 64, 128)
HIDDEN = (64, 128, 256, 512)
CLASSES = (10, 100, 1000)
BLOCK_ACTIVATIONS = ("ReLU", "Sigmoid", "Tanh")
CONVS_PER_BLOCK = 2


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def random_architecture(rng, name: str) -> dict:
    """One architecture document for ``load_architecture``, drawn from ``rng``."""
    side = _pick(rng, SIDES)
    block_acts = [BLOCK_ACTIVATIONS[i] for i in rng.permutation(len(BLOCK_ACTIVATIONS))]
    layers = []
    channels, current = 3, side
    for act in block_acts:
        for _ in range(CONVS_PER_BLOCK):
            out = _pick(rng, CONV_CHANNELS)
            layers.append({"kind": "Conv2d", "kernel_size": 3, "in_channels": channels,
                           "out_channels": out, "stride": 1, "padding": 1})
            layers.append({"kind": act})
            channels = out
        layers.append({"kind": "MaxPool2d", "kernel_size": 2, "stride": 2, "padding": 0})
        current //= 2
    hidden = _pick(rng, HIDDEN)
    layers += [
        {"kind": "Flatten"},
        {"kind": "Linear", "in_channels": channels * current * current, "out_channels": hidden},
        {"kind": _pick(rng, ("Sigmoid", "Tanh"))},
        {"kind": "Dropout"},
        {"kind": "Linear", "in_channels": hidden, "out_channels": _pick(rng, CLASSES)},
        {"kind": "Softmax"},
    ]
    return {
        "name": name,
        "input": {"batch": 1, "channels": 3, "height": side, "width": side},
        "layers": layers,
    }
