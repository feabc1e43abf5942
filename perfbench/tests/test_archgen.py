import json

import numpy as np

import joulecast
from perfbench.archgen import random_architecture


def test_random_architectures_always_load():
    rng = np.random.default_rng(0)
    for i in range(300):
        doc = random_architecture(rng, f"random{i}")
        arch = joulecast.load_architecture(json.dumps(doc))
        kinds = {layer.config.kind.value for layer in joulecast.extract_predictable_layers(arch)}
        assert {"Conv2d", "MaxPool2d", "Linear", "Sigmoid", "Tanh", "Softmax"} <= kinds
        assert arch.output_shape.height == arch.output_shape.width == 1
        for batch in (1, 8, 64):
            joulecast.architecture_macs(arch.with_batch(batch))


def test_random_architectures_follow_the_seed():
    first = [random_architecture(np.random.default_rng(7), "x") for _ in range(2)]
    assert first[0] == first[1]
    assert random_architecture(np.random.default_rng(8), "x") != first[0]
