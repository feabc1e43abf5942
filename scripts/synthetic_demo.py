#!/usr/bin/env python3
"""End-to-end demo on the simulated machine: collect a layer-wise dataset,
train the per-layer-type bundle, estimate the presets, evaluate against
simulated full-architecture measurements, and render the report artifacts.

Everything is deterministic for a given --seed and needs no RAPL hardware.
Each step runs the command line in this process; a step that fails stops
the demo, naming the step.

Usage:
    python scripts/synthetic_demo.py --out-dir demo_run [--seed 0]
"""
import argparse
import os

from joulecast.arch import PREDICTABLE_KINDS
from joulecast.cli import main as joulecast_main

ARCHITECTURES = ("alexnet", "vgg11")


def cli(*args):
    argv = [str(arg) for arg in args]
    print("+ joulecast.cli", " ".join(argv), flush=True)
    code = joulecast_main(argv)
    if code:
        raise SystemExit(f"step failed with exit code {code}: joulecast {' '.join(argv)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=60, help="configs per layer kind")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    layerwise = os.path.join(args.out_dir, "layerwise.csv")
    modelwise = os.path.join(args.out_dir, "modelwise.csv")
    bundle = os.path.join(args.out_dir, "bundle.json")

    for i, kind in enumerate(PREDICTABLE_KINDS):
        cli("--seed", args.seed + i, "--simulate", "collect",
            "--kind", kind.value.lower(), "--count", args.count, "--out", layerwise)
    for i, arch in enumerate(ARCHITECTURES):
        cli("--seed", args.seed + 100 + i, "--simulate", "collect",
            "--kind", arch, "--count", 2, "--out", modelwise)

    cli("--seed", args.seed, "train", "--layerwise", layerwise, "--out", bundle)

    for arch in ARCHITECTURES + ("vgg16",):
        cli("--quiet", "estimate", "--bundle", bundle, "--arch", arch, "--batch", 1,
            "--out", os.path.join(args.out_dir, f"estimate_{arch}.json"))

    eval_dir = os.path.join(args.out_dir, "evaluation")
    cli("evaluate", "--bundle", bundle, "--modelwise", modelwise, "--out-dir", eval_dir)
    cli("report",
        "--layer-scatter", os.path.join(eval_dir, "layer_scatter.csv"),
        "--totals", os.path.join(eval_dir, "totals_scatter.csv"),
        "--out-dir", os.path.join(args.out_dir, "report"))
    print(f"\nartifacts in {args.out_dir}/")


if __name__ == "__main__":
    main()
