"""Command-line surface: data collection, MAC tables, training, estimation,
evaluation, experiments, and report rendering.

Every command is deterministic given ``--seed`` and its inputs, except real
hardware measurement. Errors exit with code 1 and a one-line diagnostic;
usage errors exit with code 2.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import dataset, predict, probe, report
from .arch import LayerKind, PRESET_NAMES, extract_predictable_layers, load_architecture
from .dataset import (
    MeasurementRecord,
    ModelWiseLayer,
    ModelWiseRecord,
    SplitSpec,
    sample_config,
)
from .errors import JoulecastError
from .macs import architecture_macs, layer_macs, standalone_macs
from .predict import PredictorBundle, estimate, evaluate_on_real, run_ablation, run_feature_set_experiment

_LAYER_KINDS = {
    "conv2d": LayerKind.CONV2D,
    "maxpool2d": LayerKind.MAXPOOL2D,
    "linear": LayerKind.LINEAR,
    "relu": LayerKind.RELU,
    "sigmoid": LayerKind.SIGMOID,
    "tanh": LayerKind.TANH,
    "softmax": LayerKind.SOFTMAX,
}

ARCHITECTURE_BATCH_RANGE = (1, 256)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _parse_layer_kind(name: str) -> LayerKind:
    try:
        return _LAYER_KINDS[name.lower()]
    except KeyError:
        raise JoulecastError(
            f"unknown layer kind {name!r}; expected one of {', '.join(_LAYER_KINDS)}"
        ) from None


def _probe_backend(args, machine_seed: int):
    """(counter, clock, workload_factory) triple for real or simulated metering."""
    if args.simulate:
        machine = probe.SimulatedMachine(seed=machine_seed)
        return machine.counter(), machine.clock, lambda cfg, macs: machine.workload(macs)
    return None, None, lambda cfg, macs: None  # probe builds the real workload


def _resolve_window(args) -> float:
    if args.window is not None:
        return args.window
    return 0.05 if args.simulate else 30.0


def cmd_collect(args) -> int:
    window = _resolve_window(args)
    rng = np.random.default_rng(args.seed)
    counter, clock, workload_for = _probe_backend(args, args.seed)
    name = args.kind.lower()
    if name in PRESET_NAMES:
        arch = load_architecture(name)
        records = []
        for _ in range(args.count):
            batch = int(rng.integers(ARCHITECTURE_BATCH_RANGE[0], ARCHITECTURE_BATCH_RANGE[1] + 1))
            records.append(
                _collect_architecture(arch, batch, window, args.repeats, counter, clock,
                                      workload_for, args.seed, args.pin_cpu)
            )
        dataset.write_modelwise_csv(args.out, records, append=True)
        _say(args, f"collected {len(records)} {name} measurement(s) into {args.out}")
        return 0
    kind = _parse_layer_kind(args.kind)
    rows: list[MeasurementRecord] = []
    for _ in range(args.count):
        config = sample_config(kind, rng)
        macs = standalone_macs(config)
        result = probe.measure_config(
            config,
            window_seconds=window,
            repeats=args.repeats,
            counter=counter,
            workload=workload_for(config, macs) if args.simulate else None,
            clock=clock,
            seed=args.seed,
            pin_to_cpu=args.pin_cpu,
        )
        for i, repeat in enumerate(result.repeats, start=1):
            rows.append(
                MeasurementRecord(
                    module=kind,
                    config=config,
                    macs=macs,
                    cpu_energy_j=repeat.energy_per_pass_j,
                    repeat=i,
                    source=dataset.SOURCE_RANDOM,
                )
            )
    dataset.write_layerwise_csv(args.out, rows, append=True)
    _say(args, f"collected {len(rows)} {kind.value} row(s) into {args.out}")
    return 0


def _collect_architecture(
    arch, batch, window, repeats, counter, clock, workload_for, seed, pin_cpu=None
) -> ModelWiseRecord:
    from .arch import as_standalone_config

    layers = []
    total_macs = 0
    for resolved in extract_predictable_layers(arch.with_batch(batch)):
        config = as_standalone_config(resolved.config, resolved.input_shape)
        macs = layer_macs(resolved, include_bias=True)
        total_macs += macs
        result = probe.measure_config(
            config,
            window_seconds=window,
            repeats=repeats,
            counter=counter,
            workload=workload_for(config, macs),
            clock=clock,
            seed=seed,
            pin_to_cpu=pin_cpu,
        )
        layers.append(
            ModelWiseLayer(
                layer_index=resolved.index,
                module=config.kind,
                config=config,
                macs=macs,
                cpu_energy_j=result.energy_per_pass_j,
            )
        )
    total_workload = workload_for(None, total_macs)
    if total_workload is None:
        total_workload = probe.make_architecture_workload(arch, batch, seed)
    total_result = probe.measure_config(
        None, window_seconds=window, repeats=repeats, counter=counter,
        workload=total_workload, clock=clock, seed=seed,
    )
    return ModelWiseRecord(
        architecture=arch.name,
        batch_size=batch,
        total_energy_j=total_result.energy_per_pass_j,
        total_macs=total_macs,
        layers=tuple(layers),
    )


def cmd_macs(args) -> int:
    arch = load_architecture(args.arch)
    if args.batch:
        arch = arch.with_batch(args.batch)
    per_layer, total = architecture_macs(arch, include_bias=not args.no_bias)
    writer = csv.writer(sys.stdout)
    writer.writerow(("layer_index", "module", "macs"))
    for index, kind, macs in per_layer:
        writer.writerow((index, kind.value, macs))
    writer.writerow(("total", "", total))
    return 0


def cmd_train(args) -> int:
    records = dataset.load_layerwise_csv(args.layerwise)
    kinds = None
    if args.kinds:
        kinds = tuple(_parse_layer_kind(k) for k in args.kinds.split(","))
    bundle = predict.train_default_bundle(
        records,
        SplitSpec(seed=args.seed),
        kinds=kinds,
        metadata={"hardware": args.hardware} if args.hardware else None,
        cv_folds=args.cv_folds,
    )
    bundle.save(args.out)
    _say(args, f"trained {len(bundle.models)} predictor(s) -> {args.out}")
    for kind in sorted(bundle.models, key=lambda k: k.value):
        model = bundle.models[kind]
        cv = model.cv
        cv_part = f"cv r2 {cv.r2_mean:.3f} (+/- {cv.r2_std:.3f})  " if cv else ""
        _say(
            args,
            f"  {kind.value:<10} {cv_part}test r2 {model.test_metrics.r2:.4f}  "
            f"test mse {model.test_metrics.mse:.3e}",
        )
    return 0


def cmd_estimate(args) -> int:
    bundle = PredictorBundle.load(args.bundle)
    arch = load_architecture(args.arch)
    result = estimate(bundle, arch, args.batch)
    doc = {"format_version": 1, **result.to_dict()}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _say(args, f"estimate for {result.architecture} (batch {result.batch_size}): "
                   f"{result.total_joules:.6g} J -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    bundle = PredictorBundle.load(args.bundle)
    records = dataset.load_modelwise_csv(args.modelwise)
    evaluation = evaluate_on_real(bundle, records)
    os.makedirs(args.out_dir, exist_ok=True)
    layer_csv = os.path.join(args.out_dir, "layer_scatter.csv")
    totals_csv = os.path.join(args.out_dir, "totals_scatter.csv")
    report.write_layer_scatter_csv(layer_csv, evaluation.layer_points)
    report.write_totals_csv(totals_csv, evaluation.total_points)
    metrics_csv = os.path.join(args.out_dir, "metrics.csv")
    with open(metrics_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("scope", "r2", "mse", "max_error"))
        for kind in sorted(evaluation.per_kind, key=lambda k: k.value):
            m = evaluation.per_kind[kind]
            writer.writerow((kind.value, repr(m.r2), repr(m.mse), repr(m.max_error)))
        m = evaluation.overall
        writer.writerow(("overall", repr(m.r2), repr(m.mse), repr(m.max_error)))
    for kind in sorted(evaluation.per_kind, key=lambda k: k.value):
        _say(args, f"  {kind.value:<10} r2 {evaluation.per_kind[kind].r2:.3f}")
    _say(args, f"overall full-architecture r2: {evaluation.overall.r2:.3f}")
    _say(args, f"wrote {layer_csv}, {totals_csv}, {metrics_csv}")
    return 0


def cmd_ablate(args) -> int:
    records = dataset.load_layerwise_csv(args.layerwise)
    kind = _parse_layer_kind(args.kind)
    rows = run_ablation(records, kind, SplitSpec(seed=args.seed))
    report.write_ablation_csv(args.out, rows)
    _say(args, f"ablation over {len(rows)} feature subsets -> {args.out}")
    return 0


def cmd_feature_experiment(args) -> int:
    records = dataset.load_layerwise_csv(args.layerwise)
    kind = _parse_layer_kind(args.kind)
    rows = run_feature_set_experiment(records, kind, SplitSpec(seed=args.seed))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("module", "feature_set", "polynomial", "standard_scaler", "model", "lambda",
             "cv_r2_mean", "cv_r2_std", "cv_mse_mean", "cv_mse_std", "r2_test", "mse_test",
             "lasso_sweeps", "lasso_unconverged")
        )
        for row in rows:
            writer.writerow(
                (
                    row.module.value,
                    row.feature_set.label,
                    row.poly.label if row.poly else "",
                    "y" if row.scaled else "n",
                    row.model,
                    repr(float(row.lam)),
                    repr(row.cv.r2_mean),
                    repr(row.cv.r2_std),
                    repr(row.cv.mse_mean),
                    repr(row.cv.mse_std),
                    repr(row.test.r2),
                    repr(row.test.mse),
                    row.lasso_sweeps,
                    row.lasso_unconverged,
                )
            )
    _say(args, f"feature-set experiment for {kind.value} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    artifacts = []
    if args.layer_scatter:
        artifacts += report.layer_scatter_artifacts(args.layer_scatter, args.out_dir)
        artifacts.append(report.contribution_artifact(args.layer_scatter, args.out_dir))
    if args.totals:
        artifacts.append(report.totals_scatter_artifact(args.totals, args.out_dir))
        artifacts.append(report.aggregate_vs_total_artifact(args.totals, args.out_dir))
    if args.ablation:
        artifacts.append(report.ablation_artifact(args.ablation, args.out_dir))
    if not artifacts:
        raise JoulecastError("nothing to report: pass --layer-scatter, --totals, and/or --ablation")
    for artifact in artifacts:
        _say(args, f"  {artifact.kind}: {artifact.svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joulecast",
        description="Predict CPU energy of CNN architectures from layer features; "
        "collect energy datasets on RAPL-capable hosts.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampling, splits, and training")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--simulate", action="store_true",
        help="use a deterministic simulated energy counter instead of RAPL hardware",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="sample configurations and measure their energy")
    p.add_argument("--kind", required=True, help="layer kind or architecture preset")
    p.add_argument("--count", type=int, required=True, help="number of configurations to sample")
    p.add_argument("--window", type=float, default=None, help="seconds per measurement window")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", required=True, help="CSV to append rows to")
    p.add_argument("--pin-cpu", type=int, default=None, help="pin the measurement to one CPU")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("macs", help="print the per-layer MAC table of an architecture")
    p.add_argument("--arch", required=True, help="preset name or architecture JSON (path or text)")
    p.add_argument("--batch", type=int, default=0, help="override the batch size")
    p.add_argument("--no-bias", action="store_true", help="exclude bias accumulates")
    p.set_defaults(func=cmd_macs)

    p = sub.add_parser("train", help="train the per-layer-type predictor bundle")
    p.add_argument("--layerwise", required=True, help="layer-wise measurement CSV")
    p.add_argument("--out", required=True, help="bundle JSON path")
    p.add_argument("--hardware", default=None, help="hardware tag stored in bundle metadata")
    p.add_argument("--kinds", default=None, help="comma-separated subset of layer kinds")
    p.add_argument("--cv-folds", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="estimate a full architecture's energy")
    p.add_argument("--bundle", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="compare predictions against model-wise measurements")
    p.add_argument("--bundle", required=True)
    p.add_argument("--modelwise", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="fit every feature subset for one layer kind")
    p.add_argument("--layerwise", required=True)
    p.add_argument("--kind", default="conv2d")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("feature-experiment", help="compare feature sets for one layer kind")
    p.add_argument("--layerwise", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_feature_experiment)

    p = sub.add_parser("report", help="render CSV+SVG artifacts from evaluation outputs")
    p.add_argument("--layer-scatter", default=None, help="layer_scatter.csv from evaluate")
    p.add_argument("--totals", default=None, help="totals_scatter.csv from evaluate")
    p.add_argument("--ablation", default=None, help="ablation CSV from ablate")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JoulecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
