"""Command-line surface: data collection, MAC tables, training, estimation,
evaluation, experiments, and report rendering.

Every command is deterministic given ``--seed`` and its inputs, except real
hardware measurement. Errors exit with code 1 and a one-line diagnostic;
usage errors exit with code 2.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import dataset, predict, probe, report
from .arch import (
    KIND_SPECS,
    PREDICTABLE_KINDS,
    PRESET_NAMES,
    LayerKind,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
)
from .dataset import (
    MeasurementRecord,
    ModelWiseLayer,
    ModelWiseRecord,
    sample_config,
)
from .errors import CounterRangeError, JoulecastError, MacOverflowError, ShapeError, ValidationError
from .macs import architecture_macs, standalone_macs
from .predict import PredictorBundle, estimate, evaluate_on_real, run_ablation, run_feature_set_experiment

ARCHITECTURE_BATCH_RANGE = (1, 256)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _parse_layer_kind(name: str) -> LayerKind:
    """A predictable kind by its case-insensitive name (conv2d, maxpool2d, ...)."""
    for kind in PREDICTABLE_KINDS:
        if kind.value.lower() == name.lower():
            return kind
    expected = ", ".join(kind.value.lower() for kind in PREDICTABLE_KINDS)
    raise JoulecastError(f"unknown layer kind {name!r}; expected one of {expected}")


def _meter(args):
    """``measure(config, macs)``: the ``probe.measure_config`` result of one
    config under the collect options, on RAPL or, under ``--simulate``, on one
    simulated machine seeded by ``--seed``."""
    window = args.window if args.window is not None else (0.05 if args.simulate else 30.0)
    machine = probe.SimulatedMachine(seed=args.seed) if args.simulate else None
    return lambda config, macs: probe.measure_config(
        config, macs, window_seconds=window, repeats=args.repeats, machine=machine, seed=args.seed,
        pin_to_cpu=args.pin_cpu,
    )


def _named(config) -> str:
    """``Kind(field=value, ...)``: a config by its kind and set fields."""
    fields = ", ".join(f"{name}={getattr(config, name)}" for name in KIND_SPECS[config.kind].fields
                       if getattr(config, name) is not None)
    return f"{config.kind.value}({fields})"


def cmd_collect(args) -> int:
    """Measure ``--count`` sampled configs (or preset passes), appending each
    one's rows to ``--out`` as soon as it is measured, so a crash loses at
    most the configuration in flight and a refused collect writes nothing.
    A config (or preset pass) whose window reached the counters' safe
    interval is skipped with one stderr line, and the collect goes on."""
    if args.count < 0:
        raise ValidationError(f"--count must be >= 0, not {args.count}")
    rng = np.random.default_rng(args.seed)
    measure = _meter(args)
    name = args.kind.lower()
    written = 0
    if name in PRESET_NAMES:
        arch = load_architecture(name)
        with dataset.appending_modelwise_csv(args.out) as write:
            for _ in range(args.count):
                batch = int(rng.integers(ARCHITECTURE_BATCH_RANGE[0], ARCHITECTURE_BATCH_RANGE[1] + 1))
                try:
                    record = _collect_architecture(arch, batch, measure)
                except CounterRangeError as exc:
                    print(f"skipped {name} at batch {batch}: {exc}", file=sys.stderr)
                    continue
                write([record])
                written += 1
        _say(args, f"collected {written} {name} measurement(s) into {args.out}")
        return 0
    kind = _parse_layer_kind(args.kind)
    with dataset.appending_layerwise_csv(args.out) as write:
        for _ in range(args.count):
            config = sample_config(kind, rng)
            macs = standalone_macs(config)
            try:
                result = measure(config, macs)
            except CounterRangeError as exc:
                print(f"skipped {_named(config)}: {exc}", file=sys.stderr)
                continue
            rows = [
                MeasurementRecord(
                    config=config,
                    macs=macs,
                    cpu_energy_j=repeat.energy_per_pass_j,
                    repeat=i,
                    source=dataset.SOURCE_RANDOM,
                )
                for i, repeat in enumerate(result.repeats, start=1)
            ]
            write(rows)
            written += len(rows)
    _say(args, f"collected {written} {kind.value} row(s) into {args.out}")
    return 0


def _collect_architecture(arch, batch, measure) -> ModelWiseRecord:
    spec = arch.with_batch(batch)
    per_layer, total_macs = architecture_macs(spec)
    layers = []
    for resolved, (_, _, macs) in zip(extract_predictable_layers(spec), per_layer):
        config = as_standalone_config(resolved.config, resolved.input_shape)
        layers.append(
            ModelWiseLayer(
                layer_index=resolved.index,
                config=config,
                macs=macs,
                cpu_energy_j=measure(config, macs).energy_per_pass_j,
            )
        )
    return ModelWiseRecord(
        architecture=arch.name,
        batch_size=batch,
        total_energy_j=measure(spec, total_macs).energy_per_pass_j,
        total_macs=total_macs,
        layers=tuple(layers),
    )


@contextmanager
def _naming_arch_file(arch: str):
    """Prefix a shape or MAC-overflow error with ``--arch`` when it is a file, as its parse errors are."""
    try:
        yield
    except (ShapeError, MacOverflowError) as exc:
        if os.path.isfile(arch):
            raise type(exc)(f"{arch}: {exc}") from exc
        raise


def cmd_macs(args) -> int:
    arch = load_architecture(args.arch)
    if args.batch is not None:
        arch = arch.with_batch(args.batch)
    with _naming_arch_file(args.arch):
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
        args.seed,
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
    with _naming_arch_file(args.arch):
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
    kinds = sorted(evaluation.per_kind, key=lambda k: k.value)
    scopes = [(kind.value, evaluation.per_kind[kind]) for kind in kinds] + [("overall", evaluation.overall)]
    dataset.write_csv(metrics_csv, ("scope", "r2", "mse", "max_error"),
                      [(scope, repr(m.r2), repr(m.mse), repr(m.max_error)) for scope, m in scopes])
    for kind in kinds:
        _say(args, f"  {kind.value:<10} r2 {evaluation.per_kind[kind].r2:.3f}")
    _say(args, f"overall full-architecture r2: {evaluation.overall.r2:.3f}")
    _say(args, f"wrote {layer_csv}, {totals_csv}, {metrics_csv}")
    return 0


def cmd_ablate(args) -> int:
    records = dataset.load_layerwise_csv(args.layerwise)
    kind = _parse_layer_kind(args.kind)
    table = run_ablation(records, kind, args.seed)
    report.write_ablation_csv(args.out, table)
    _say(args, f"ablation over {len(table.r2) - 1} feature subsets -> {args.out}")
    return 0


def cmd_feature_experiment(args) -> int:
    records = dataset.load_layerwise_csv(args.layerwise)
    kind = _parse_layer_kind(args.kind)
    rows = []
    for model in run_feature_set_experiment(records, kind, args.seed):
        spec, cv, test = model.spec, model.cv, model.test_metrics
        rows.append((
            kind.value, spec.feature_set.label, spec.poly.label if spec.poly else "",
            "y" if spec.feature_scaler == "zscore" else "n", "Lasso" if spec.model == "lasso" else "Linear",
            repr(float(spec.lam)), repr(cv.r2_mean), repr(cv.r2_std), repr(cv.mse_mean), repr(cv.mse_std),
            repr(test.r2), repr(test.mse),
            # the largest relative KKT residual of the pipeline's Lasso fits (0 for OLS), and those above the bound
            repr(max((fit.kkt for fit in model.lasso_fits), default=0.0)),
            sum(not fit.converged for fit in model.lasso_fits),
        ))
    dataset.write_csv(
        args.out,
        ("module", "feature_set", "polynomial", "standard_scaler", "model", "lambda",
         "cv_r2_mean", "cv_r2_std", "cv_mse_mean", "cv_mse_std", "r2_test", "mse_test",
         "lasso_kkt", "lasso_unconverged"),
        rows,
    )
    _say(args, f"feature-set experiment for {kind.value} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    if not (args.layer_scatter or args.totals or args.ablation):
        raise JoulecastError("nothing to report: pass --layer-scatter, --totals, and/or --ablation")
    os.makedirs(args.out_dir, exist_ok=True)
    # every input is read and checked, once, before the first chart is written
    charts = []
    if args.layer_scatter:
        charts += report.layer_charts(args.layer_scatter)
    if args.totals:
        charts += report.totals_charts(args.totals)
    if args.ablation:
        charts.append(report.ablation_chart(args.ablation))
    for chart in charts:
        _say(args, f"  {chart.kind}: {chart.write(args.out_dir)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged
    and gives every call a fresh namespace."""
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

    p = sub.add_parser("macs", help="print the per-layer MAC table of an architecture")
    p.add_argument("--arch", required=True, help="preset name or architecture JSON (path or text)")
    p.add_argument("--batch", type=int, default=None, help="batch size (default: the document's own)")
    p.add_argument("--no-bias", action="store_true", help="exclude bias accumulates")

    p = sub.add_parser("train", help="train the per-layer-type predictor bundle")
    p.add_argument("--layerwise", required=True, help="layer-wise measurement CSV")
    p.add_argument("--out", required=True, help="bundle JSON path")
    p.add_argument("--hardware", default=None, help="hardware tag stored in bundle metadata")
    p.add_argument("--kinds", default=None, help="comma-separated subset of layer kinds")
    p.add_argument("--cv-folds", type=int, default=10,
                   help="grouped cross-validation folds over the train split; 0 skips cross-validation")

    p = sub.add_parser("estimate", help="estimate a full architecture's energy")
    p.add_argument("--bundle", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("evaluate", help="compare predictions against model-wise measurements")
    p.add_argument("--bundle", required=True)
    p.add_argument("--modelwise", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("ablate", help="fit every feature subset for one layer kind")
    p.add_argument("--layerwise", required=True)
    p.add_argument("--kind", default="conv2d")
    p.add_argument("--out", required=True)

    p = sub.add_parser("feature-experiment", help="compare feature sets for one layer kind")
    p.add_argument("--layerwise", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="render CSV+SVG artifacts from evaluation outputs")
    p.add_argument("--layer-scatter", default=None, help="layer_scatter.csv from evaluate")
    p.add_argument("--totals", default=None, help="totals_scatter.csv from evaluate")
    p.add_argument("--ablation", default=None, help="ablation CSV from ablate")
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not kept in the cached parser, so a rebound cmd_* (a test double, a tracer) is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (JoulecastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
