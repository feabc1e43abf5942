#!/usr/bin/env python3
"""joulecast benchmark: one closed-loop workload per run, driven from outside
the package through ``joulecast.cli.main`` and public functions.

    python3 perfbench/run.py --workload fit|estimate|forward|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` there.
Human-readable lines come first (environment stamp, the workload's own
figures with units, failed checks); the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the gated end-to-end ones;
with ``--trace 1`` they are the per-layer ones, and the full trace goes to
``.perfbench_out/``. ``--workload all`` runs the three workloads one after
another, each in its own process, and reports every workload figure.

The exit code is 0 when every check passed, 1 when an operation failed or a
check did not hold, and 2 when the program cannot be found or run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "joulecast")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: module layers of the package, as named in the per-layer metrics
MODULES = ("cli", "dataset", "arch", "macs", "features", "regress", "predict", "probe",
           "report", "svgplot")
PROBE_KINDS = ("conv2d", "maxpool2d", "linear", "relu")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}

PER_LAYER = {
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.calls": "count" for m in MODULES},
    **{f"{m}.setup_self_s": "s" for m in MODULES},
    "regress.ols_fits": "count",
    "regress.lasso_fits": "count",
    "regress.lasso_unconverged": "count",
    "regress.rank_deficient": "count",
    "predict.layers_estimated": "count",
    "predict.layers_clamped": "count",
    **{f"probe.{k}.ms": "ms" for k in PROBE_KINDS},
    **{f"probe.{k}.gmacs": "GMAC/s" for k in PROBE_KINDS},
    **{f"probe.{k}.macs_per_byte": "MAC/B" for k in PROBE_KINDS},
    "probe.arch_pass.gmacs": "GMAC/s",
    "trace.overhead_pct": "%",
}

WORKLOAD_NAMES = ("fit", "estimate", "forward")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def layer_metrics(ctx, result) -> dict:
    """Every per-layer metric: per round of the timed part, set-up once."""
    from perfbench.tracer import by_module

    timed = ctx.traced_totals["timed"]
    timed_modules = by_module(timed, MODULES)
    setup_modules = by_module(ctx.traced_totals["setup"], MODULES)
    out = {name: 0.0 for name in PER_LAYER}
    for m in MODULES:
        out[f"{m}.self_s"] = timed_modules[m]["self_s"]
        out[f"{m}.calls"] = timed_modules[m]["calls"]
        out[f"{m}.setup_self_s"] = setup_modules[m]["self_s"]
    calls = {name: values[0] for name, values in timed.items()}
    out["regress.ols_fits"] = calls.get("regress.fit_ols", 0.0)
    out["regress.lasso_fits"] = calls.get("regress.fit_lasso", 0.0)
    out["regress.lasso_unconverged"] = ctx.traced_warnings.get("NotConvergedWarning", 0.0)
    out["regress.rank_deficient"] = ctx.traced_warnings.get("SingularityWarning", 0.0)
    out["predict.layers_estimated"] = calls.get("predict.PredictorModel.predict_energy", 0.0)
    out.update(result.layers)
    return out


def merge_tables(out_dir: str, seed: int) -> str | None:
    """Join the forward and estimate halves of the per-CNN-layer table, when both exist."""
    halves = {}
    for workload in ("forward", "estimate"):
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            halves[workload] = json.load(fh)
    if len({half["env"]["source_sha256"] for half in halves.values()}) != 1:
        return None  # traces of different sources are not joined
    halves = {workload: half["tables"] for workload, half in halves.items()}
    lines = ["| arch | layer | kind | MACs | workload ms | GMAC/s | estimate us |",
             "| --- | ---: | --- | ---: | ---: | ---: | ---: |"]
    rows = []
    for arch, layers in halves["forward"].items():
        estimates = halves["estimate"].get(arch, {})
        for index in sorted(layers, key=int):
            row = {"arch": arch, "layer_index": int(index), **layers[index],
                   "estimate_us": estimates.get(index, {}).get("estimate_us")}
            rows.append(row)
            est = "" if row["estimate_us"] is None else f"{row['estimate_us']:.1f}"
            lines.append(f"| {arch} | {index} | {row['kind']} | {row['macs']} | "
                         f"{row['workload_ms']:.3f} | {row['gmacs']:.3f} | {est} |")
    base = os.path.join(out_dir, f"cnn-layers-seed{seed}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    with open(base + ".md", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return base + ".md"


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        return fail(f"no joulecast package under {SRC}; run from a repository checkout")
    sys.path[:0] = [SRC, ROOT]
    try:
        import joulecast
        from joulecast.errors import NotConvergedWarning, SingularityWarning
    except ImportError as exc:
        return fail(f"cannot import joulecast: {exc}")
    if not os.path.abspath(joulecast.__file__).startswith(PACKAGE_DIR + os.sep):
        return fail(f"imported joulecast from {joulecast.__file__}, not from {SRC}")

    from perfbench import harness, workloads
    from perfbench.tracer import Tracer

    env = harness.environment(ROOT, PACKAGE_DIR)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = harness.Run()
    tracer = Tracer(joulecast) if args.trace else None
    try:
        with harness.WarningCounter((NotConvergedWarning, SingularityWarning)) as warned:
            ctx = workloads.Context(args.seed, args.seconds, workdir, run, warned, tracer)
            result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]

    gated = {**result.metrics, "peak_rss_mb": harness.peak_rss_mb()}
    print("env " + json.dumps(env))
    print("warnings " + json.dumps(warned.counts))
    if not args.trace:  # a traced run's set-up and memory include the tracer
        for name, value in gated.items():
            print(f"{args.workload:>8}  {name:<28} {value:12.6g} {END_TO_END[name]}")
    for name, (value, unit) in result.detail.items():
        print(f"{args.workload:>8}  {name:<28} {value:12.6g} {unit}")
    print("detail " + json.dumps({name: {"value": value, "unit": unit}
                                  for name, (value, unit) in result.detail.items()}))
    for note in result.notes:
        print(f"NOTE {note}")
    for problem in run.problems:
        print(f"FAILED {problem}")

    if args.trace:
        layers = layer_metrics(ctx, result)
        doc = {
            "env": env,
            "detail": result.detail,
            "per_layer": layers,
            "overhead": result.overhead,
            "functions": {
                phase: {name: {"calls": c, "total_s": t, "self_s": s}
                        for name, (c, t, s) in sorted(totals.items())}
                for phase, totals in ctx.traced_totals.items()
            },
            "tables": result.tables,
        }
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, default=str)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
        table = merge_tables(OUT_DIR, args.seed)
        if table:
            print(f"per-CNN-layer table written to {os.path.relpath(table, ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": gated[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        return fail(f"no joulecast package under {SRC}; run from a repository checkout")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return fail(f"workload {workload} exited with {proc.returncode}")
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, entry in last["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = entry
        for line in lines[:-1]:
            if line.startswith("detail "):
                for name, entry in json.loads(line[len("detail "):]).items():
                    summary["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
