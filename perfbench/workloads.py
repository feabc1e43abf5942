"""The three workloads. Each is a closed loop with one caller in one process
and drives joulecast only through ``cli.main`` and public functions.

A workload function takes a ``Context`` and returns a ``Result``:

- ``metrics``: the gated end-to-end figures (``setup_s``, ``round_s``; the
  runner adds ``peak_rss_mb``). A *round* is the workload's fixed unit of
  work, and ``round_s`` is the sum over its operations of each operation's
  fastest time in the run: on a shared machine interference only adds time,
  so the fastest repeat is the steadiest estimate of the program's own cost.
  The median-based ``round_p50_s`` is printed next to it.
- ``detail``: the workload's own end-to-end figures (stage times, request
  latency, MAC rates), printed with units next to the gated ones.
- ``layers``: per-module figures, filled only when the run is traced.
- ``tables``: the per-CNN-layer rows this workload can fill.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

import joulecast
from joulecast import cli, probe
from joulecast.arch import as_standalone_config

from perfbench import reference
from perfbench.archgen import random_architecture
from perfbench.stats import gmacs_per_second, median, tail_percentile
from perfbench.tracer import delta

LAYER_KINDS = ("conv2d", "maxpool2d", "linear", "relu", "sigmoid", "tanh", "softmax")
CONFIGS_PER_KIND = 60  # the README quick start
MODELWISE_ARCHS = ("alexnet", "vgg11")
TABLE_ARCHS = ("alexnet", "vgg11")
SETUP_REPEATS = 9
FORWARD_SETUP_REPEATS = 2  # one VGG11 weight set is ~1 GB to draw
TRAINS_PER_FLOW = 3  # train_s is their median; all must give the same bytes
ABLATION_MASKS = 2**15 - 1  # Conv2d: 7 parameters, their 7 logs and the MAC count
EXPERIMENT_ROWS = 5  # the Conv2d rows of the feature-set table
ESTIMATE_BATCHES = (1, 8, 64)
RANDOM_ARCHITECTURES = 24
REFERENCE_TOLERANCE = 1e-9
WARMUP_PASSES = 2  # the first pass through a cold kernel reads several times slow
TABLE_ESTIMATES = 20  # estimates per architecture behind the estimate-us column
ESTIMATE_SPAN = "predict.PredictorModel.predict_energy"


def now() -> float:
    return time.perf_counter()


@dataclass
class Segment:
    rounds: int = 1  # traced totals are divided by this


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    overhead: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


class Context:
    """Inputs and bookkeeping of one run."""

    def __init__(self, seed: int, seconds: float, workdir: str, run, warnings, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.run = run
        self.warnings = warnings
        self.tracer = tracer
        self.traced_totals = {"setup": {}, "timed": {}}
        self.traced_warnings: dict[str, float] = {}

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    @contextlib.contextmanager
    def traced(self, phase: str):
        """Trace the block when the run is traced; totals are added per round."""
        segment = Segment()
        if self.tracer is None:
            yield segment
            return
        before = self.tracer.totals()
        warned = dict(self.warnings.counts)
        with self.tracer.installed():
            yield segment
        acc = self.traced_totals[phase]
        for name, values in delta(self.tracer.totals(), before).items():
            old = acc.get(name, (0.0, 0.0, 0.0))
            acc[name] = tuple(o + v / segment.rounds for o, v in zip(old, values))
        if phase == "timed":
            for name, count in self.warnings.counts.items():
                self.traced_warnings[name] = (
                    self.traced_warnings.get(name, 0.0) + (count - warned[name]) / segment.rounds
                )


def cli_call(argv) -> tuple[bool, float, str]:
    """Run one README command line; (ok, seconds, failure)."""
    start = now()
    try:
        code = cli.main(["--quiet", *map(str, argv)])
    except Exception:  # a crash fails this operation, not the run
        traceback.print_exc()
        return False, now() - start, f"joulecast {argv[0]} raised"
    elapsed = now() - start
    return code == 0, elapsed, "" if code == 0 else f"exit code {code}"


def repeated_setup(repeats: int, build):
    """Build ``repeats`` times, keeping the last; (result, median seconds)."""
    times = []
    result = None
    for i in range(repeats):
        result = None
        gc.collect()
        start = now()
        result = build(i)
        times.append(now() - start)
    return result, median(times)


def build_dataset(ctx: Context, directory: str, modelwise: bool) -> dict:
    """The README quick-start data: 60 simulated configs per kind, seeds seed+i."""
    paths = {"layerwise": os.path.join(directory, "layerwise.csv")}
    commands = [
        ["--seed", ctx.seed + i, "--simulate", "collect", "--kind", kind,
         "--count", CONFIGS_PER_KIND, "--out", paths["layerwise"]]
        for i, kind in enumerate(LAYER_KINDS)
    ]
    if modelwise:
        paths["modelwise"] = os.path.join(directory, "modelwise.csv")
        commands += [
            ["--seed", ctx.seed + 100 + i, "--simulate", "collect", "--kind", arch,
             "--count", 2, "--out", paths["modelwise"]]
            for i, arch in enumerate(MODELWISE_ARCHS)
        ]
    for argv in commands:
        ok, _, failure = cli_call(argv)
        ctx.run.op([failure], f"collect {argv[5]}")
    return paths


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# fit: train -> ablate -> feature-experiment -> evaluate -> report
# ---------------------------------------------------------------------------

def _check_ablation(path) -> tuple[list[str], float]:
    """Failed checks, and the MAC-dominance gap: min R2 with MAC minus max R2 without.

    The gap is reported, not checked: on README-range data it is positive
    for some dataset seeds and negative for others (single small test split,
    absolute-joule targets), so a check on it would fail the run by seed.
    """
    rows = _read_csv(path)
    failures = []
    if sorted(int(r["mask"]) for r in rows) != list(range(1, ABLATION_MASKS + 1)):
        failures.append(f"{len(rows)} ablation rows, expected masks 1..{ABLATION_MASKS} once each")
    if not all(math.isfinite(float(r["r2"])) and math.isfinite(float(r["mse"])) for r in rows):
        failures.append("non-finite ablation score")
    with_mac = [float(r["r2"]) for r in rows if r["contains_mac"] == "1"]
    without = [float(r["r2"]) for r in rows if r["contains_mac"] == "0"]
    if not (with_mac and without):
        failures.append("ablation lacks subsets with or without the MAC count")
        return failures, math.nan
    return failures, min(with_mac) - max(without)


def _check_experiment(path) -> list[str]:
    rows = _read_csv(path)
    scores = ("cv_r2_mean", "cv_r2_std", "cv_mse_mean", "cv_mse_std", "r2_test", "mse_test")
    failures = []
    if len(rows) != EXPERIMENT_ROWS:
        failures.append(f"{len(rows)} feature-experiment rows, expected {EXPERIMENT_ROWS}")
    if not all(math.isfinite(float(r[s])) for r in rows for s in scores):
        failures.append("non-finite feature-experiment score")
    return failures


def _read_bytes(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _flow(ctx: Context, data: dict, reference_bundle: bytes | None, name: str) -> dict:
    """One timed pass through the fit stages; checks run after the clock stops."""
    out = ctx.fresh_dir(name)
    seed = ctx.seed
    bundles = [os.path.join(out, f"bundle{i}.json") for i in range(TRAINS_PER_FLOW)]
    ablation = os.path.join(out, "ablation.csv")
    experiment = os.path.join(out, "experiment.csv")
    evaluation = os.path.join(out, "evaluation")
    report_dir = os.path.join(out, "report")
    stages = [
        ("train", ["--seed", seed, "train", "--layerwise", data["layerwise"], "--out", path])
        for path in bundles
    ] + [
        ("ablate", ["--seed", seed, "ablate", "--layerwise", data["layerwise"],
                    "--kind", "conv2d", "--out", ablation]),
        ("feature-experiment", ["--seed", seed, "feature-experiment", "--layerwise",
                                data["layerwise"], "--kind", "conv2d", "--out", experiment]),
        ("evaluate", ["evaluate", "--bundle", bundles[0], "--modelwise", data["modelwise"],
                      "--out-dir", evaluation]),
        ("report", ["report", "--layer-scatter", os.path.join(evaluation, "layer_scatter.csv"),
                    "--totals", os.path.join(evaluation, "totals_scatter.csv"),
                    "--ablation", ablation, "--out-dir", report_dir]),
    ]
    results = []
    start = now()
    for stage, argv in stages:
        results.append((stage, *cli_call(argv)))
    flow_s = now() - start

    gap = math.nan
    times: dict[str, list[float]] = {}
    for i, (stage, ok, elapsed, failure) in enumerate(results):
        times.setdefault(stage, []).append(elapsed)
        if not ok:
            failures = [failure]
        elif stage == "train":  # the trains come first, so i indexes bundles
            same = _read_bytes(bundles[i]) == reference_bundle
            failures = [] if same else ["bundle differs from a retrain on the same CSV"]
        elif stage == "ablate":
            failures, gap = _check_ablation(ablation)
        elif stage == "feature-experiment":
            failures = _check_experiment(experiment)
        elif stage == "evaluate":
            written = os.path.exists(os.path.join(evaluation, "metrics.csv"))
            failures = [] if written else ["no metrics.csv"]
        else:
            written = any(f.endswith(".svg") for f in os.listdir(report_dir))
            failures = [] if written else ["no SVG written"]
        ctx.run.op(failures, stage)
    shutil.rmtree(out, ignore_errors=True)
    return {"flow_s": flow_s, "mac_gap": gap, "samples": times}


def fit(ctx: Context) -> Result:
    def build(i):
        return build_dataset(ctx, ctx.fresh_dir(f"setup{i}"), modelwise=True)

    with ctx.traced("setup"):
        data, setup_s = repeated_setup(1 if ctx.trace else SETUP_REPEATS, build)

    # warm-up: the first least-squares solves of a process can run cold
    warm = os.path.join(ctx.workdir, "reference-bundle.json")
    ok, _, failure = cli_call(["--seed", ctx.seed, "train", "--layerwise", data["layerwise"],
                               "--out", warm])
    ctx.run.op([failure], "train (warm-up)")
    reference_bundle = _read_bytes(warm)

    flows = []
    if ctx.trace:
        flows.append(_flow(ctx, data, reference_bundle, "flow-untraced"))
        with ctx.traced("timed"):
            traced = _flow(ctx, data, reference_bundle, "flow-traced")
    else:
        deadline = now() + ctx.seconds
        while not flows or now() + flows[-1]["flow_s"] <= deadline:
            flows.append(_flow(ctx, data, reference_bundle, f"flow{len(flows)}"))
    flow_s = median([f["flow_s"] for f in flows])
    samples: dict[str, list[float]] = {}
    for f in flows:
        for stage, ts in f["samples"].items():
            samples.setdefault(stage, []).extend(ts)

    result = Result()
    result.metrics = {"setup_s": setup_s, "round_s": sum(min(ts) for ts in samples.values())}
    result.detail = {
        "flow_s": (flow_s, "s"),
        "round_p50_s": (sum(median(ts) for ts in samples.values()), "s"),
        "train_s": (median(samples["train"]), "s"),
        "ablate_s": (median(samples["ablate"]), "s"),
        "feature_experiment_s": (median(samples["feature-experiment"]), "s"),
        "flows": (len(flows), "count"),
        "ablate_mac_gap": (flows[-1]["mac_gap"], "R2"),
    }
    if not flows[-1]["mac_gap"] > 0:
        result.notes.append("MAC-dominance gap does not hold on this dataset: the worst subset "
                            "with the MAC count scores below the best subset without it")
    if ctx.trace:
        result.overhead = {"flow_s": {"untraced": flow_s, "traced": traced["flow_s"]}}
        result.layers["trace.overhead_pct"] = 100.0 * (traced["flow_s"] - flow_s) / flow_s
    return result


# ---------------------------------------------------------------------------
# estimate: parse an architecture, estimate it, serialise the estimate
# ---------------------------------------------------------------------------

def make_requests(seed: int) -> list[tuple[str, str, int]]:
    """(label, architecture JSON, batch): the presets at each batch, then random ones."""
    requests = [
        (f"{name}@{batch}", joulecast.load_architecture(name).to_json(), batch)
        for name in ("alexnet", "vgg11", "vgg13", "vgg16")
        for batch in ESTIMATE_BATCHES
    ]
    rng = np.random.default_rng(seed)
    for i in range(RANDOM_ARCHITECTURES):
        doc = random_architecture(rng, f"random{i}")
        batch = ESTIMATE_BATCHES[int(rng.integers(len(ESTIMATE_BATCHES)))]
        requests.append((f"random{i}@{batch}", json.dumps(doc), batch))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _mean(values) -> float:
    values = list(values)
    return fmean(values) if values else math.nan


def _request(bundle, text: str, batch: int) -> dict:
    arch = joulecast.load_architecture(text)
    return joulecast.estimate(bundle, arch, batch).to_dict()


def _check_estimate(doc: dict, text: str, batch: int) -> list[str]:
    failures = []
    total = 0.0
    for layer in doc["per_layer"]:
        total += layer["predicted_joules"]
    if total != doc["total_joules"]:
        failures.append("total_joules is not the in-order sum of per-layer joules")
    per_layer, total_macs = joulecast.architecture_macs(
        joulecast.load_architecture(text).with_batch(batch)
    )
    if [layer["macs"] for layer in doc["per_layer"]] != [macs for _, _, macs in per_layer]:
        failures.append("per-layer MACs or layer count differ from architecture_macs")
    if doc["total_macs"] != total_macs:
        failures.append("total_macs differs from architecture_macs")
    return failures


def estimate(ctx: Context) -> Result:
    machine = probe.SimulatedMachine()
    joules_per_mac = machine.power_w / machine.mac_rate  # the simulated truth

    def build(i):
        directory = ctx.fresh_dir(f"setup{i}")
        data = build_dataset(ctx, directory, modelwise=False)
        path = os.path.join(directory, "bundle.json")
        ok, _, failure = cli_call(["--seed", ctx.seed, "train", "--layerwise", data["layerwise"],
                                   "--out", path])
        ctx.run.op([failure], "train")
        return joulecast.PredictorBundle.load(path), make_requests(ctx.seed)

    with ctx.traced("setup"):
        (bundle, requests), setup_s = repeated_setup(1 if ctx.trace else SETUP_REPEATS, build)

    # warm-up cycle: checks every request and records its answer
    expected, errors, clamped = [], {}, []
    for label, text, batch in requests:
        try:
            doc = _request(bundle, text, batch)
        except Exception:
            traceback.print_exc()
            ctx.run.op(["raised"], f"estimate {label}")
            expected.append(None)
            continue
        ctx.run.op(_check_estimate(doc, text, batch), f"estimate {label}")
        expected.append(doc["total_joules"])
        truth = joules_per_mac * doc["total_macs"]
        errors[label] = abs(doc["total_joules"] - truth) / truth
        clamped.append(len(doc["flags"]["clamped_layers"]))

    def cycles(seconds: float, segment: Segment | None = None) -> dict:
        samples: list[float] = []
        per_request: list[list[float]] = [[] for _ in requests]
        layers = 0
        count = 0
        deadline = now() + seconds
        while count == 0 or now() < deadline:
            for i, (label, text, batch) in enumerate(requests):
                start = now()
                try:
                    doc = _request(bundle, text, batch)
                except Exception:
                    traceback.print_exc()
                    ctx.run.op(["raised"], f"estimate {label}")
                    continue
                elapsed = now() - start
                same = doc["total_joules"] == expected[i]
                ctx.run.op([] if same else ["answer changed between requests"], f"estimate {label}")
                samples.append(elapsed)
                per_request[i].append(elapsed)
                layers += len(doc["per_layer"])
            count += 1
        if segment is not None:
            segment.rounds = count
        return {
            "samples": samples,
            "round_s": sum(min(ts) for ts in per_request if ts),
            "round_p50_s": sum(median(ts) for ts in per_request if ts),
            "layers_per_s": layers / sum(samples),
            "cycles": count,
        }

    if ctx.trace:
        timed = cycles(ctx.seconds / 2)
        with ctx.traced("timed") as segment:
            traced = cycles(ctx.seconds / 2, segment)
    else:
        timed = cycles(ctx.seconds)

    samples = timed["samples"]
    result = Result()
    result.metrics = {"setup_s": setup_s, "round_s": timed["round_s"]}
    tail = tail_percentile(samples)
    result.detail = {
        "estimate_p50_ms": (1e3 * median(samples), "ms"),
        "estimate_layers_per_s": (timed["layers_per_s"], "1/s"),
        "estimate_err_pct": (100.0 * _mean(errors.values()), "%"),
        "estimate_err_pct_presets": (
            100.0 * _mean(e for k, e in errors.items() if not k.startswith("random")), "%"),
        "round_p50_s": (timed["round_p50_s"], "s"),
        "requests": (len(samples), "count"),
        "cycles": (timed["cycles"], "count"),
    }
    if tail is not None:
        p, value, beyond, n = tail
        result.detail["estimate_tail_ms"] = (1e3 * value, "ms")
        result.detail["estimate_tail_percentile"] = (p, "%")
        result.detail["estimate_tail_beyond"] = (beyond, "count")
    if ctx.trace:
        result.layers["predict.layers_clamped"] = float(sum(clamped))
        result.layers["trace.overhead_pct"] = (
            100.0 * (traced["round_s"] - timed["round_s"]) / timed["round_s"]
        )
        result.overhead = {
            "request_p50_ms": {"untraced": 1e3 * median(samples),
                               "traced": 1e3 * median(traced["samples"])},
            "round_s": {"untraced": timed["round_s"], "traced": traced["round_s"]},
        }
        result.tables = _estimate_table(ctx, bundle)
    return result


def _estimate_table(ctx: Context, bundle) -> dict:
    """Median predict_energy span per layer of each table architecture, batch 1."""
    rows = {}
    with ctx.tracer.installed(), ctx.tracer.capture([ESTIMATE_SPAN]) as spans:
        for name in TABLE_ARCHS:
            arch = joulecast.load_architecture(name)
            per_call = []
            for _ in range(TABLE_ESTIMATES):
                first = len(spans)
                estimate_doc = joulecast.estimate(bundle, arch, 1)
                per_call.append([end - start for _, start, end in spans[first:]])
            indices = [layer.layer_index for layer in estimate_doc.layers]
            rows[name] = {
                index: {"estimate_us": 1e6 * median([call[j] for call in per_call])}
                for j, index in enumerate(indices)
            }
    return rows


# ---------------------------------------------------------------------------
# forward: the standalone and full-architecture kernels of collect
# ---------------------------------------------------------------------------

def _array_bytes(shape) -> int:
    return 8 * shape.batch * shape.channels * shape.height * shape.width  # float64


def _weight_shape(config) -> tuple[int, ...] | None:
    """Shape of the weight tensor of a weighted layer; each has one bias per output."""
    if config.kind is joulecast.LayerKind.CONV2D:
        k = config.kernel_size
        return (config.out_channels, config.in_channels, k, k)
    if config.kind is joulecast.LayerKind.LINEAR:
        return (config.out_channels, config.in_channels)
    return None


def _standalone_items(name: str) -> list[dict]:
    arch = joulecast.load_architecture(name).with_batch(1)
    per_layer, _ = joulecast.architecture_macs(arch)
    items = []
    for resolved, (index, kind, macs) in zip(joulecast.extract_predictable_layers(arch), per_layer):
        config = as_standalone_config(resolved.config, resolved.input_shape)
        shape = _weight_shape(config)
        weights = math.prod(shape) + shape[0] if shape else 0
        items.append({
            "arch": name, "index": index, "kind": kind.value, "macs": macs, "config": config,
            "input_shape": resolved.input_shape,
            "bytes": _array_bytes(resolved.input_shape) + _array_bytes(resolved.output_shape)
            + 8 * weights,
            "run": probe.make_workload(config),
        })
    return items


def _pass_items(name: str) -> list[dict]:
    arch = joulecast.load_architecture(name)
    _, total = joulecast.architecture_macs(arch)
    return [{"arch": name, "index": "pass", "kind": "pass", "macs": total,
             "run": probe.make_architecture_workload(arch, 1)}]


def _weights_for(config, rng) -> dict | None:
    """Fresh weights drawn in place (no float64 copy of a ~1 GB draw)."""
    shape = _weight_shape(config)
    if shape is None:
        return None
    scale = 1.0 / math.sqrt(math.prod(shape[1:]))
    weight = rng.standard_normal(shape)
    weight *= scale
    return {"weight": weight, "bias": scale * rng.standard_normal(config.out_channels)}


def _check_layer(item: dict, seed: int) -> list[str]:
    """Output shape, finiteness and, for weighted or pooling kernels, the reference."""
    config = item["config"]
    rng = np.random.default_rng(seed + item["index"])
    s = item["input_shape"]
    flat = config.kind not in (joulecast.LayerKind.CONV2D, joulecast.LayerKind.MAXPOOL2D)
    dims = (s.batch, s.per_sample_elements) if flat else (s.batch, s.channels, s.height, s.width)
    in_shape = joulecast.TensorShape(*dims, 1, 1) if flat else s
    x = rng.standard_normal(dims)
    weights = _weights_for(config, rng)
    out = probe.forward_workload(config, x, weights)
    expected = joulecast.propagate_shape(in_shape, config)
    want = (expected.batch, expected.channels) if flat else (
        expected.batch, expected.channels, expected.height, expected.width)
    failures = []
    if out.shape != want:
        failures.append(f"output shape {out.shape}, propagate_shape gives {want}")
    if not np.isfinite(out).all():
        failures.append("non-finite output")
    ref = None
    if config.kind is joulecast.LayerKind.CONV2D:
        ref = reference.conv2d(x, weights["weight"], weights["bias"], config.stride, config.padding)
    elif config.kind is joulecast.LayerKind.MAXPOOL2D:
        ref = reference.maxpool2d(x, config.kernel_size, config.stride, config.padding)
    elif config.kind is joulecast.LayerKind.LINEAR:
        ref = reference.linear(x, weights["weight"], weights["bias"])
    if ref is not None and not failures:
        error = reference.relative_error(out, ref)
        if error > REFERENCE_TOLERANCE:
            failures.append(f"relative error {error:.3g} against the reference kernel")
    return failures


def forward(ctx: Context) -> Result:
    phases = [(name, part) for name in TABLE_ARCHS for part in ("standalone", "pass")]
    budget = ctx.seconds / len(phases)
    setup_s = 0.0
    timed: dict[tuple, list[float]] = {}
    traced: dict[tuple, list[float]] = {}
    meta: dict[tuple, dict] = {}
    for name, part in phases:
        make = _standalone_items if part == "standalone" else _pass_items
        with ctx.traced("setup"):
            items, seconds = repeated_setup(1 if ctx.trace else FORWARD_SETUP_REPEATS,
                                            lambda i: make(name))
        setup_s += seconds
        for item in items:
            meta[(name, item["index"])] = {k: v for k, v in item.items() if k != "run"}
        for _ in range(WARMUP_PASSES):
            outputs = [item["run"]() for item in items]
        if part == "pass":
            out = outputs[0]
            ok = out.shape == (1, 1000) and bool(np.isfinite(out).all())
            ctx.run.op([] if ok else [f"full pass returned {out.shape} or non-finite values"],
                       f"{name} full pass")
        outputs = None

        def passes(seconds: float, store: dict, segment: Segment | None = None):
            count = 0
            deadline = now() + seconds
            while count == 0 or now() < deadline:
                for item in items:
                    start = now()
                    try:
                        item["run"]()
                    except Exception:
                        traceback.print_exc()
                        ctx.run.op(["raised"], f"{name} layer {item['index']}")
                        continue
                    store.setdefault((name, item["index"]), []).append(now() - start)
                    ctx.run.op([], f"{name} layer {item['index']}")
                count += 1
            if segment is not None:
                segment.rounds = count

        if ctx.trace:
            passes(budget / 2, timed)
            with ctx.traced("timed") as segment:
                passes(budget / 2, traced, segment)
        else:
            passes(budget, timed)
        items = None
        gc.collect()

    for (name, index), item in meta.items():
        if index != "pass":
            ctx.run.op(_check_layer(item, ctx.seed), f"{name} layer {index} output")

    def summary(store):
        med = {key: median(ts) for key, ts in store.items()}
        return med, sum(min(ts) for ts in store.values())

    med, round_s = summary(timed)
    all_passes = [(meta[key]["macs"], t) for key, ts in timed.items() for t in ts]
    result = Result()
    result.metrics = {"setup_s": setup_s, "round_s": round_s}
    result.detail = {
        "forward_gmacs": (gmacs_per_second(all_passes), "GMAC/s"),
        "vgg11_pass_ms": (1e3 * med[("vgg11", "pass")], "ms"),
        "alexnet_pass_ms": (1e3 * med[("alexnet", "pass")], "ms"),
        "round_p50_s": (sum(med.values()), "s"),
        "passes": (len(all_passes), "count"),
    }
    table_source = timed
    if ctx.trace:
        traced_med, traced_round = summary(traced)
        result.overhead = {"round_s": {"untraced": round_s, "traced": traced_round}}
        result.layers["trace.overhead_pct"] = 100.0 * (traced_round - round_s) / round_s
        table_source = traced
        med = traced_med
        for kind in ("conv2d", "maxpool2d", "linear", "relu"):
            keys = [k for k in med if meta[k]["kind"].lower() == kind]
            seconds = sum(med[k] for k in keys)
            macs = sum(meta[k]["macs"] for k in keys)
            result.layers[f"probe.{kind}.ms"] = 1e3 * seconds
            result.layers[f"probe.{kind}.gmacs"] = macs / seconds / 1e9 if seconds else 0.0
            result.layers[f"probe.{kind}.macs_per_byte"] = (
                macs / sum(meta[k]["bytes"] for k in keys) if keys else 0.0)
        pass_keys = [k for k in med if k[1] == "pass"]
        result.layers["probe.arch_pass.gmacs"] = gmacs_per_second(
            [(meta[k]["macs"], med[k]) for k in pass_keys])
    result.tables = {
        name: {
            index: {"kind": meta[(name, index)]["kind"], "macs": meta[(name, index)]["macs"],
                    "workload_ms": 1e3 * median(ts),
                    "gmacs": meta[(name, index)]["macs"] / median(ts) / 1e9}
            for (arch, index), ts in table_source.items() if arch == name and index != "pass"
        }
        for name in TABLE_ARCHS
    }
    return result


WORKLOADS = {"fit": fit, "estimate": estimate, "forward": forward}
