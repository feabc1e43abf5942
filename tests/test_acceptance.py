"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` or in captured output) and holding
to its wall-clock budget."""
import os
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ALPHA, split_records, synth_dataset, synth_modelwise, synth_records, write_layerwise
from joulecast.arch import LayerConfig, LayerKind, load_architecture, propagate_shape, TensorShape
from joulecast.cli import main as cli_main
from joulecast.dataset import load_layerwise_csv
from joulecast.errors import AggregationWarning
from joulecast.macs import architecture_macs, standalone_macs
from joulecast.predict import (
    estimate,
    evaluate_on_real,
    run_ablation,
    train_default_bundle,
)
from joulecast.probe import SimulatedMachine, energy_delta, measure_config
from joulecast.regress import fit_ols, lasso_path
from test_probe import ScriptedMachine
from test_regress import soft_threshold


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:>2} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[acceptance] {number:>2} {name}: PASS ({elapsed:.2f}s)")


def test_01_vgg11_mac_totals_exact():
    with criterion(1, "VGG11 per-type MAC totals are integer-exact", budget_s=1.0):
        per_layer, _ = architecture_macs(load_architecture("vgg11").with_batch(1), include_bias=True)
        totals = {}
        for _, kind, macs in per_layer:
            totals[kind] = totals.get(kind, 0) + macs
        assert totals[LayerKind.CONV2D] == 7_492_882_432
        assert totals[LayerKind.LINEAR] == 123_642_856
        assert totals[LayerKind.MAXPOOL2D] == 3_060_736
        assert totals[LayerKind.RELU] == 3_717_120


def test_02_mac_counts_match_loop_oracles():
    with criterion(2, "conv/linear/pool MACs equal naive loop counts (200 configs)", budget_s=10.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            batch, c_in, c_out = (int(rng.integers(1, 7)) for _ in range(3))
            side = int(rng.integers(2, 9))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, 3))
            kernel = int(rng.integers(1, min(4, side + 2 * padding) + 1))

            conv_cfg = LayerConfig(
                kind=LayerKind.CONV2D, batch_size=batch, image_size=side, kernel_size=kernel,
                in_channels=c_in, out_channels=c_out, stride=stride, padding=padding,
            )
            out = propagate_shape(TensorShape(batch, c_in, side, side), conv_cfg)
            multiplies = 0
            for _b in range(batch):
                for _co in range(c_out):
                    for _i in range(out.height):
                        for _j in range(out.width):
                            for _ci in range(c_in):
                                for _k in range(kernel * kernel):
                                    multiplies += 1
            assert standalone_macs(conv_cfg, include_bias=False) == multiplies

            lin_cfg = LayerConfig(
                kind=LayerKind.LINEAR, batch_size=batch, in_channels=c_in * 8, out_channels=c_out * 8,
            )
            lin_mult = 0
            for _b in range(batch):
                for _o in range(c_out * 8):
                    for _i in range(c_in * 8):
                        lin_mult += 1
            assert standalone_macs(lin_cfg, include_bias=False) == lin_mult

            pool_pad = min(padding, kernel // 2)
            pool_cfg = LayerConfig(
                kind=LayerKind.MAXPOOL2D, batch_size=batch, image_size=side, kernel_size=kernel,
                in_channels=c_in, stride=stride, padding=pool_pad,
            )
            pool_out = propagate_shape(TensorShape(batch, c_in, side, side), pool_cfg)
            visits = 0
            for _b in range(batch):
                for _c in range(c_in):
                    for _i in range(pool_out.height):
                        for _j in range(pool_out.width):
                            visits += kernel * kernel
            assert standalone_macs(pool_cfg) == visits // 2


def test_03_ols_against_normal_equations():
    with criterion(3, "OLS matches the normal-equations oracle on 100 problems", budget_s=10.0):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n, p = 60, int(rng.integers(2, 8))
            X = rng.standard_normal((n, p)) + rng.standard_normal(p)
            y = X @ rng.standard_normal(p) + rng.standard_normal() + 0.1 * rng.standard_normal(n)
            model = fit_ols(X, y)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            oracle = np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)
            np.testing.assert_allclose(model.coefficients, oracle, rtol=1e-8, atol=1e-12)
            residual = y - model.predict(X)
            scale = np.abs(Xc.T @ Xc).max()
            assert np.abs(Xc.T @ residual).max() < 1e-8 * max(scale, 1.0)


def test_04_lasso_properties():
    with criterion(4, "lasso: zero-penalty OLS agreement, kill threshold, closed form", budget_s=10.0):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((80, 5))
        y = X @ np.array([1.0, -2.0, 0.0, 0.5, 3.0]) + 0.05 * rng.standard_normal(80)
        ols = fit_ols(X, y)
        lasso0 = lasso_path(X, y, [0.0])[0].model
        np.testing.assert_allclose(lasso0.coefficients, ols.coefficients, atol=1e-6)

        # the kill threshold applies to the centered problem the solver sees,
        # computed with the same per-column dot products
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        lam_max = max(abs(float(Xc[:, j] @ yc)) for j in range(X.shape[1])) / len(y)
        killed = lasso_path(X, y, [lam_max])[0].model
        assert killed.coefficients == tuple([0.0] * 5)
        assert killed.intercept == pytest.approx(y.mean())

        x1 = rng.standard_normal(50)
        y1 = 1.7 * x1 + 0.2 * rng.standard_normal(50)
        lam = 0.3
        x1c, y1c = x1 - x1.mean(), y1 - y1.mean()
        closed = soft_threshold(float(x1c @ y1c) / 50, lam) / (float(x1c @ x1c) / 50)
        model = lasso_path(x1[:, None], y1, [lam])[0].model
        assert model.coefficients[0] == pytest.approx(closed, rel=1e-10)


def test_05_synthetic_end_to_end_recovery():
    with criterion(5, "synthetic world: per-kind test R2 >= 0.99, VGG11 within 2%", budget_s=60.0):
        records = synth_dataset(seed=7)
        bundle = train_default_bundle(records, 11)
        for kind, model in bundle.models.items():
            assert model.test_metrics.r2 >= 0.99, f"{kind.value}: {model.test_metrics.r2}"
        arch = load_architecture("vgg11")
        result = estimate(bundle, arch, batch_size=1)
        _, total_macs = architecture_macs(arch)
        analytic = ALPHA * total_macs
        assert abs(result.total_joules - analytic) / analytic < 0.02


PAPER_DATA_ENV = "JOULECAST_PAPER_DATA"
PUBLISHED_TEST_R2 = {
    LayerKind.CONV2D: 0.9977,
    LayerKind.MAXPOOL2D: 0.9995,
    LayerKind.LINEAR: 0.9992,
    LayerKind.RELU: 0.9812,
    LayerKind.SIGMOID: 0.9905,
    LayerKind.TANH: 0.9761,
    LayerKind.SOFTMAX: 0.9913,
}


@pytest.mark.skipif(
    PAPER_DATA_ENV not in os.environ,
    reason=f"set {PAPER_DATA_ENV} to a directory holding converted layerwise.csv/modelwise.csv "
    "from the published measurement data",
)
def test_06_published_data_reproduction():
    from joulecast.dataset import load_modelwise_csv

    with criterion(6, "published-data reproduction (per-kind R2 within +/-0.02)"):
        data_dir = os.environ[PAPER_DATA_ENV]
        records = load_layerwise_csv(os.path.join(data_dir, "layerwise.csv"), verify_macs=False)
        bundle = train_default_bundle(records, 0)
        for kind, expected in PUBLISHED_TEST_R2.items():
            got = bundle.models[kind].test_metrics.r2
            assert abs(got - expected) <= 0.02, f"{kind.value}: {got} vs {expected}"
        modelwise_path = os.path.join(data_dir, "modelwise.csv")
        if os.path.exists(modelwise_path):
            evaluation = evaluate_on_real(bundle, load_modelwise_csv(modelwise_path))
            # reported, not gated: split randomness and converter fidelity dominate
            print(f"[acceptance]    overall full-architecture R2: {evaluation.overall.r2:.3f}")


def test_07_sum_invariant_and_aggregation_warning(trained_bundle):
    with criterion(7, "estimate totals are exact sums; >5% total mismatch warns", budget_s=5.0):
        for name in ("alexnet", "vgg11", "vgg13", "vgg16"):
            result = estimate(trained_bundle, load_architecture(name), 2)
            running = 0.0
            for layer in result.layers:
                running += layer.joules
            assert result.total_joules == running  # bit-exact, same accumulation order
        skewed = synth_modelwise(arch_names=("vgg11",), batches=(1,), total_scale=1.06)
        with pytest.warns(AggregationWarning):
            evaluate_on_real(trained_bundle, skewed)
        clean = synth_modelwise(arch_names=("vgg11",), batches=(1,), total_scale=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_on_real(trained_bundle, clean)
        assert not [c for c in caught if c.category is AggregationWarning]


def test_08_ablation_exhaustive_with_mac_gap():
    with criterion(8, "conv ablation: 32767 subsets; MAC subsets dominate", budget_s=300.0):
        records = synth_records(LayerKind.CONV2D, 240, seed=7)
        table = run_ablation(records, LayerKind.CONV2D, 11)
        assert len(table.columns) == 15 and len(table.r2) == 2**15  # masks 1..32767, and the empty mask
        assert np.isfinite(table.r2[1:]).all()
        mac_bit = 1 << table.columns.index("macs")
        with_mac = [table.r2[mask] for mask in range(1, 2**15) if mask & mac_bit]
        without_mac = [table.r2[mask] for mask in range(1, 2**15) if not mask & mac_bit]
        assert len(with_mac) == 2**14 and len(without_mac) == 2**14 - 1
        assert min(with_mac) > max(without_mac)


def test_09a_probe_arithmetic_without_hardware():
    with criterion(9, "probe arithmetic: wraparound, normalization, averaging", budget_s=10.0):
        assert energy_delta(100, 250, 10**6) == 150
        assert energy_delta(999_990, 10, 10**6) == 20

        cfg = LayerConfig(kind=LayerKind.RELU, batch_size=1, in_channels=50_000)
        machine = ScriptedMachine([0, 30_000_000], step=0.03)
        result = measure_config(cfg, 50_000, window_seconds=30.0, repeats=1, machine=machine)
        assert result.repeats[0].passes == 1000
        assert result.energy_per_pass_j == 0.03

        machine = ScriptedMachine([0, 30_000_000, 30_000_000, 61_000_000, 61_000_000, 90_000_000], step=0.03)
        result = measure_config(cfg, 50_000, window_seconds=30.0, repeats=3, machine=machine)
        assert [r.energy_per_pass_j for r in result.repeats] == [0.03, 0.031, 0.029]
        assert result.energy_per_pass_j == pytest.approx(0.03, rel=1e-12)

        machine = SimulatedMachine(noise=0.0, seed=1)
        sim = measure_config(cfg, 25_000, window_seconds=0.01, repeats=3, machine=machine)
        assert sim.energy_per_pass_j == pytest.approx(20.0 * 25_000 / 5e9, rel=1e-6)


from joulecast.probe import discover_rapl_domains  # noqa: E402

HAVE_RAPL = bool(discover_rapl_domains())


@pytest.mark.skipif(not HAVE_RAPL, reason="no readable RAPL powercap domains on this host")
def test_09b_rapl_smoke_positive_energy():
    with criterion(9, "RAPL smoke: spin workload draws strictly positive joules"):
        cfg = LayerConfig(kind=LayerKind.TANH, batch_size=8, in_channels=200_000)
        result = measure_config(cfg, standalone_macs(cfg), window_seconds=0.5, repeats=1)
        assert result.energy_per_pass_j > 0.0


def test_10_determinism_across_runs(tmp_path):
    with criterion(10, "identical seeds give byte-identical bundles, splits, CSVs", budget_s=120.0):
        records = synth_dataset(seed=21, n_mac=120, n_act=80)
        csv_path = tmp_path / "layerwise.csv"
        write_layerwise(csv_path, records)

        bundles = []
        for run in ("a", "b"):
            out = tmp_path / f"bundle_{run}.json"
            code = cli_main(["--seed", "4", "--quiet", "train", "--layerwise", str(csv_path),
                             "--out", str(out), "--cv-folds", "2"])
            assert code == 0
            bundles.append(out.read_bytes())
        assert bundles[0] == bundles[1]

        loaded = load_layerwise_csv(csv_path)
        assert split_records(loaded, 4) == split_records(loaded, 4)

        tables = []
        for run in ("a", "b"):
            out = tmp_path / f"table_{run}.csv"
            code = cli_main(["--seed", "4", "--quiet", "feature-experiment",
                             "--layerwise", str(csv_path), "--kind", "linear", "--out", str(out)])
            assert code == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

        ablations = []
        linear_records = [r for r in records if r.module is LayerKind.LINEAR]
        for _ in range(2):
            table = run_ablation(linear_records, LayerKind.LINEAR, 4)
            ablations.append((table.columns, table.r2.tobytes(), table.mse.tobytes()))
        assert ablations[0] == ablations[1]
