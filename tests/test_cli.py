import csv
import io
import json
from contextlib import redirect_stdout

import pytest

from conftest import synth_dataset, synth_modelwise
from joulecast.cli import main
from joulecast.dataset import load_layerwise_csv, load_modelwise_csv, write_layerwise_csv, write_modelwise_csv


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def layerwise_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "layerwise.csv"
    write_layerwise_csv(path, synth_dataset(seed=7))
    return path


@pytest.fixture(scope="module")
def modelwise_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "modelwise.csv"
    write_modelwise_csv(path, synth_modelwise(arch_names=("vgg11", "alexnet"), batches=(1, 2), noise=0.005))
    return path


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory, layerwise_csv):
    path = tmp_path_factory.mktemp("bundle") / "bundle.json"
    code, _ = run("--seed", "11", "--quiet", "train", "--layerwise", str(layerwise_csv),
                  "--out", str(path), "--cv-folds", "0")
    assert code == 0
    return path


class TestCollect:
    def test_simulated_collect_appends_valid_rows(self, tmp_path):
        out = tmp_path / "collected.csv"
        code, _ = run("--seed", "3", "--simulate", "--quiet", "collect",
                      "--kind", "conv2d", "--count", "2", "--out", str(out))
        assert code == 0
        rows = load_layerwise_csv(out)
        assert len(rows) == 6  # 2 configs x 3 repeats
        assert len({(r.config, r.repeat) for r in rows}) == 6

    def test_fixed_seed_reproduces_configs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _ = run("--seed", "9", "--simulate", "--quiet", "collect",
                          "--kind", "relu", "--count", "3", "--out", str(out))
            assert code == 0
        rows_a, rows_b = load_layerwise_csv(a), load_layerwise_csv(b)
        assert [r.config for r in rows_a] == [r.config for r in rows_b]

    def test_zero_count_writes_no_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        code, _ = run("--simulate", "--quiet", "collect", "--kind", "linear",
                      "--count", "0", "--out", str(out))
        assert code == 0
        assert load_layerwise_csv(out) == []

    def test_architecture_collect_is_modelwise(self, tmp_path):
        out = tmp_path / "model.csv"
        code, _ = run("--seed", "0", "--simulate", "--quiet", "collect",
                      "--kind", "vgg11", "--count", "1", "--out", str(out))
        assert code == 0
        records = load_modelwise_csv(out)
        assert len(records) == 1
        assert len(records[0].layers) == 26
        assert records[0].total_energy_j == pytest.approx(records[0].layer_energy_sum_j, rel=0.2)

    def test_unknown_kind_exits_one(self, tmp_path):
        code, _ = run("--simulate", "collect", "--kind", "resnet", "--count", "1",
                      "--out", str(tmp_path / "x.csv"))
        assert code == 1


class TestMacs:
    def test_vgg11_table(self):
        code, out = run("macs", "--arch", "vgg11")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        totals = {}
        for row in rows[:-1]:
            totals[row["module"]] = totals.get(row["module"], 0) + int(row["macs"])
        assert totals == {
            "Conv2d": 7_492_882_432,
            "Linear": 123_642_856,
            "MaxPool2d": 3_060_736,
            "ReLU": 3_717_120,
        }
        assert rows[-1]["layer_index"] == "total"
        assert int(rows[-1]["macs"]) == sum(totals.values())

    def test_no_bias_is_smaller(self):
        _, with_bias = run("macs", "--arch", "vgg11")
        _, without = run("macs", "--arch", "vgg11", "--no-bias")
        total_with = int(list(csv.DictReader(io.StringIO(with_bias)))[-1]["macs"])
        total_without = int(list(csv.DictReader(io.StringIO(without)))[-1]["macs"])
        assert total_with - total_without == 7_426_048 + 9_192 + 0  # conv + linear bias accumulates


class TestTrainEstimate:
    def test_estimate_reports_26_layers_and_exact_sum(self, bundle_path, tmp_path):
        out = tmp_path / "estimate.json"
        code, _ = run("--quiet", "estimate", "--bundle", str(bundle_path),
                      "--arch", "vgg11", "--batch", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["per_layer"]) == 26
        assert doc["total_joules"] == sum(l["predicted_joules"] for l in doc["per_layer"])
        assert doc["total_macs"] == 7_623_303_144
        assert doc["flags"]["clamped_layers"] == []

    def test_estimate_to_stdout(self, bundle_path):
        code, out = run("--quiet", "estimate", "--bundle", str(bundle_path), "--arch", "alexnet")
        assert code == 0
        doc = json.loads(out)
        assert doc["architecture"] == "alexnet"

    def test_train_determinism_byte_identical(self, layerwise_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run("--seed", "5", "--quiet", "train", "--layerwise", str(layerwise_csv),
                          "--out", str(path), "--cv-folds", "2")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_exits_one(self, tmp_path):
        code, _ = run("--quiet", "train", "--layerwise", str(tmp_path / "nope.csv"),
                      "--out", str(tmp_path / "b.json"))
        assert code == 1


class TestEvaluateReport:
    def test_evaluate_writes_scatter_and_metrics(self, bundle_path, modelwise_csv, tmp_path):
        out_dir = tmp_path / "eval"
        code, text = run("evaluate", "--bundle", str(bundle_path),
                         "--modelwise", str(modelwise_csv), "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "layer_scatter.csv").exists()
        assert (out_dir / "totals_scatter.csv").exists()
        assert (out_dir / "metrics.csv").exists()
        assert "overall full-architecture r2" in text

    def test_report_renders_svgs(self, bundle_path, modelwise_csv, tmp_path):
        eval_dir = tmp_path / "eval"
        run("--quiet", "evaluate", "--bundle", str(bundle_path),
            "--modelwise", str(modelwise_csv), "--out-dir", str(eval_dir))
        report_dir = tmp_path / "report"
        code, _ = run("--quiet", "report",
                      "--layer-scatter", str(eval_dir / "layer_scatter.csv"),
                      "--totals", str(eval_dir / "totals_scatter.csv"),
                      "--out-dir", str(report_dir))
        assert code == 0
        produced = sorted(p.name for p in report_dir.iterdir())
        assert "scatter_totals.svg" in produced
        assert "aggregate_vs_total.svg" in produced
        assert "contribution_bars.svg" in produced
        assert any(name.startswith("scatter_conv2d") for name in produced)
        text = (report_dir / "scatter_totals.svg").read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_report_without_inputs_fails(self, tmp_path):
        code, _ = run("--quiet", "report", "--out-dir", str(tmp_path / "r"))
        assert code == 1


class TestExperiments:
    def test_feature_experiment_csv(self, layerwise_csv, tmp_path):
        out = tmp_path / "table.csv"
        code, _ = run("--seed", "3", "--quiet", "feature-experiment",
                      "--layerwise", str(layerwise_csv), "--kind", "linear", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 5
        assert {r["feature_set"] for r in rows} == {
            "parameter", "(log+)parameter", "MACs", "parameter-MAC", "(log+)parameter-MAC",
        }
        assert all(r["module"] == "Linear" for r in rows)
        assert list(rows[0])[-2:] == ["lasso_sweeps", "lasso_unconverged"]
        assert all(r["lasso_sweeps"] == r["lasso_unconverged"] == "0" for r in rows)  # OLS rows

    def test_feature_experiment_deterministic(self, layerwise_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _ = run("--seed", "3", "--quiet", "feature-experiment",
                          "--layerwise", str(layerwise_csv), "--kind", "linear", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["collect", "--count", "1"])  # missing required --kind/--out
        assert exc.value.code == 2
