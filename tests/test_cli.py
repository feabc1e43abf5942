import csv
import hashlib
import io
import itertools
import json
import os
import re
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from conftest import NON_SQUARE_NET, synth_dataset, synth_modelwise, write_layerwise, write_modelwise
from joulecast import cli, probe
from joulecast.arch import ArchitectureSpec, LayerKind, extract_predictable_layers, load_architecture
from joulecast.cli import main
from joulecast.dataset import SOURCE_RANDOM, load_layerwise_csv, load_modelwise_csv
from joulecast.errors import CounterRangeError, MacOverflowError
from joulecast.features import KindMatrix
from joulecast.macs import standalone_macs
from test_dataset import LAYERWISE_PAST_BUDGET, MODELWISE_PAST_BUDGET, PAST_BUDGET
from test_probe import counted_threads, make_powercap_tree


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def layerwise_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "layerwise.csv"
    write_layerwise(path, synth_dataset(seed=7))
    return path


@pytest.fixture(scope="module")
def modelwise_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "modelwise.csv"
    write_modelwise(path, synth_modelwise(arch_names=("vgg11", "alexnet"), batches=(1, 2), noise=0.005))
    return path


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory, layerwise_csv):
    path = tmp_path_factory.mktemp("bundle") / "bundle.json"
    code, _ = run("--seed", "11", "--quiet", "train", "--layerwise", str(layerwise_csv),
                  "--out", str(path), "--cv-folds", "0")
    assert code == 0
    return path


_NO_DOMAINS = "no readable RAPL package domains under {root} (missing powercap support or insufficient permissions)"


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

    @pytest.mark.filterwarnings("ignore:load average")
    def test_real_kernel_collect_against_a_fake_powercap_tree(self, tmp_path, monkeypatch):
        domain = tmp_path / "powercap" / "intel-rapl:0"
        domain.mkdir(parents=True)
        (domain / "name").write_text("package-0\n")
        (domain / "max_energy_range_uj").write_text("262143328850\n")
        (domain / "energy_uj").write_text("12345\n")
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(tmp_path / "powercap"))
        out = tmp_path / "measured.csv"
        code, _ = run("--seed", "0", "--quiet", "collect", "--kind", "linear", "--count", "2",
                      "--window", "0.001", "--repeats", "1", "--out", str(out))
        assert code == 0
        rows = load_layerwise_csv(out)
        assert len(rows) == 2  # 2 configs x 1 repeat
        assert len({r.config for r in rows}) == 2
        for r in rows:
            assert (r.module, r.repeat, r.source) == (LayerKind.LINEAR, 1, SOURCE_RANDOM)
            assert r.macs == standalone_macs(r.config)
            assert r.cpu_energy_j == 0.0  # the fake counter never advances

    def test_architecture_collect_is_modelwise(self, tmp_path):
        out = tmp_path / "model.csv"
        code, _ = run("--seed", "0", "--simulate", "--quiet", "collect",
                      "--kind", "vgg11", "--count", "1", "--out", str(out))
        assert code == 0
        records = load_modelwise_csv(out)
        assert len(records) == 1
        assert len(records[0].layers) == 26
        assert records[0].total_energy_j == pytest.approx(records[0].layer_energy_sum_j, rel=0.2)

    def test_pin_cpu_reaches_every_architecture_measurement(self, tmp_path, monkeypatch):
        pins = []
        measure = probe.measure_config

        def spy(*args, pin_to_cpu=None, **kwargs):
            pins.append(pin_to_cpu)
            return measure(*args, **kwargs)  # record the pin, do not apply it

        monkeypatch.setattr(probe, "measure_config", spy)
        code, _ = run("--simulate", "--quiet", "collect", "--kind", "alexnet", "--count", "1",
                      "--pin-cpu", "0", "--out", str(tmp_path / "model.csv"))
        assert code == 0
        assert len(pins) == 18 + 1  # every predictable layer, then the full pass
        assert pins == [0] * len(pins)

    def test_crash_keeps_measured_layerwise_configs(self, tmp_path, monkeypatch):
        full, crashed = tmp_path / "full.csv", tmp_path / "crashed.csv"
        code, _ = run("--seed", "4", "--simulate", "--quiet", "collect",
                      "--kind", "conv2d", "--count", "5", "--out", str(full))
        assert code == 0
        calls = []
        measure = probe.measure_config

        def crash_on_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("power loss")
            return measure(*args, **kwargs)

        monkeypatch.setattr(probe, "measure_config", crash_on_third)
        with pytest.raises(RuntimeError):
            run("--seed", "4", "--simulate", "--quiet", "collect",
                "--kind", "conv2d", "--count", "5", "--out", str(crashed))
        rows = load_layerwise_csv(crashed)
        assert rows == load_layerwise_csv(full)[:6]  # 2 configs x 3 repeats
        assert len({r.config for r in rows}) == 2

    def test_crash_keeps_measured_modelwise_records(self, tmp_path, monkeypatch):
        full, crashed = tmp_path / "full.csv", tmp_path / "crashed.csv"
        argv = ("--seed", "2", "--simulate", "--quiet", "collect", "--kind", "alexnet", "--count", "3")
        code, _ = run(*argv, "--out", str(full))
        assert code == 0
        totals = []
        measure = probe.measure_config

        def crash_on_second_total(config, *args, **kwargs):
            if isinstance(config, ArchitectureSpec):
                totals.append(config)
                if len(totals) == 2:
                    raise RuntimeError("power loss")
            return measure(config, *args, **kwargs)

        monkeypatch.setattr(probe, "measure_config", crash_on_second_total)
        with pytest.raises(RuntimeError):
            run(*argv, "--out", str(crashed))
        assert load_modelwise_csv(crashed) == load_modelwise_csv(full)[:1]

    def test_simulated_collect_bytes_pinned(self, tmp_path):
        """The simulated machine's stream, pinned by the digests of its CSVs (taken
        when every simulated pass was stepped one at a time)."""
        layerwise, modelwise = tmp_path / "layerwise.csv", tmp_path / "modelwise.csv"
        for i, kind in enumerate(("conv2d", "maxpool2d", "linear", "relu", "sigmoid", "tanh", "softmax")):
            code, _ = run("--seed", str(i), "--simulate", "--quiet", "collect",
                          "--kind", kind, "--count", "4", "--out", str(layerwise))
            assert code == 0
        code, _ = run("--seed", "100", "--simulate", "--quiet", "collect",
                      "--kind", "alexnet", "--count", "1", "--out", str(modelwise))
        assert code == 0
        assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in (layerwise, modelwise)] == [
            "e65480db3df6f55277ffaf4779ecd653b267e9ade2b92b56ebc5b1dfbb14750a",
            "a26ab1d6398dbdd5edb40ba93af3ba85020a18a1c478943c95d02fc3c24173f6",
        ]

    def test_modelwise_total_past_the_mac_budget_is_the_macs_error(self, capsys, monkeypatch):
        batch = 2**30  # every VGG16 layer fits 64 bits, their total does not
        code, _ = run("macs", "--arch", "vgg16", "--batch", str(batch))
        assert code == 1
        expected = capsys.readouterr().err.removeprefix("error: ").strip()
        assert expected.startswith("total: ")
        measured = []
        monkeypatch.setattr(probe, "measure_config", lambda *args, **kwargs: measured.append(args))
        measure = cli._meter(SimpleNamespace(simulate=True, window=0.05, repeats=1, seed=0, pin_cpu=None))
        with pytest.raises(MacOverflowError) as exc:
            cli._collect_architecture(load_architecture("vgg16"), batch, measure)
        assert str(exc.value) == expected
        assert measured == []  # refused before any measurement

    @pytest.mark.parametrize("seed, skipped", [(0, 0), (1, 3), (2, 1), (3, 1)])
    def test_simulated_rows_lie_within_5pct_of_the_truth(self, tmp_path, capsys, seed, skipped):
        """The demo's Conv2d collects: a config whose one pass outlasts the
        simulator's safe interval is skipped with one stderr line, so no
        row reads a counter that wrapped more than once."""
        out = tmp_path / "conv2d.csv"
        code, _ = run("--seed", str(seed), "--simulate", "--quiet", "collect",
                      "--kind", "conv2d", "--count", "60", "--out", str(out))
        lines = capsys.readouterr().err.splitlines()
        assert code == 0
        assert len(lines) == skipped
        assert all(re.fullmatch(r"skipped Conv2d\(batch_size=\d+, .*, padding=\d+\): a \d+(\.\d+)? s window "
                                r"reached the counters' safe interval of 3276\.63 s", line) for line in lines)
        rows = load_layerwise_csv(out)
        assert len(rows) == 3 * (60 - skipped)
        machine = probe.SimulatedMachine
        truth = [machine.power_w * max(r.macs, 1) / machine.mac_rate for r in rows]
        assert [r for r, j in zip(rows, truth) if abs(r.cpu_energy_j / j - 1) > 0.05] == []

    def test_refused_preset_pass_is_skipped(self, tmp_path, capsys, monkeypatch):
        full, skipped = tmp_path / "full.csv", tmp_path / "skipped.csv"
        argv = ("--seed", "2", "--simulate", "--quiet", "collect", "--kind", "alexnet", "--count", "3")
        code, _ = run(*argv, "--out", str(full))
        assert code == 0
        totals = []
        measure = probe.measure_config

        def refuse_second_total(config, *args, **kwargs):
            if isinstance(config, ArchitectureSpec):
                totals.append(config)
                if len(totals) == 2:
                    raise CounterRangeError("a 4000 s window reached the counters' safe interval of 3276.63 s")
            return measure(config, *args, **kwargs)

        monkeypatch.setattr(probe, "measure_config", refuse_second_total)
        code, _ = run(*argv, "--out", str(skipped))
        assert code == 0
        records = load_modelwise_csv(full)
        assert capsys.readouterr().err == (f"skipped alexnet at batch {records[1].batch_size}: a 4000 s window "
                                           "reached the counters' safe interval of 3276.63 s\n")
        kept = load_modelwise_csv(skipped)
        assert kept[0] == records[0]
        assert [r.batch_size for r in kept] == [records[0].batch_size, records[2].batch_size]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    @pytest.mark.filterwarnings("ignore:load average")
    def test_pinned_architecture_collect_draws_on_one_thread(self, tmp_path, monkeypatch):
        """The full-pass workload is built inside the pinned region, as each
        layer's is, so its large weights start no drawing thread. The default
        ``RaplMachine`` meters a fake powercap tree whose counter advances by
        1,000 uJ a read."""
        made = counted_threads(monkeypatch)
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(make_powercap_tree(tmp_path, [("package-0", 10**12, 0)])))
        readings = itertools.count(0, 1_000)
        monkeypatch.setattr(probe, "read_energy", lambda domain: next(readings))
        measure = cli._meter(SimpleNamespace(simulate=False, window=1e-3, repeats=1, seed=0,
                                             pin_cpu=min(os.sched_getaffinity(0))))
        arch = load_architecture("alexnet")
        record = cli._collect_architecture(arch, 1, measure)
        assert record.total_energy_j > 0 and len(record.layers) == len(extract_predictable_layers(arch))
        assert made == []

    @pytest.mark.parametrize("kind", ["relu", "vgg11"])
    @pytest.mark.parametrize("domain, message", [
        (None, _NO_DOMAINS),
        (("package-0", "abc", 5), _NO_DOMAINS),
        (("package-\u00e9", 10**6, 5), _NO_DOMAINS),
        (("package-0", 0, 5), _NO_DOMAINS),
        (("package-0", 10**6, "abc"), "RAPL counters not readable: {root}/intel-rapl:0/energy_uj: "
                                      "invalid literal for int() with base 10: 'abc'"),
    ], ids=["empty", "range-abc", "non-ascii-name", "range-0", "counter-abc"])
    def test_unusable_rapl_tree_is_refused_before_any_workload(self, tmp_path, capsys, monkeypatch, kind,
                                                               domain, message):
        root = tmp_path / "powercap"
        root.mkdir()
        if domain is not None:
            make_powercap_tree(root, [domain])
        monkeypatch.setenv(probe.POWERCAP_ROOT_ENV, str(root))
        built = []
        monkeypatch.setattr(probe, "make_workload", lambda *args: built.append(args))
        monkeypatch.setattr(probe, "make_architecture_workload", lambda *args: built.append(args))
        out = tmp_path / "x.csv"
        code, _ = run("--quiet", "collect", "--kind", kind, "--count", "1", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(root=root)}\n"
        assert built == []
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["relu", "alexnet"])
    @pytest.mark.parametrize("out, reason", [
        ("missing/x.csv", "[Errno 2] No such file or directory"),
        ("a-directory", "[Errno 21] Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_is_refused_before_any_measurement(self, tmp_path, capsys, monkeypatch, kind,
                                                              out, reason):
        (tmp_path / "a-directory").mkdir()
        measured = []
        monkeypatch.setattr(probe, "measure_config", lambda *args, **kwargs: measured.append(args))
        path = tmp_path / out
        code, _ = run("--simulate", "--quiet", "collect", "--kind", kind, "--count", "1", "--out", str(path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {reason}: '{path}'\n"
        assert measured == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]  # no file left
        assert list((tmp_path / "a-directory").iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write anywhere")
    @pytest.mark.parametrize("existing", [False, True], ids=["read-only-directory", "read-only-file"])
    def test_read_only_out_is_refused_before_any_measurement(self, tmp_path, capsys, monkeypatch, existing):
        directory = tmp_path / "read-only"
        directory.mkdir()
        path = directory / "x.csv"
        if existing:
            path.write_text("kept\n")
            path.chmod(0o444)
        else:
            directory.chmod(0o555)
        measured = []
        monkeypatch.setattr(probe, "measure_config", lambda *args, **kwargs: measured.append(args))
        try:
            code, _ = run("--simulate", "--quiet", "collect", "--kind", "relu", "--count", "1", "--out", str(path))
        finally:
            directory.chmod(0o755)
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{path}'\n"
        assert measured == []
        assert [p.name for p in directory.iterdir()] == (["x.csv"] if existing else [])
        if existing:
            assert path.read_text() == "kept\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    @pytest.mark.parametrize("cpu", ["-1", "100000000000", "4096"])
    def test_unpinnable_cpu_is_one_line(self, tmp_path, capsys, cpu):
        before = os.sched_getaffinity(0)
        code, _ = run("--simulate", "--quiet", "collect", "--kind", "relu", "--count", "1",
                      "--pin-cpu", cpu, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot pin the measurement to CPU {cpu}: ")
        assert err.count("\n") == 1
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("kind", ["relu", "vgg11"])
    @pytest.mark.parametrize("options, message", [
        (("--count", "1", "--repeats", "0"), "error: window_seconds must be positive and repeats >= 1\n"),
        (("--count", "1", "--window", "nan"), "error: window_seconds must be finite and positive, not nan\n"),
        (("--count", "1", "--pin-cpu", "-1"), "error: cannot pin the measurement to CPU -1: "),
        (("--count", "-1"), "error: --count must be >= 0, not -1\n"),
        (("--count", "1", "--window", "4000"),
         "error: window_seconds 4000 must be under the counters' safe interval of 3276.63 s\n"),
    ], ids=["repeats-0", "window-nan", "pin-cpu-minus-1", "count-minus-1", "window-4000"])
    def test_refused_collect_leaves_no_out_file(self, tmp_path, capsys, kind, options, message):
        out = tmp_path / "x.csv"
        code, printed = run("--simulate", "collect", "--kind", kind, *options, "--out", str(out))
        err = capsys.readouterr().err
        assert (code, printed) == (1, "")
        if message.startswith("error: cannot pin") and not hasattr(os, "sched_setaffinity"):
            message = "error: CPU pinning is not supported on this platform\n"
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("batch", ["0", "-2"])
    def test_non_positive_batch_is_the_estimate_error(self, bundle_path, batch, capsys):
        errors = []
        for argv in (["macs", "--arch", "vgg11"], ["estimate", "--bundle", str(bundle_path), "--arch", "vgg11"]):
            capsys.readouterr()
            assert main(["--quiet", *argv, "--batch", batch]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == [f"error: batch_size={batch} must be positive\n"] * 2


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

    @pytest.mark.parametrize("folds", ["1", "-1"])
    def test_too_few_cv_folds_is_one_line(self, layerwise_csv, tmp_path, capsys, folds):
        out = tmp_path / "b.json"
        code, _ = run("--quiet", "train", "--layerwise", str(layerwise_csv), "--out", str(out), "--cv-folds", folds)
        assert code == 1
        assert capsys.readouterr().err == f"error: k={folds} must be at least 2\n"
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path):
        code, _ = run("--quiet", "train", "--layerwise", str(tmp_path / "nope.csv"),
                      "--out", str(tmp_path / "b.json"))
        assert code == 1


def _drop_model_coefficients(doc):
    del doc["models"]["ReLU"]["model"]["coefficients"]
    return doc


def _rename_conv_to_conv3d(doc):
    model = doc["models"].pop("Conv2d")
    model["layer_kind"] = "Conv3d"
    doc["models"]["Conv3d"] = model
    return doc


class TestMalformedBundle:
    @pytest.mark.parametrize("malform", [
        lambda doc: {"format_version": 1},
        _rename_conv_to_conv3d,
        _drop_model_coefficients,
    ], ids=["no-models", "unknown-kind", "no-coefficients"])
    def test_estimate_exits_one_with_one_line(self, bundle_path, tmp_path, capsys, malform):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(malform(json.loads(bundle_path.read_text()))))
        capsys.readouterr()
        code = main(["--quiet", "estimate", "--bundle", str(path), "--arch", "vgg11"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")


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
        assert not (tmp_path / "r").exists()  # refused before the directory is made

    @pytest.mark.parametrize("module, field", [
        ("Conv2d", "image_size"), ("MaxPool2d", "image_size"), ("MaxPool2d", "in_channels"), ("ReLU", "in_channels"),
    ])  # cells a layer of a network may leave empty, but a standalone measurement may not
    def test_evaluate_refuses_a_partial_layer_row(self, bundle_path, modelwise_csv, tmp_path, capsys, module,
                                                   field):
        with open(modelwise_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        line = next(i for i, row in enumerate(rows) if row[header.index("module")] == module)
        rows[line][header.index(field)] = ""
        path = tmp_path / "modelwise.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out_dir = tmp_path / "eval"
        argv = ["evaluate", "--bundle", bundle_path, "--modelwise", path, "--out-dir", out_dir]
        err = _exits_one_naming(capsys, argv, path)
        assert f"{path}: row {line + 1}: {module}: standalone config is missing {field}" in err
        assert not out_dir.exists()


_REPORT_INPUTS = {
    "--layer-scatter": "architecture,batch_size,layer_index,module,measured_j,predicted_j\n"
                       "vgg11,1,0,Conv2d,0.5,0.4\n",
    "--totals": "architecture,batch_size,measured_j,predicted_j,layer_measured_sum_j\nvgg11,1,2.0,1.9,1.8\n",
    "--ablation": "mask,features,contains_mac,r2,mse\n1,macs,1,0.5,0.01\n",
}


class TestMalformedReportInput:
    @pytest.mark.parametrize("flag, column", [
        ("--layer-scatter", "measured_j"),
        ("--layer-scatter", "predicted_j"),
        ("--totals", "measured_j"),
        ("--totals", "predicted_j"),
        ("--totals", "layer_measured_sum_j"),
        ("--ablation", "mask"),
        ("--ablation", "r2"),
    ])
    def test_bad_number_exits_one_naming_path_and_row(self, tmp_path, capsys, flag, column):
        header, good = _REPORT_INPUTS[flag].splitlines()
        for cell, refusal in (("notanumber", "is not a number"), ("nan", "is not a finite number"),
                              ("inf", "is not a finite number")):
            cells = good.split(",")
            cells[header.split(",").index(column)] = cell
            path = tmp_path / "input.csv"
            path.write_text("\n".join([header, good, ",".join(cells)]) + "\n")
            capsys.readouterr()
            code = main(["--quiet", "report", flag, str(path), "--out-dir", str(tmp_path / "report")])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert f"{path}: row 3: {column} {cell!r} {refusal}" in err

    @pytest.mark.parametrize("flag, column", [
        pytest.param("--layer-scatter", "measured_j", id="measured_j"),
        pytest.param("--layer-scatter", "predicted_j", id="predicted_j"),
        pytest.param("--totals", "layer_measured_sum_j", id="totals-layer_measured_sum_j"),
        pytest.param("--ablation", "r2", id="ablation-r2"),
    ])
    def test_nan_beside_a_finite_layer_row_writes_no_svg(self, tmp_path, capsys, flag, column):
        """A refused input leaves no chart, also when the inputs before it are good."""
        header, good = _REPORT_INPUTS[flag].splitlines()
        cells = good.split(",")
        cells[header.split(",").index(column)] = "nan"
        path = tmp_path / "input.csv"
        path.write_text("\n".join([header, good, ",".join(cells)]) + "\n")
        out_dir = tmp_path / "report"
        argv = ["report", flag, path, "--out-dir", out_dir]
        for other, text in _REPORT_INPUTS.items():
            if other != flag:
                good_path = tmp_path / f"good{other}.csv"
                good_path.write_text(text)
                argv += [other, good_path]
        _exits_one_naming(capsys, argv, path)
        assert list(out_dir.iterdir()) == []


def _write_replaced(data: bytes, dst, old: bytes, new: bytes):
    """Write ``data`` to ``dst`` with its first ``old`` replaced by ``new``."""
    assert old in data
    dst.write_bytes(data.replace(old, new, 1))
    return dst


def _exits_one_naming(capsys, argv, path) -> str:
    """Run ``argv``; assert exit code 1 and one ``error: <path>...`` line on stderr."""
    capsys.readouterr()
    code = main(["--quiet", *map(str, argv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
    return err


class TestUnreadableInput:
    """A file that is not UTF-8, holds a cell above the csv field limit, or
    is malformed JSON, is a one-line error naming it, on every entry point
    that reads one."""

    def test_train_non_utf8(self, layerwise_csv, tmp_path, capsys):
        path = _write_replaced(layerwise_csv.read_bytes(), tmp_path / "layerwise.csv",
                               b"Conv2d", b"Conv\xff2d")
        err = _exits_one_naming(capsys, ["train", "--layerwise", path, "--out", tmp_path / "b.json"], path)
        assert "not UTF-8" in err

    def test_evaluate_non_utf8(self, bundle_path, modelwise_csv, tmp_path, capsys):
        path = _write_replaced(modelwise_csv.read_bytes(), tmp_path / "modelwise.csv", b"vgg11", b"vgg\xff11")
        argv = ["evaluate", "--bundle", bundle_path, "--modelwise", path, "--out-dir", tmp_path / "eval"]
        assert "not UTF-8" in _exits_one_naming(capsys, argv, path)

    @pytest.mark.parametrize("flag", list(_REPORT_INPUTS))
    def test_report_non_utf8(self, tmp_path, capsys, flag):
        path = _write_replaced(_REPORT_INPUTS[flag].encode(), tmp_path / "input.csv", b"1", b"\xff")
        argv = ["report", flag, path, "--out-dir", tmp_path / "report"]
        assert "not UTF-8" in _exits_one_naming(capsys, argv, path)

    def test_estimate_bundle_non_utf8(self, bundle_path, tmp_path, capsys):
        path = _write_replaced(bundle_path.read_bytes(), tmp_path / "bundle.json",
                               b'"metadata"', b'"metadata\xff"')
        argv = ["estimate", "--bundle", path, "--arch", "vgg11"]
        assert "not UTF-8" in _exits_one_naming(capsys, argv, path)

    def test_macs_arch_file_non_utf8(self, tmp_path, capsys):
        text = load_architecture("vgg11").to_json().encode()
        path = _write_replaced(text, tmp_path / "arch.json", b'"vgg11"', b'"vgg\xff11"')
        assert "not UTF-8" in _exits_one_naming(capsys, ["macs", "--arch", path], path)

    def test_estimate_bundle_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text('{"format_version": 1,', encoding="utf-8")
        argv = ["estimate", "--bundle", path, "--arch", "vgg11"]
        assert "invalid bundle JSON" in _exits_one_naming(capsys, argv, path)

    def test_macs_arch_file_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "arch.json"
        path.write_text(load_architecture("vgg11").to_json()[:-2], encoding="utf-8")
        assert "invalid architecture JSON" in _exits_one_naming(capsys, ["macs", "--arch", path], path)

    def test_train_oversized_cell(self, layerwise_csv, tmp_path, capsys):
        path = _write_replaced(layerwise_csv.read_bytes(), tmp_path / "layerwise.csv",
                               b",random", b"," + b"x" * 200_000)
        err = _exits_one_naming(capsys, ["train", "--layerwise", path, "--out", tmp_path / "b.json"], path)
        assert err.startswith(f"error: {path}: row 2: field larger than field limit")

    @pytest.mark.parametrize("flag, column", [
        ("--ablation", "features"), ("--totals", "batch_size"), ("--layer-scatter", "layer_index"),
    ])
    def test_report_oversized_cell_in_an_unplotted_column(self, tmp_path, capsys, flag, column):
        """``report`` keeps only the columns it plots, but still reads every cell."""
        header, good = _REPORT_INPUTS[flag].splitlines()
        cells = good.split(",")
        cells[header.split(",").index(column)] = "x" * 200_000
        path = tmp_path / "input.csv"
        path.write_text("\n".join([header, ",".join(cells)]) + "\n")
        err = _exits_one_naming(capsys, ["report", flag, path, "--out-dir", tmp_path / "report"], path)
        assert err.startswith(f"error: {path}: row 2: field larger than field limit")

    def test_evaluate_oversized_cell(self, bundle_path, modelwise_csv, tmp_path, capsys):
        path = _write_replaced(modelwise_csv.read_bytes(), tmp_path / "modelwise.csv",
                               b",layer,", b"," + b"x" * 200_000 + b",")
        argv = ["evaluate", "--bundle", bundle_path, "--modelwise", path, "--out-dir", tmp_path / "eval"]
        err = _exits_one_naming(capsys, argv, path)
        assert err.startswith(f"error: {path}: row 3: field larger than field limit")


class TestRowPastTheMacBudget:
    """A layer row whose recounted MACs pass 2**63 - 1 is a one-line error
    naming its file and row, from either loader."""

    def test_train(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text(LAYERWISE_PAST_BUDGET, encoding="utf-8")
        err = _exits_one_naming(capsys, ["train", "--layerwise", path, "--out", tmp_path / "b.json"], path)
        assert err == f"error: {path}: row 2: {PAST_BUDGET}\n"
        assert not (tmp_path / "b.json").exists()

    def test_evaluate(self, bundle_path, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text(MODELWISE_PAST_BUDGET, encoding="utf-8")
        out_dir = tmp_path / "eval"
        argv = ["evaluate", "--bundle", bundle_path, "--modelwise", path, "--out-dir", out_dir]
        assert _exits_one_naming(capsys, argv, path) == f"error: {path}: row 3: {PAST_BUDGET}\n"
        assert not out_dir.exists()


class TestMalformedArchitecture:
    """An architecture document whose layers are not a list of objects is a
    one-line error naming the file and the layer, not a traceback."""

    @pytest.mark.parametrize("layers, message", [
        ([5], "layer 0 must be an object, not a number"),
        ({"kind": "ReLU"}, "architecture 'layers' must be an array, not an object"),
        (None, "architecture 'layers' must be an array, not null"),
    ], ids=["number", "object", "null"])
    @pytest.mark.parametrize("command", ["estimate", "macs"])
    def test_one_line_error(self, bundle_path, tmp_path, capsys, command, layers, message):
        path = tmp_path / "arch.json"
        doc = {"name": "bad", "input": {"batch": 1, "channels": 3, "height": 8, "width": 8}, "layers": layers}
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["estimate", "--bundle", bundle_path, "--arch", path] if command == "estimate" else [
            "macs", "--arch", path]
        assert _exits_one_naming(capsys, argv, path) == f"error: {path}: {message}\n"


class TestEstimateLayerErrors:
    """A layer that is invalid, or has no standalone form at estimate time, is
    a one-line error naming the file and the layer, at any batch."""

    NON_SQUARE = "layer 0 (Conv2d): Conv2d: non-square input 8x6 has no standalone image_size"

    @pytest.mark.parametrize("batch", ["1", "8"])
    def test_non_square_input_names_file_and_layer(self, bundle_path, tmp_path, capsys, batch):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(NON_SQUARE_NET), encoding="utf-8")
        argv = ["estimate", "--bundle", bundle_path, "--arch", path, "--batch", batch]
        assert _exits_one_naming(capsys, argv, path) == f"error: {path}: {self.NON_SQUARE}\n"

    def test_non_square_json_text_names_the_layer(self, bundle_path, capsys):
        capsys.readouterr()
        code = main(["--quiet", "estimate", "--bundle", str(bundle_path), "--arch", json.dumps(NON_SQUARE_NET)])
        assert code == 1 and capsys.readouterr().err == f"error: {self.NON_SQUARE}\n"

    @pytest.mark.parametrize("layer, message", [
        ({"kind": "Conv2d", "kernel_size": 3, "in_channels": 3, "out_channels": 4, "stride": True, "padding": 1},
         "layer 0: Conv2d: field 'stride' must be an integer"),
        ({"kind": "ReLU", "kernel_size": 3}, "layer 0: ReLU: field 'kernel_size' is not applicable"),
    ], ids=["bool", "inapplicable"])
    def test_invalid_field_names_file_and_layer(self, bundle_path, tmp_path, capsys, layer, message):
        path = tmp_path / "arch.json"
        doc = {"name": "bad", "input": {"batch": 1, "channels": 3, "height": 8, "width": 8}, "layers": [layer]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["estimate", "--bundle", bundle_path, "--arch", path]
        assert _exits_one_naming(capsys, argv, path) == f"error: {path}: {message}\n"


class TestMacOverflowErrors:
    """A per-layer or total MAC count past the 64-bit budget is a one-line
    error naming the layer or the total, and the file, on estimate and macs."""

    def _doc(self, features, layers):
        return {"name": "big", "input": {"batch": 1, "channels": features, "height": 1, "width": 1},
                "layers": layers}

    CASES = [
        (3 * 10**9, [{"kind": "Linear", "in_channels": 3 * 10**9, "out_channels": 2 * 10**9},
                     {"kind": "Linear", "in_channels": 2 * 10**9, "out_channels": 2 * 10**9}],
         "total: MAC count 10000000004000000000 exceeds the 64-bit budget"),
        (4 * 10**9, [{"kind": "ReLU"}, {"kind": "Linear", "in_channels": 4 * 10**9, "out_channels": 4 * 10**9}],
         "layer 1 (Linear): MAC count 16000000004000000000 exceeds the 64-bit budget"),
    ]

    @pytest.mark.parametrize("features, layers, message", CASES, ids=["total", "layer"])
    @pytest.mark.parametrize("command", ["estimate", "macs"])
    def test_file_names_file_and_layer(self, bundle_path, tmp_path, capsys, command, features, layers, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(self._doc(features, layers)), encoding="utf-8")
        argv = ["estimate", "--bundle", bundle_path, "--arch", path] if command == "estimate" else [
            "macs", "--arch", path]
        assert _exits_one_naming(capsys, argv, path) == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("features, layers, message", CASES, ids=["total", "layer"])
    def test_json_text_names_the_layer(self, bundle_path, capsys, features, layers, message):
        capsys.readouterr()
        text = json.dumps(self._doc(features, layers))
        code = main(["--quiet", "estimate", "--bundle", str(bundle_path), "--arch", text])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"


class TestKindMatrixOncePerKind:
    @pytest.mark.parametrize("command, builds", [
        (["train", "--kinds", "conv2d,linear,relu"], 3),
        (["ablate", "--kind", "linear"], 1),
        (["feature-experiment", "--kind", "maxpool2d"], 1),
    ])
    def test_raw_matrix_built_once_per_kind(self, layerwise_csv, tmp_path, monkeypatch, command, builds):
        built = []
        original = KindMatrix.build.__func__

        def counting_build(cls, records):
            built.append(records[0].module)
            return original(cls, records)

        monkeypatch.setattr(KindMatrix, "build", classmethod(counting_build))
        argv = ["--quiet", command[0], "--layerwise", str(layerwise_csv), *command[1:],
                "--out", str(tmp_path / "out")]
        assert run(*argv)[0] == 0
        assert len(built) == len(set(built)) == builds


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
        assert list(rows[0])[-2:] == ["lasso_kkt", "lasso_unconverged"]
        assert all(r["lasso_kkt"] == "0.0" and r["lasso_unconverged"] == "0" for r in rows)  # OLS rows

    def test_feature_experiment_reports_lasso_kkt(self, layerwise_csv, tmp_path):
        out = tmp_path / "table.csv"
        code, _ = run("--seed", "3", "--quiet", "feature-experiment",
                      "--layerwise", str(layerwise_csv), "--kind", "maxpool2d", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert list(rows[0])[-2:] == ["lasso_kkt", "lasso_unconverged"]
        lasso = [r for r in rows if r["model"] == "Lasso"]
        assert len(lasso) == 2
        assert all(float(r["lasso_kkt"]) >= 0.0 for r in lasso)
        assert all(r["lasso_kkt"] == "0.0" for r in rows if r["model"] == "Linear")

    def test_feature_experiment_deterministic(self, layerwise_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _ = run("--seed", "3", "--quiet", "feature-experiment",
                          "--layerwise", str(layerwise_csv), "--kind", "linear", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore::joulecast.errors.SingularityWarning",
                                "ignore::joulecast.errors.NotConvergedWarning")
    def test_feature_experiment_bytes_pinned(self, tmp_path):
        """Each kind's experiment table on one small simulated collect, pinned by its CSV digest."""
        layerwise = tmp_path / "layerwise.csv"
        kinds = ("conv2d", "maxpool2d", "linear")
        for i, kind in enumerate(kinds):
            code, _ = run("--seed", str(i), "--simulate", "--quiet", "collect",
                          "--kind", kind, "--count", "20", "--out", str(layerwise))
            assert code == 0
        digests = []
        for kind in kinds:
            out = tmp_path / f"experiment_{kind}.csv"
            code, _ = run("--seed", "5", "--quiet", "feature-experiment",
                          "--layerwise", str(layerwise), "--kind", kind, "--out", str(out))
            assert code == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests == [
            "e3b0f8d36fe490cc525cc8114b78fa0bdab3a42c420dee80ab12df73b6bc40ae",
            "057c6c8d602c1d9799f8455f1c72056b915ef8ae94944698d9769b87dfbe7ef9",
            "9e63dd2d7e6595fcd538db03ba265a42456aec009d2eb1941fca9826d4b19662",
        ]

    def test_consecutive_calls_share_no_parsed_values(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_macs", lambda args: seen.append(args) or 0)
        assert main(["--seed", "5", "--quiet", "macs", "--arch", "vgg11", "--batch", "2", "--no-bias"]) == 0
        assert main(["macs", "--arch", "alexnet"]) == 0
        assert [(a.seed, a.quiet, a.arch, a.batch, a.no_bias) for a in seen] == [
            (5, True, "vgg11", 2, True),
            (0, False, "alexnet", None, False),
        ]
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["collect", "--count", "1"])  # missing required --kind/--out
        assert exc.value.code == 2
