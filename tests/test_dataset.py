import csv
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import split_records, write_layerwise, write_modelwise
from joulecast.arch import KIND_SPECS, PREDICTABLE_KINDS, STANDALONE_FIELDS, LayerConfig, LayerKind
from joulecast import dataset
from joulecast.dataset import (
    LAYERWISE_HEADER,
    MODELWISE_HEADER,
    appending_layerwise_csv,
    MeasurementRecord,
    ModelWiseLayer,
    ModelWiseRecord,
    config_key,
    load_layerwise_csv,
    load_modelwise_csv,
    read_csv,
    sample_config,
)
from joulecast.dataset import _energy_reading
from joulecast.errors import (
    ConsistencyWarning,
    ParseError,
    ValidationError,
)
from joulecast.macs import standalone_macs


def make_record(seed=0, kind=LayerKind.CONV2D, energy=0.5, repeat=1, source="random"):
    config = sample_config(kind, seed)
    return MeasurementRecord(
        config=config, macs=standalone_macs(config),
        cpu_energy_j=energy, repeat=repeat, source=source,
    )


class TestSampler:
    def test_conv_fields_within_ranges(self):
        rng = np.random.default_rng(0)
        table = KIND_SPECS[LayerKind.CONV2D].ranges
        for _ in range(200):
            cfg = sample_config(LayerKind.CONV2D, rng)
            for name, (lo, hi) in table.items():
                assert lo <= getattr(cfg, name) <= hi

    def test_fixed_seed_repeats(self):
        assert sample_config(LayerKind.LINEAR, 42) == sample_config(LayerKind.LINEAR, 42)

    def test_maxpool_padding_never_violates_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            cfg = sample_config(LayerKind.MAXPOOL2D, rng)
            assert cfg.padding <= cfg.kernel_size // 2
            assert cfg.image_size + 2 * cfg.padding >= cfg.kernel_size

    def test_activation_in_size_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            cfg = sample_config(LayerKind.SIGMOID, rng)
            assert 50_000 <= cfg.in_channels <= 5_000_000

    def test_unsampleable_kind(self):
        with pytest.raises(ValidationError):
            sample_config(LayerKind.DROPOUT, 0)

    def test_impossible_ranges_exhaust_retries(self, monkeypatch):
        impossible = {
            "batch_size": (1, 1), "image_size": (4, 4), "kernel_size": (11, 11),
            "in_channels": (1, 1), "out_channels": (1, 1), "stride": (1, 1), "padding": (0, 0),
        }
        monkeypatch.setitem(KIND_SPECS, LayerKind.CONV2D, replace(KIND_SPECS[LayerKind.CONV2D], ranges=impossible))
        with pytest.raises(ValidationError, match="^no valid Conv2d config after 1000 draws$") as info:
            sample_config(LayerKind.CONV2D, 0)
        assert str(info.value) == "no valid Conv2d config after 1000 draws"

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(PREDICTABLE_KINDS, key=lambda k: k.value)), st.integers(0, 2**31))
    def test_samples_always_valid_standalone(self, kind, seed):
        cfg = sample_config(kind, seed)
        cfg.require_standalone()
        assert standalone_macs(cfg) >= 0


# first draw per kind at seed 0; moves if a kind's field (draw) order changes
_ACTIVATION_DRAW = dict(batch_size=436, in_channels=3_202_960)
FIRST_DRAWS = {
    LayerKind.CONV2D: dict(batch_size=218, image_size=144, kernel_size=6, in_channels=139,
                           out_channels=158, stride=1, padding=0),
    LayerKind.MAXPOOL2D: dict(batch_size=218, image_size=144, kernel_size=6, in_channels=139,
                              stride=2, padding=0),
    LayerKind.LINEAR: dict(batch_size=436, in_channels=3185, out_channels=2556),
    LayerKind.RELU: _ACTIVATION_DRAW,
    LayerKind.SIGMOID: _ACTIVATION_DRAW,
    LayerKind.TANH: _ACTIVATION_DRAW,
    LayerKind.SOFTMAX: _ACTIVATION_DRAW,
}


@pytest.mark.parametrize("kind", list(FIRST_DRAWS), ids=lambda k: k.value)
def test_first_draw_pinned(kind):
    assert sample_config(kind, 0) == LayerConfig(kind=kind, **FIRST_DRAWS[kind])


def test_config_key_pinned():
    config = LayerConfig(kind=LayerKind.CONV2D, **FIRST_DRAWS[LayerKind.CONV2D])
    assert config_key(config) == ("Conv2d", 218, 144, 6, 139, 158, 1, 0)
    linear = LayerConfig(kind=LayerKind.LINEAR, **FIRST_DRAWS[LayerKind.LINEAR])
    assert config_key(linear) == ("Linear", 436, None, None, 3185, 2556, None, None)


class TestSplit:
    def test_ten_distinct_records(self):
        records = [make_record(seed=i, energy=0.1 * (i + 1)) for i in range(10)]
        train, val, test = split_records(records, 0)
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_repeats_stay_together(self):
        records = []
        for i in range(10):
            cfg = sample_config(LayerKind.LINEAR, i)
            for r in range(1, 4):
                records.append(
                    MeasurementRecord(
                        config=cfg, macs=standalone_macs(cfg),
                        cpu_energy_j=0.1 * r, repeat=r,
                    )
                )
        train, val, test = split_records(records, 5)
        for part in (train, val, test):
            keys = {config_key(r.config) for r in part}
            assert len(part) == 3 * len(keys)
        assert (len(train), len(val), len(test)) == (21, 6, 3)

    def test_same_seed_identical_partition(self):
        records = [make_record(seed=i) for i in range(25)]
        a = split_records(records, 9)
        b = split_records(records, 9)
        assert a == b

    def test_too_few_records(self):
        with pytest.raises(ValidationError, match="^need at least 10 records to split, got 9$"):
            split_records([make_record(seed=i) for i in range(9)], 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 1000))
    def test_partition_disjoint_and_exhaustive(self, n, seed):
        records = [make_record(seed=i, energy=float(i + 1)) for i in range(n)]
        train, val, test = split_records(records, seed)
        assert len(train) + len(val) + len(test) == n
        ids = [id(r) for part in (train, val, test) for r in part]
        assert len(set(ids)) == n
        # grouped: a key appears in exactly one part
        parts_by_key = {}
        for label, part in (("t", train), ("v", val), ("s", test)):
            for record in part:
                parts_by_key.setdefault(config_key(record.config), set()).add(label)
        assert all(len(v) == 1 for v in parts_by_key.values())


def set_cells(path, name, values):
    """Overwrite one column's text in data rows (0-based index -> text) of a CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index(name)
    for index, text in values.items():
        rows[index + 1][column] = text
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestLayerwiseCsv:
    def test_round_trip_field_identical(self, tmp_path):
        records = [make_record(seed=i, kind=kind, energy=0.001 * (i + 1), repeat=i % 3 + 1)
                   for i, kind in enumerate([LayerKind.CONV2D, LayerKind.LINEAR, LayerKind.RELU,
                                             LayerKind.MAXPOOL2D, LayerKind.SOFTMAX,
                                             LayerKind.SIGMOID, LayerKind.TANH])]
        records.append(make_record(seed=7, source="real_architecture"))  # older files hold such rows
        path = tmp_path / "rows.csv"
        write_layerwise(path, records)
        assert load_layerwise_csv(path) == records

    def test_single_valid_row(self, tmp_path):
        path = tmp_path / "one.csv"
        write_layerwise(path, [make_record()])
        assert len(load_layerwise_csv(path)) == 1

    def test_negative_energy_dropped_with_warning(self, tmp_path):
        path = tmp_path / "bad.csv"
        record = make_record()
        write_layerwise(path, [record])
        text = path.read_text().replace("0.5", "-1.0")
        path.write_text(text)
        with pytest.warns(UserWarning, match="dropped"):
            assert load_layerwise_csv(path) == []

    @pytest.mark.parametrize("reading", ["nan", "inf", "-inf"])
    def test_non_finite_energy_dropped_with_warning(self, tmp_path, reading):
        path = tmp_path / "bad.csv"
        write_layerwise(path, [make_record(seed=0, energy=0.5), make_record(seed=1, energy=0.25)])
        set_cells(path, "cpu_energy_j", {0: reading})
        with pytest.warns(UserWarning, match=f"row 2: dropped erroneous energy reading '{reading}'"):
            loaded = load_layerwise_csv(path)
        assert [r.cpu_energy_j for r in loaded] == [0.25]

    def test_unknown_source_is_a_parse_error_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_layerwise(path, [make_record(seed=0), make_record(seed=1)])
        set_cells(path, "source", {1: "bogus"})
        with pytest.raises(ParseError, match=r"bad\.csv: row 3: unknown source 'bogus'"):
            load_layerwise_csv(path)

    def test_missing_column_schema_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("module,batch_size\nConv2d,1\n")
        missing = sorted(set(LAYERWISE_HEADER) - {"module", "batch_size"})
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: missing columns {missing}')}$"):
            load_layerwise_csv(path)

    def test_mac_mismatch_warns_but_keeps(self, tmp_path):
        record = make_record()
        path = tmp_path / "rows.csv"
        write_layerwise(path, [record])
        text = path.read_text().replace(str(record.macs), str(record.macs + 1))
        path.write_text(text)
        with pytest.warns(ConsistencyWarning):
            loaded = load_layerwise_csv(path)
        assert len(loaded) == 1
        assert loaded[0].macs == record.macs + 1

    def test_append_mode(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_layerwise(path, [make_record(seed=0)])
        write_layerwise(path, [make_record(seed=1)])
        assert len(load_layerwise_csv(path)) == 2
        assert path.read_text().count("module") == 1  # single header


    def test_appending_writer_flushes_each_batch(self, tmp_path):
        path = tmp_path / "rows.csv"
        with appending_layerwise_csv(path) as write:
            write([make_record(seed=0)])
            assert len(load_layerwise_csv(path)) == 1  # on disk before the file is closed
            write([make_record(seed=1)])
        assert len(load_layerwise_csv(path)) == 2
        assert path.read_text().count("module") == 1  # single header


def _parse_each_row(path):
    """Per-row oracle for the loader: every row's configuration parsed on its own."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            kind = LayerKind(row["module"])
            fields = {name: int(row[name]) for name in STANDALONE_FIELDS if row[name]}
            config = LayerConfig(kind=kind, **fields)
            config.require_standalone()
            records.append(MeasurementRecord(config, int(row["macs"]), float(row["cpu_energy_j"]),
                                             int(row["repeat"]), row["source"]))
    return records


def _repeated_records():
    """Three configurations of two kinds, each measured three times, interleaved."""
    configs = [make_record(seed=s, kind=k) for s, k in
               ((0, LayerKind.CONV2D), (1, LayerKind.LINEAR), (2, LayerKind.CONV2D))]
    return [replace(c, repeat=r, cpu_energy_j=0.1 * (i + 1) + r) for r in (1, 2, 3)
            for i, c in enumerate(configs)]


class TestRepeatedConfigs:
    def test_loads_what_a_per_row_parse_gives(self, tmp_path):
        path = tmp_path / "rows.csv"
        records = _repeated_records()
        write_layerwise(path, records)
        loaded = load_layerwise_csv(path)
        assert loaded == _parse_each_row(path) == records

    def test_mac_mismatch_warns_once_per_row_that_has_it(self, tmp_path):
        path = tmp_path / "rows.csv"
        records = _repeated_records()
        write_layerwise(path, records)
        # rows 2, 5 and 8 are the three repeats of the first configuration
        set_cells(path, "macs", {0: str(records[0].macs + 1), 6: str(records[0].macs + 1)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_layerwise_csv(path)
        messages = [str(w.message) for w in caught if issubclass(w.category, ConsistencyWarning)]
        assert len(messages) == 2
        assert "row 2:" in messages[0] and "row 8:" in messages[1]
        assert [r.macs for r in loaded[::3]] == [records[0].macs + 1, records[0].macs, records[0].macs + 1]

    @pytest.mark.parametrize("column, text", [("macs", "12x"), ("repeat", "0"), ("source", "bogus")])
    def test_bad_cell_in_a_repeat_is_a_parse_error_with_its_row(self, tmp_path, column, text):
        path = tmp_path / "rows.csv"
        write_layerwise(path, _repeated_records())
        set_cells(path, column, {3: text})  # the second repeat of the first configuration
        with pytest.raises(ParseError, match=r"rows\.csv: row 5: "):
            load_layerwise_csv(path)

    def test_warnings_name_the_loaders_caller(self, tmp_path):
        path = tmp_path / "rows.csv"
        records = _repeated_records()
        write_layerwise(path, records)
        set_cells(path, "macs", {0: str(records[0].macs + 1)})
        set_cells(path, "cpu_energy_j", {1: "nan"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_layerwise_csv(path)
        assert [w.category for w in caught] == [ConsistencyWarning, UserWarning]
        assert {w.filename for w in caught} == {__file__}

    def test_short_row_is_a_parse_error(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_layerwise(path, _repeated_records())
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-4])  # no macs, energy, repeat or source
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 4: "):
            load_layerwise_csv(path)


class TestModelwiseCsv:
    def _record(self):
        cfg = LayerConfig(
            kind=LayerKind.CONV2D, batch_size=2, image_size=16, kernel_size=3,
            in_channels=3, out_channels=8, stride=1, padding=1,
        )
        relu = LayerConfig(kind=LayerKind.RELU, batch_size=2, in_channels=8 * 16 * 16)
        layers = (
            ModelWiseLayer(0, cfg, standalone_macs(cfg), 0.004),
            ModelWiseLayer(1, relu, standalone_macs(relu), 0.0002),
        )
        return ModelWiseRecord("tiny", 2, 0.00425, sum(l.macs for l in layers), layers)

    def test_round_trip(self, tmp_path):
        record = self._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [record])
        assert load_modelwise_csv(path) == [record]

    @pytest.mark.parametrize("reading", ["nan", "inf"])
    def test_non_finite_layer_energy_dropped_with_warning(self, tmp_path, reading):
        record = self._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [record])
        set_cells(path, "cpu_energy_j", {1: reading})  # row 0 is the total, row 1 the Conv2d layer
        with pytest.warns(UserWarning, match=f"row 3: dropped erroneous layer energy '{reading}'"):
            (loaded,) = load_modelwise_csv(path)
        assert loaded.layers == record.layers[1:]
        assert loaded.total_energy_j == record.total_energy_j

    @pytest.mark.parametrize("reading", ["nan", "inf"])
    def test_non_finite_total_drops_its_record(self, tmp_path, reading):
        record = self._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [record, replace(record, architecture="other")])
        set_cells(path, "cpu_energy_j", {0: reading})
        with pytest.warns(UserWarning, match=f"row 2: dropped erroneous total '{reading}'"):
            loaded = load_modelwise_csv(path)
        assert [r.architecture for r in loaded] == ["other"]
        assert loaded[0].layers == record.layers

    def test_layer_sum_property(self):
        record = self._record()
        assert record.layer_energy_sum_j == pytest.approx(0.0042, rel=1e-12)

    def test_round_trip_recounts_no_consistent_row(self, tmp_path):
        path = tmp_path / "model.csv"
        write_modelwise(path, [self._record()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_modelwise_csv(path)

    def test_stored_layer_macs_are_recounted(self, tmp_path):
        record = self._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [record])
        set_cells(path, "macs", {2: "999"})  # the ReLU layer row
        with pytest.warns(ConsistencyWarning, match=f"^{re.escape(str(path))}: row 4: stored macs 999 != recomputed 2048$"):
            (loaded,) = load_modelwise_csv(path)
        assert [layer.macs for layer in loaded.layers] == [record.layers[0].macs, 999]

    def test_repeated_layer_configs_are_parsed_and_recounted_once(self, tmp_path, monkeypatch):
        record = self._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [replace(record, architecture=name) for name in ("a", "b", "c")])
        calls = {"parse": 0, "recount": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(dataset, "LayerConfig", counted("parse", LayerConfig))
        monkeypatch.setattr(dataset, "standalone_macs", counted("recount", standalone_macs))
        assert load_modelwise_csv(path) == [replace(record, architecture=name) for name in ("a", "b", "c")]
        assert calls == {"parse": 2, "recount": 2}  # six layer rows of two configurations

    def test_warnings_name_the_loaders_caller(self, tmp_path):
        record = self._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [record])
        set_cells(path, "macs", {2: "999"})
        set_cells(path, "cpu_energy_j", {1: "nan"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_modelwise_csv(path)
        assert [w.category for w in caught] == [UserWarning, ConsistencyWarning]
        assert {w.filename for w in caught} == {__file__}

    def test_record_refuses_a_layer_at_another_batch(self):
        # layer rows carry no batch column, so such a layer would reload at the record's batch
        record = self._record()
        with pytest.raises(ValidationError, match="^layer 0 has batch_size 2, its record 8$"):
            replace(record, batch_size=8)
        relu = replace(record.layers[1].config, batch_size=1)
        with pytest.raises(ValidationError, match="^layer 1 has batch_size 1, its record 2$"):
            replace(record, layers=(record.layers[0], replace(record.layers[1], config=relu)))


_MODELWISE_TOTAL = "tiny,2,total,,," + "," * (len(MODELWISE_HEADER) - 7) + "10,0.5"


def _modelwise_layer(index, module, **fields):
    """A model-wise layer row of architecture "tiny" at batch 2, with 10 MACs and 0.5 J."""
    cells = [str(fields.get(name, "")) for name in MODELWISE_HEADER[5:-2]]
    return ",".join(["tiny", "2", "layer", str(index), module, *cells, "10", "0.5"])


_MODELWISE_RELU = _modelwise_layer(1, "ReLU", in_channels=10)
_MODELWISE_POOL = _modelwise_layer(0, "MaxPool2d", kernel_size=2, in_channels=3, stride=2, padding=0)
# a Linear of batch 4e9, 4e9 inputs and one output: 4e9 * 4e9 MACs and a bias per output, past 2**63 - 1
PAST_BUDGET = "MAC count 16000000004000000000 exceeds the 64-bit budget"
LAYERWISE_PAST_BUDGET = f"{','.join(LAYERWISE_HEADER)}\nLinear,4000000000,,,4000000000,1,,,0,0.5,1,random\n"
MODELWISE_PAST_BUDGET = (f"{','.join(MODELWISE_HEADER)}\n{_MODELWISE_TOTAL}\n"
                          f"{_modelwise_layer(0, 'Linear', in_channels=4000000000, out_channels=1)}\n"
                          ).replace("tiny,2,", "tiny,4000000000,")


@pytest.mark.parametrize("loader, text, error, message", [
    (load_layerwise_csv, "", ParseError, "{path}: empty file"),
    (load_modelwise_csv, "", ParseError, "{path}: empty file"),
    (load_modelwise_csv, f"{','.join(MODELWISE_HEADER)}\n{_MODELWISE_RELU}\n", ParseError,
     "{path}: row 2: layer row before any total row"),
    (load_modelwise_csv, f"{','.join(MODELWISE_HEADER)}\n{_MODELWISE_TOTAL.replace('total', 'sum')}\n",
     ParseError, "{path}: row 2: unknown row_type 'sum'"),
    (load_modelwise_csv, f"{','.join(MODELWISE_HEADER)}\n{_MODELWISE_TOTAL}\n{_MODELWISE_RELU}\n"
     f"{_MODELWISE_RELU.replace('layer', 'Layer')}\n", ParseError, "{path}: row 4: unknown row_type 'Layer'"),
    (load_modelwise_csv, f"{','.join(MODELWISE_HEADER)}\n{_MODELWISE_TOTAL}\n{_MODELWISE_POOL}\n", ParseError,
     "{path}: row 3: MaxPool2d: standalone config is missing image_size"),
    (load_layerwise_csv, LAYERWISE_PAST_BUDGET, ParseError, f"{{path}}: row 2: {PAST_BUDGET}"),
    (load_modelwise_csv, MODELWISE_PAST_BUDGET, ParseError, f"{{path}}: row 3: {PAST_BUDGET}"),
    # a kind with no standalone form is refused where its module is parsed, naming its row
    (load_layerwise_csv, f"{','.join(LAYERWISE_HEADER)}\nDropout,,,,,,,,0,0.5,1,random\n", ParseError,
     "{path}: row 2: Dropout is not individually measurable"),
    # a dropped row's repeat and source are checked as a kept row's are
    (load_layerwise_csv, f"{','.join(LAYERWISE_HEADER)}\nReLU,1,,,4,,,,4,nan,0,bogus\n", ParseError,
     "{path}: row 2: repeat index is 1-based"),
    (load_layerwise_csv, f"{','.join(LAYERWISE_HEADER)}\nReLU,1,,,4,,,,4,,1,bogus\n", ParseError,
     "{path}: row 2: unknown source 'bogus'"),
])
def test_csv_refusals(tmp_path, loader, text, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        loader(path)
    assert type(info.value) is error and str(info.value) == message.format(path=path)


@pytest.mark.parametrize("columns, rows", [
    (("c", "a"), [("3", "1"), ("", "4"), ("9", "7")]),
    (("b",), [("2",), ("5",), ("",)]),
])
def test_read_csv_keeps_the_named_cells_in_their_order(tmp_path, columns, rows):
    """Blank lines are skipped and a short row is padded, whichever cells are kept."""
    path = tmp_path / "table.csv"
    path.write_text("a,b,c,d\n1,2,3,x\n\n4,5\n7,,9,y\n", encoding="utf-8")
    assert read_csv(path, columns) == rows


class TestModelwiseRecordCheck:
    @pytest.mark.parametrize("disordered, total_row", [(0, 2), (1, 5)])
    def test_layers_out_of_order_name_path_and_total_row(self, tmp_path, disordered, total_row):
        record = TestModelwiseCsv()._record()
        path = tmp_path / "model.csv"
        write_modelwise(path, [record, replace(record, architecture="other")])
        # data rows: total, layer 0, layer 1 of each record
        first_layer = 3 * disordered + 1
        set_cells(path, "layer_index", {first_layer: "1", first_layer + 1: "0"})
        with pytest.raises(ParseError, match=rf"model\.csv: row {total_row}: layer measurements must be "
                                             r"ordered by layer_index"):
            load_modelwise_csv(path)


def _parent_load_modelwise_csv(path):
    """The model-wise loader as it was, on ``csv.DictReader`` (oracle for the
    column-position loader)."""
    records, layers = [], []
    current = None
    dropped_total = False

    def flush():
        nonlocal current
        if current is not None:
            records.append(replace(current, layers=tuple(layers)))
            current = None
            layers.clear()

    def config_from_row(kind, row):
        fields = {name: int(row.get(name, "")) for name in STANDALONE_FIELDS
                  if row.get(name, "") not in ("", None)}
        return LayerConfig(kind=kind, **fields)

    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            raw_energy = (row["cpu_energy_j"] or "").strip()
            energy = _energy_reading(raw_energy)
            if row["row_type"] == "total":
                flush()
                dropped_total = energy is None
                if dropped_total:
                    warnings.warn(f"{path}: row {line}: dropped erroneous total {raw_energy!r} and its layer rows")
                    continue
                current = ModelWiseRecord(architecture=row["architecture"], batch_size=int(row["batch_size"]),
                                          total_energy_j=energy, total_macs=int(row["macs"] or 0))
            elif row["row_type"] == "layer":
                if dropped_total:
                    continue
                if energy is None:
                    warnings.warn(f"{path}: row {line}: dropped erroneous layer energy {raw_energy!r}")
                    continue
                kind = LayerKind(row["module"])
                layers.append(ModelWiseLayer(int(row["layer_index"]), config_from_row(kind, row),
                                             int(row["macs"]), energy))
    flush()
    return records


def _load_with_warnings(loader, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = loader(path)
    return records, [str(w.message) for w in caught]


def test_modelwise_loader_matches_dictreader_oracle(tmp_path):
    from joulecast.cli import main

    path = tmp_path / "modelwise.csv"
    # the model-wise collection of scripts/synthetic_demo.py --seed 0
    for seed, arch in ((100, "alexnet"), (101, "vgg11")):
        argv = ["--seed", str(seed), "--simulate", "--quiet", "collect", "--kind", arch, "--count", "2"]
        assert main([*argv, "--out", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[3].split(",")[2] == "layer"
    lines[3] = ",".join(lines[3].split(",")[:-2])  # a short layer row: no macs, no energy
    lines = lines[:1] + [""] + lines[1:20] + ["", ""] + lines[20:] + [""]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    loaded, messages = _load_with_warnings(load_modelwise_csv, path)
    expected, expected_messages = _load_with_warnings(_parent_load_modelwise_csv, path)
    assert loaded == expected
    assert messages == expected_messages == [f"{path}: row 4: dropped erroneous layer energy ''"]
    assert [len(r.layers) for r in loaded] == [17, 18, 26, 26]


def test_record_rejects_negative_energy():
    cfg = sample_config(LayerKind.RELU, 0)
    with pytest.raises(ValidationError):
        MeasurementRecord(config=cfg, macs=1, cpu_energy_j=-0.1)
