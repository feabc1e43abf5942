"""Measurement records, random configuration sampling, CSV I/O, and splits.

Layer-wise rows hold one repeat of one standalone module measurement;
model-wise rows hold a full-architecture total plus each of its layers.
Energies are joules per single forward pass. Measurements are written
through the appending writers (``appending_layerwise_csv``,
``appending_modelwise_csv``), which flush each batch of rows as it is
measured; ``write_csv`` writes a whole table at once.
"""
from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Sequence

import numpy as np

from .arch import KIND_SPECS, STANDALONE_FIELDS, LayerConfig, LayerKind
from .errors import (
    ConsistencyWarning,
    KindMismatchError,
    ParseError,
    RetryExhaustedError,
    SchemaError,
    TooFewRecordsError,
    ValidationError,
)
from .macs import standalone_macs

SOURCE_RANDOM = "random"
SOURCE_REAL = "real_architecture"


@dataclass(frozen=True)
class MeasurementRecord:
    """One layer-wise dataset row: a standalone module, its MACs, and one energy reading."""

    module: LayerKind
    config: LayerConfig
    macs: int
    cpu_energy_j: float
    repeat: int = 1
    source: str = SOURCE_RANDOM

    def __post_init__(self):
        if self.cpu_energy_j < 0:
            raise ValidationError(f"cpu_energy_j={self.cpu_energy_j} must be non-negative")
        if self.repeat < 1:
            raise ValidationError("repeat index is 1-based")
        if self.source not in (SOURCE_RANDOM, SOURCE_REAL):
            raise ValidationError(f"unknown source {self.source!r}")
        if self.module is not self.config.kind:
            raise ValidationError("record module does not match its config kind")


@dataclass(frozen=True)
class ModelWiseLayer:
    layer_index: int
    module: LayerKind
    config: LayerConfig
    macs: int
    cpu_energy_j: float


@dataclass(frozen=True)
class ModelWiseRecord:
    """One full-architecture measurement with its per-layer measurements."""

    architecture: str
    batch_size: int
    total_energy_j: float
    total_macs: int
    layers: tuple[ModelWiseLayer, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.total_energy_j < 0 or any(l.cpu_energy_j < 0 for l in self.layers):
            raise ValidationError("energies must be non-negative")
        if list(l.layer_index for l in self.layers) != sorted(l.layer_index for l in self.layers):
            raise ValidationError("layer measurements must be ordered by layer_index")

    @property
    def layer_energy_sum_j(self) -> float:
        return float(sum(l.cpu_energy_j for l in self.layers))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions applied to configuration groups."""

    train_fraction: float = 0.7
    val_fraction: float = 0.2
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"split fractions sum to {total}, expected 1")
        if min(self.train_fraction, self.val_fraction, self.test_fraction) < 0:
            raise ValidationError("split fractions must be non-negative")


#: draws ``sample_config`` makes before giving up on a kind's ranges
_SAMPLE_DRAWS = 1000


def sample_config(
    kind: LayerKind, rng, ranges: dict[LayerKind, dict[str, tuple[int, int]]] | None = None
) -> LayerConfig:
    """Draw each field integer-uniform from its inclusive range, in key order:
    the kind's ``KindSpec.ranges``, unless ``ranges`` maps the kind to its own.

    ``rng`` may be a seed or a ``numpy.random.Generator``. Configurations
    violating the layer invariants (kernel larger than the padded image,
    pooling padding above half the kernel) are rejected and redrawn, up to
    ``_SAMPLE_DRAWS`` draws in all.
    """
    spec = KIND_SPECS[kind]
    if not spec.predictable:
        raise ValidationError(f"{kind.value} is not a measurable module kind")
    gen = np.random.default_rng(rng)  # a Generator is returned as it is
    table = ranges[kind] if ranges else spec.ranges
    for _ in range(_SAMPLE_DRAWS):
        fields = {
            name: int(gen.integers(lo, hi + 1)) for name, (lo, hi) in table.items()
        }
        try:
            return LayerConfig(kind=kind, **fields)
        except ValidationError:
            continue
    raise RetryExhaustedError(f"no valid {kind.value} config after {_SAMPLE_DRAWS} draws")


_standalone_values = attrgetter(*STANDALONE_FIELDS)


def config_key(config: LayerConfig) -> tuple:
    """Canonical hashable identity of a configuration (grouping key for splits)."""
    return (config.kind.value, *_standalone_values(config))


def shuffled_group_keys(keys, seed: int) -> list[tuple]:
    """Configuration-group keys (``config_key``) in the seeded order that
    splits and CV folds deal them out in: sorted with a missing field as -1
    and the kind last, then permuted by ``default_rng(seed)``."""
    ordered = sorted(keys, key=lambda k: tuple(-1 if v is None else v for v in k[1:]) + (k[0],))
    gen = np.random.default_rng(seed)
    return [ordered[i] for i in gen.permutation(len(ordered))]


def _largest_remainder_sizes(n: int, fractions: tuple[float, ...]) -> list[int]:
    exact = [n * f for f in fractions]
    sizes = [int(x) for x in exact]
    remainder = n - sum(sizes)
    # distribute leftovers to the largest fractional parts; ties go to the
    # earlier bucket (train before val before test)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in order[:remainder]:
        sizes[i] += 1
    return sizes


def split(
    records: list[MeasurementRecord], spec: SplitSpec
) -> tuple[list[MeasurementRecord], list[MeasurementRecord], list[MeasurementRecord]]:
    """Deterministic grouped train/val/test partition (``split_indices``)."""
    parts = split_indices([config_key(r.config) for r in records], spec)
    return tuple([records[i] for i in part] for part in parts)


def split_indices(keys: Sequence[tuple], spec: SplitSpec) -> tuple[list[int], list[int], list[int]]:
    """Positions of the train/val/test parts of records with these config keys.

    All repeats of one configuration land in the same part; fractions are
    applied to the configuration groups with largest-remainder rounding.
    """
    if len(keys) < 10:
        raise TooFewRecordsError(f"need at least 10 records to split, got {len(keys)}")
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    order = shuffled_group_keys(groups, spec.seed)
    n_train, n_val, _ = _largest_remainder_sizes(
        len(order), (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    )
    parts: tuple[list, list, list] = ([], [], [])
    for pos, key in enumerate(order):
        bucket = 0 if pos < n_train else (1 if pos < n_train + n_val else 2)
        parts[bucket].extend(groups[key])
    return parts


def merge_real_configs(
    train: list[MeasurementRecord], real: list[MeasurementRecord]
) -> list[MeasurementRecord]:
    """Enrich a training set with measurements of real-architecture layer configs."""
    kinds = {r.module for r in train} | {r.module for r in real}
    if len(kinds) > 1:
        raise KindMismatchError(f"cannot merge records of mixed kinds {sorted(k.value for k in kinds)}")
    return list(train) + list(real)


def modelwise_to_layerwise(records: list["ModelWiseRecord"]) -> list[MeasurementRecord]:
    """Per-layer measurements of real architectures as training records."""
    out = []
    for record in records:
        for layer in record.layers:
            out.append(
                MeasurementRecord(
                    module=layer.module,
                    config=layer.config,
                    macs=layer.macs,
                    cpu_energy_j=layer.cpu_energy_j,
                    repeat=1,
                    source=SOURCE_REAL,
                )
            )
    return out


LAYERWISE_HEADER = ("module", *STANDALONE_FIELDS, "macs", "cpu_energy_j", "repeat", "source")


def _config_from_cells(kind: LayerKind, cells) -> LayerConfig:
    """The configuration whose ``STANDALONE_FIELDS`` cells these are; an empty
    cell is an inapplicable field."""
    return LayerConfig(kind=kind, **{name: int(raw) for name, raw in zip(STANDALONE_FIELDS, cells) if raw})


def _layerwise_rows(records: list[MeasurementRecord]):
    for record in records:
        cfg = record.config
        yield (
            [record.module.value]
            + ["" if getattr(cfg, name) is None else getattr(cfg, name) for name in STANDALONE_FIELDS]
            + [record.macs, repr(float(record.cpu_energy_j)), record.repeat, record.source]
        )


@contextmanager
def _csv_writer(path, header: tuple[str, ...], to_rows, append: bool):
    """Yield ``write(items)``, which writes the rows ``to_rows(items)`` and
    flushes them. The first write opens ``path``, and writes the header if
    the file is new; a block that ends cleanly without writing still leaves
    the header. So a caller that fails before its first write leaves no
    file, and a ``path`` that cannot be written is refused on entry, before
    the caller's work (a collect's measurements). Every CSV the package
    writes goes through here, except the ablation table
    (``report.write_ablation_csv``) and the MAC table on stdout."""
    new = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()  # the open error now; an append that writes nothing changes no file
    if new:
        os.remove(path)
    fh = writer = None

    def write(items) -> None:
        nonlocal fh, writer
        if fh is None:
            fh = open(path, "a" if append else "w", encoding="utf-8", newline="")
            writer = csv.writer(fh)
            if fh.tell() == 0:
                writer.writerow(header)
        writer.writerows(to_rows(items))
        fh.flush()

    try:
        yield write
        if fh is None:
            write(())
    finally:
        if fh is not None:
            fh.close()


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """Write ``rows`` (sequences of cells) under ``header``."""
    with _csv_writer(path, header, iter, append=False) as write:
        write(rows)


def read_csv(path, required: Sequence[str]) -> tuple[dict[str, int], list[list[str]]]:
    """The column positions and data rows of a UTF-8 CSV whose header holds
    the ``required`` columns; every CSV the package reads goes through here.

    Blank lines are skipped and not counted, so ``rows[i]`` is row ``i + 2``
    of the file in every error message. A row shorter than the header is
    padded with empty cells, which the caller's own cell checks then reject
    or accept. A malformed or non-UTF-8 file is a ``ParseError`` naming it.
    """
    header = None
    rows: list[list[str]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            missing = set(required) - set(header)
            if missing:
                raise SchemaError(f"{path}: missing columns {sorted(missing)}")
            width = len(header)
            # extend keeps the rows read before a csv.Error, which numbers it
            rows.extend(row if len(row) >= width else row + [""] * (width - len(row)) for row in reader if row)
    except csv.Error as exc:
        raise ParseError(f"{path}: row {1 if header is None else len(rows) + 2}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return {name: i for i, name in enumerate(header)}, rows


def appending_layerwise_csv(path):
    """Context manager yielding ``write(records)``, which appends the records'
    rows to ``path`` and flushes them, so a crash loses no written batch."""
    return _csv_writer(path, LAYERWISE_HEADER, _layerwise_rows, append=True)


def _energy_reading(raw: str) -> float | None:
    """A CSV energy reading, or None if it is missing, non-finite or negative."""
    energy = float(raw) if raw else math.nan
    return energy if math.isfinite(energy) and energy >= 0 else None


def load_layerwise_csv(path, verify_macs: bool = True) -> list[MeasurementRecord]:
    """Read layer-wise rows; rows with a missing, non-finite or negative
    energy are dropped with a warning.

    Each distinct configuration (its module and parameter cells) is parsed,
    checked and MAC-counted once; its repeats reuse the result, and every
    row's own cells are still checked against it.
    """
    records = []
    # configuration cells -> [config, recomputed MACs or None until needed]
    parsed: dict[tuple, list] = {}
    column, rows = read_csv(path, LAYERWISE_HEADER)
    config_cells = itemgetter(*(column[name] for name in ("module", *STANDALONE_FIELDS)))
    cells = itemgetter(*(column[name] for name in ("cpu_energy_j", "macs", "repeat", "source")))
    for line, row in enumerate(rows, start=2):
        raw_energy, raw_macs, raw_repeat, source = cells(row)
        raw_energy = raw_energy.strip()
        key = config_cells(row)
        known = parsed.get(key)
        # a new configuration is checked in the order of a full parse:
        # module, energy, then the configuration itself
        try:
            if known is None:
                kind = LayerKind(key[0])
            energy = _energy_reading(raw_energy)
            if known is None:
                config = _config_from_cells(kind, key[1:])
                config.require_standalone()
                known = parsed[key] = [config, None]
            config = known[0]
            macs = int(raw_macs)
            repeat = int(raw_repeat or 1)
            source = source or SOURCE_RANDOM
            if energy is not None:
                record = MeasurementRecord(config.kind, config, macs, energy, repeat, source)
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"{path}: row {line}: {exc}") from exc
        if energy is None:
            warnings.warn(
                f"{path}: row {line}: dropped erroneous energy reading {raw_energy!r}",
                UserWarning,
                stacklevel=2,
            )
            continue
        if verify_macs:
            if known[1] is None:
                known[1] = standalone_macs(config)
            if known[1] != macs:
                warnings.warn(
                    f"{path}: row {line}: stored macs {macs} != recomputed {known[1]}",
                    ConsistencyWarning,
                    stacklevel=2,
                )
        records.append(record)
    return records


# the batch size is per record, so layer rows carry the other parameter columns
_LAYER_FIELDS = tuple(name for name in STANDALONE_FIELDS if name != "batch_size")

MODELWISE_HEADER = (
    "architecture", "batch_size", "row_type", "layer_index", "module", *_LAYER_FIELDS, "macs", "cpu_energy_j",
)


def _modelwise_rows(records: list[ModelWiseRecord]):
    for record in records:
        yield (
            [record.architecture, record.batch_size, "total", "", ""]
            + [""] * len(_LAYER_FIELDS)
            + [record.total_macs, repr(float(record.total_energy_j))]
        )
        for layer in record.layers:
            cfg = layer.config
            yield (
                [record.architecture, record.batch_size, "layer", layer.layer_index, layer.module.value]
                + ["" if getattr(cfg, name) is None else getattr(cfg, name) for name in _LAYER_FIELDS]
                + [layer.macs, repr(float(layer.cpu_energy_j))]
            )


def appending_modelwise_csv(path):
    """Context manager yielding ``write(records)``, which appends the records'
    rows to ``path`` and flushes them, so a crash loses no written batch."""
    return _csv_writer(path, MODELWISE_HEADER, _modelwise_rows, append=True)


def load_modelwise_csv(path) -> list[ModelWiseRecord]:
    """Read model-wise rows grouped as one total row followed by its layer rows.

    A layer row with a missing, non-finite or negative energy is dropped with
    a warning; such a total row is dropped together with its layer rows.
    """
    records: list[ModelWiseRecord] = []
    current: tuple[int, ModelWiseRecord] | None = None  # (its total row, the record)
    layers: list[ModelWiseLayer] = []
    dropped_total = False

    def flush():
        nonlocal current
        if current is not None:
            total_line, record = current
            try:
                records.append(replace(record, layers=tuple(layers)))
            except ValidationError as exc:
                raise ParseError(f"{path}: row {total_line}: {exc}") from exc
            current = None
            layers.clear()

    column, rows = read_csv(path, MODELWISE_HEADER)
    cells = itemgetter(*(column[name] for name in (
        "architecture", "batch_size", "row_type", "layer_index", "module", "macs", "cpu_energy_j")))
    config_cells = itemgetter(*(column[name] for name in STANDALONE_FIELDS))
    for line, row in enumerate(rows, start=2):
        architecture, batch_size, row_type, layer_index, module, macs, raw_energy = cells(row)
        raw_energy = raw_energy.strip()
        try:
            energy = _energy_reading(raw_energy)
            if row_type == "total":
                flush()
                dropped_total = energy is None
                if dropped_total:
                    warnings.warn(
                        f"{path}: row {line}: dropped erroneous total {raw_energy!r} and its layer rows",
                        UserWarning,
                        stacklevel=2,
                    )
                    continue
                current = line, ModelWiseRecord(
                    architecture=architecture,
                    batch_size=int(batch_size),
                    total_energy_j=energy,
                    total_macs=int(macs or 0),
                )
            elif row_type == "layer":
                if dropped_total:
                    continue
                if current is None:
                    raise ParseError(f"{path}: row {line}: layer row before any total row")
                if energy is None:
                    warnings.warn(
                        f"{path}: row {line}: dropped erroneous layer energy {raw_energy!r}",
                        UserWarning,
                        stacklevel=2,
                    )
                    continue
                kind = LayerKind(module)
                layers.append(
                    ModelWiseLayer(
                        layer_index=int(layer_index),
                        module=kind,
                        config=_config_from_cells(kind, config_cells(row)),
                        macs=int(macs),
                        cpu_energy_j=energy,
                    )
                )
            else:
                raise ValueError(f"unknown row_type {row_type!r}")
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"{path}: row {line}: {exc}") from exc
    flush()
    return records
