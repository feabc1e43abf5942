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

from .arch import STANDALONE_FIELDS, LayerConfig, LayerKind, standalone_spec
from .errors import (
    ConsistencyWarning,
    MacOverflowError,
    ParseError,
    ValidationError,
)
from .macs import standalone_macs

SOURCE_RANDOM = "random"
SOURCE_REAL = "real_architecture"


@dataclass(frozen=True)
class MeasurementRecord:
    """One layer-wise dataset row: a standalone module, its MACs, and one energy reading."""

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

    @property
    def module(self) -> LayerKind:
        return self.config.kind


@dataclass(frozen=True)
class ModelWiseLayer:
    layer_index: int
    config: LayerConfig
    macs: int
    cpu_energy_j: float

    @property
    def module(self) -> LayerKind:
        return self.config.kind


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
        for l in self.layers:  # layer rows carry no batch column: a file gives each the record's
            if l.config.batch_size != self.batch_size:
                raise ValidationError(
                    f"layer {l.layer_index} has batch_size {l.config.batch_size}, its record {self.batch_size}"
                )

    @property
    def layer_energy_sum_j(self) -> float:
        return float(sum(l.cpu_energy_j for l in self.layers))


#: the train, validation and test fractions of every split
SPLIT_FRACTIONS = (0.7, 0.2, 0.1)


#: draws ``sample_config`` makes before giving up on a kind's ranges
_SAMPLE_DRAWS = 1000


def sample_config(kind: LayerKind, rng) -> LayerConfig:
    """Draw each field integer-uniform from its inclusive range in the kind's
    ``KindSpec.ranges``, in key order.

    ``rng`` may be a seed or a ``numpy.random.Generator``. Configurations
    violating the layer invariants (kernel larger than the padded image,
    pooling padding above half the kernel) are rejected and redrawn, up to
    ``_SAMPLE_DRAWS`` draws in all.
    """
    spec = standalone_spec(kind)
    gen = np.random.default_rng(rng)  # a Generator is returned as it is
    for _ in range(_SAMPLE_DRAWS):
        fields = {
            name: int(gen.integers(lo, hi + 1)) for name, (lo, hi) in spec.ranges.items()
        }
        try:
            return LayerConfig(kind=kind, **fields)
        except ValidationError:
            continue
    raise ValidationError(f"no valid {kind.value} config after {_SAMPLE_DRAWS} draws")


_standalone_values = attrgetter(*STANDALONE_FIELDS)


def config_key(config: LayerConfig) -> tuple:
    """Canonical hashable identity of a configuration (grouping key for splits)."""
    return (config.kind.value, *_standalone_values(config))


def _shuffled_groups(keys: Sequence[tuple], seed: int) -> list[list[int]]:
    """The positions of ``keys`` grouped by equal key, one group per
    configuration (``config_key``), in the seeded order that splits and CV
    folds deal them out in: sorted by key with a missing field as -1 and the
    kind last, then permuted by ``default_rng(seed)``."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    ordered = sorted(groups, key=lambda k: tuple(-1 if v is None else v for v in k[1:]) + (k[0],))
    gen = np.random.default_rng(seed)
    return [groups[ordered[i]] for i in gen.permutation(len(ordered))]


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


def split_indices(keys: Sequence[tuple], seed: int) -> tuple[list[int], list[int], list[int]]:
    """Positions of the train/val/test parts of records with these config keys.

    All repeats of one configuration land in the same part; the
    ``SPLIT_FRACTIONS`` are applied to the configuration groups, in the order
    ``seed`` deals them, with largest-remainder rounding.
    """
    if len(keys) < 10:
        raise ValidationError(f"need at least 10 records to split, got {len(keys)}")
    groups = _shuffled_groups(keys, seed)
    n_train, n_val, _ = _largest_remainder_sizes(len(groups), SPLIT_FRACTIONS)
    parts: tuple[list, list, list] = ([], [], [])
    for pos, group in enumerate(groups):
        bucket = 0 if pos < n_train else (1 if pos < n_train + n_val else 2)
        parts[bucket].extend(group)
    return parts


def group_kfold_indices(keys: Sequence[tuple], k: int, seed: int) -> list[list[int]]:
    """Deterministic k folds of record positions, keeping equal keys together:
    the groups of ``_shuffled_groups`` dealt round-robin."""
    groups = _shuffled_groups(keys, seed)
    if len(groups) < k:
        raise ValidationError(f"{len(groups)} configuration groups cannot fill {k} folds")
    folds: list[list[int]] = [[] for _ in range(k)]
    for pos, group in enumerate(groups):
        folds[pos % k].extend(group)
    return folds


LAYERWISE_HEADER = ("module", *STANDALONE_FIELDS, "macs", "cpu_energy_j", "repeat", "source")


def _param_cells(config: LayerConfig) -> list:
    """The ``STANDALONE_FIELDS`` cells of a row of ``config``; an inapplicable
    field is an empty cell."""
    return ["" if value is None else value for value in _standalone_values(config)]


def _layerwise_rows(records: list[MeasurementRecord]):
    for record in records:
        yield (
            [record.module.value]
            + _param_cells(record.config)
            + [record.macs, repr(float(record.cpu_energy_j)), record.repeat, record.source]
        )


@contextmanager
def _csv_writer(path, header: tuple[str, ...], to_rows, append: bool):
    """Yield ``write(items)``, which writes the rows ``to_rows(items)`` and
    flushes them. The first write opens ``path``, and writes the header if
    the file is new; a block that ends cleanly without writing still leaves
    the header. So a caller that fails before its first write leaves no
    file, and a ``path`` that cannot be written, or that ``append`` would
    add to under another header, is refused on entry, before the caller's
    work (a collect's measurements). Every CSV the package writes goes
    through here, except the ablation table (``report.write_ablation_csv``)
    and the MAC table on stdout."""
    new = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()  # the open error now; an append that writes nothing changes no file
    if new:
        os.remove(path)
    elif append and os.path.getsize(path):
        with open(path, encoding="utf-8", errors="replace", newline="") as fh:
            try:
                first = next(csv.reader(fh))
            except csv.Error:
                first = None
        if first != list(header):
            raise ParseError(f"{path}: holds another table: its first row is not {','.join(header)}")
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


def read_csv(path, columns: Sequence[str]) -> list[tuple[str, ...]]:
    """The ``columns`` cells of each data row of a UTF-8 CSV whose header
    holds those columns, in the order given; every CSV the package reads
    goes through here, and no other cell is kept.

    Blank lines are skipped and not counted, so ``rows[i]`` is row ``i + 2``
    of the file in every error message. A row shorter than the header is
    padded with empty cells, which the caller's own cell checks then reject
    or accept. A malformed or non-UTF-8 file is a ``ParseError`` naming it.
    """
    header = None
    rows: list[tuple[str, ...]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            missing = set(columns) - set(header)
            if missing:
                raise ParseError(f"{path}: missing columns {sorted(missing)}")
            width = len(header)
            position = {name: i for i, name in enumerate(header)}  # a repeated name is its last column
            at = [position[name] for name in columns]
            pick = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
            # extend keeps the rows read before a csv.Error, which numbers it
            rows.extend(pick(row if len(row) >= width else row + [""] * (width - len(row))) for row in reader if row)
    except csv.Error as exc:
        raise ParseError(f"{path}: row {1 if header is None else len(rows) + 2}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return rows


def appending_layerwise_csv(path):
    """Context manager yielding ``write(records)``, which appends the records'
    rows to ``path`` and flushes them, so a crash loses no written batch."""
    return _csv_writer(path, LAYERWISE_HEADER, _layerwise_rows, append=True)


def _energy_reading(raw: str) -> float | None:
    """A CSV energy reading, or None if it is missing, non-finite or negative."""
    energy = float(raw) if raw else math.nan
    return energy if math.isfinite(energy) and energy >= 0 else None


class _StandaloneCells:
    """The one path, for both loaders, from a row's module and
    ``STANDALONE_FIELDS`` cells to its checked standalone configuration. Each
    distinct cell tuple is parsed once, and its MACs are recounted once, when
    a kept row first needs them. Every refusal and warning names the row."""

    def __init__(self, path):
        self.path = path
        self._known: dict[tuple, list] = {}  # cells -> [config, recounted MACs or None until needed]

    def refusal(self, line: int, exc) -> ParseError:
        return ParseError(f"{self.path}: row {line}: {exc}")

    def warn(self, line: int, text: str, category=UserWarning, stacklevel: int = 3) -> None:
        """Warn the loader's caller (at the default ``stacklevel``), naming the row."""
        warnings.warn(f"{self.path}: row {line}: {text}", category, stacklevel=stacklevel)

    def config(self, line: int, cells: tuple, stored_macs: int | None = None) -> LayerConfig:
        """The configuration of ``cells``, in which an empty field cell is an
        inapplicable field; given ``stored_macs``, warn unless they are its recount."""
        known = self._known.get(cells)
        try:
            if known is None:
                fields = {name: int(raw) for name, raw in zip(STANDALONE_FIELDS, cells[1:]) if raw}
                config = LayerConfig(kind=LayerKind(cells[0]), **fields)
                config.require_standalone()
                known = self._known[cells] = [config, None]
            if stored_macs is not None and known[1] is None:
                known[1] = standalone_macs(known[0])
        except (ValueError, ValidationError, MacOverflowError) as exc:
            raise self.refusal(line, exc) from exc
        if stored_macs is not None and stored_macs != known[1]:
            self.warn(line, f"stored macs {stored_macs} != recomputed {known[1]}", ConsistencyWarning, 4)
        return known[0]


def load_layerwise_csv(path) -> list[MeasurementRecord]:
    """Read layer-wise rows; rows with a missing, non-finite or negative
    energy are dropped with a warning, and a kept row whose stored MACs are
    not its recount is kept with a ``ConsistencyWarning``.

    Each distinct configuration (its module and parameter cells) is parsed,
    checked and MAC-counted once (``_StandaloneCells``); its repeats reuse
    the result, and every row's own cells, a dropped row's too, are still
    checked against it.
    """
    records = []
    standalone = _StandaloneCells(path)
    for line, row in enumerate(read_csv(path, LAYERWISE_HEADER), start=2):
        cells = row[:-4]  # the module and STANDALONE_FIELDS cells
        raw_macs, raw_energy, raw_repeat, source = row[-4:]
        raw_energy = raw_energy.strip()
        config = standalone.config(line, cells)
        try:
            energy = _energy_reading(raw_energy)
            # a dropped row's cells are checked as a kept row's are
            record = MeasurementRecord(
                config, int(raw_macs), 0.0 if energy is None else energy, int(raw_repeat or 1),
                source or SOURCE_RANDOM,
            )
        except (ValueError, ValidationError) as exc:
            raise standalone.refusal(line, exc) from exc
        if energy is None:
            standalone.warn(line, f"dropped erroneous energy reading {raw_energy!r}")
            continue
        standalone.config(line, cells, record.macs)
        records.append(record)
    return records


# layer rows carry every parameter column but the first, the per-record batch size
_LAYER_FIELDS = STANDALONE_FIELDS[1:]

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
            yield (
                [record.architecture, record.batch_size, "layer", layer.layer_index, layer.module.value]
                + _param_cells(layer.config)[1:]  # _LAYER_FIELDS
                + [layer.macs, repr(float(layer.cpu_energy_j))]
            )


def appending_modelwise_csv(path):
    """Context manager yielding ``write(records)``, which appends the records'
    rows to ``path`` and flushes them, so a crash loses no written batch."""
    return _csv_writer(path, MODELWISE_HEADER, _modelwise_rows, append=True)


def load_modelwise_csv(path) -> list[ModelWiseRecord]:
    """Read model-wise rows grouped as one total row followed by its layer rows.

    A layer row with a missing, non-finite or negative energy is dropped with
    a warning; such a total row is dropped together with its layer rows. A
    layer row's configuration must be a full standalone one, and its stored
    MACs are recounted from it, as a layer-wise row's are.
    """
    records: list[ModelWiseRecord] = []
    current: tuple[int, ModelWiseRecord] | None = None  # (its total row, the record)
    layers: list[ModelWiseLayer] = []
    dropped_total = False
    standalone = _StandaloneCells(path)

    def flush():
        nonlocal current
        if current is not None:
            total_line, record = current
            try:
                records.append(replace(record, layers=tuple(layers)))
            except ValidationError as exc:
                raise standalone.refusal(total_line, exc) from exc
            current = None
            layers.clear()

    for line, row in enumerate(read_csv(path, MODELWISE_HEADER), start=2):
        architecture, batch_size, row_type, layer_index, module = row[:5]
        macs, raw_energy = row[-2:]
        raw_energy = raw_energy.strip()
        try:
            energy = _energy_reading(raw_energy)
            if row_type == "total":
                flush()
                dropped_total = energy is None
                if dropped_total:
                    standalone.warn(line, f"dropped erroneous total {raw_energy!r} and its layer rows")
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
                    raise standalone.refusal(line, "layer row before any total row")
                if energy is None:
                    standalone.warn(line, f"dropped erroneous layer energy {raw_energy!r}")
                    continue
                cells = (module, batch_size, *row[5:-2])  # row[5:-2] is _LAYER_FIELDS
                config = standalone.config(line, cells)
                layers.append(
                    ModelWiseLayer(
                        layer_index=int(layer_index),
                        config=config,
                        macs=int(macs),
                        cpu_energy_j=energy,
                    )
                )
                standalone.config(line, cells, layers[-1].macs)
            else:
                raise ValueError(f"unknown row_type {row_type!r}")
        except (ValueError, ValidationError) as exc:
            raise standalone.refusal(line, exc) from exc
    flush()
    return records
