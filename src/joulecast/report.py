"""Report artifacts: each chart is written as a CSV plus an SVG rendered from
the same in-memory rows, so the CSV alone can regenerate the image."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .arch import LayerKind
from .errors import ParseError, SchemaError
from .predict import AblationRow, LayerPoint, TotalPoint
from .svgplot import scatter_svg, stacked_bar_svg


@dataclass(frozen=True)
class ReportArtifact:
    kind: str  # scatter | contribution_bars | aggregate_vs_total | ablation_scatter
    csv_path: str
    svg_path: str


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_columns(path, required, names) -> list[tuple[str, ...]]:
    """The ``names`` columns of a CSV whose header holds the ``required``
    columns, one tuple of cells per column; blank lines are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            missing = set(required) - set(header)
            if missing:
                raise SchemaError(f"{path}: missing columns {sorted(missing)}")
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from exc
    column = {name: i for i, name in enumerate(header)}
    positions = [column[name] for name in names]
    width = max(positions) + 1
    for line, row in enumerate(rows, start=2):
        if len(row) < width:
            raise ParseError(f"{path}: row {line}: {len(row)} of {len(header)} columns")
    table = list(zip(*rows)) if rows else [()] * width
    return [table[i] for i in positions]


def _numbers(path, name: str, cells: tuple[str, ...]) -> list[float]:
    """``cells`` of column ``name`` as floats; a cell that is not a number is a ParseError."""
    try:
        return list(map(float, cells))
    except ValueError:
        for line, cell in enumerate(cells, start=2):
            try:
                float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {line}: {name} {cell!r} is not a number") from None
        raise


LAYER_SCATTER_HEADER = ("architecture", "batch_size", "layer_index", "module", "measured_j", "predicted_j")
TOTALS_HEADER = ("architecture", "batch_size", "measured_j", "predicted_j", "layer_measured_sum_j")
ABLATION_HEADER = ("mask", "features", "contains_mac", "r2", "mse")


def write_layer_scatter_csv(path, points: tuple[LayerPoint, ...]) -> None:
    _write_csv(
        path,
        LAYER_SCATTER_HEADER,
        [
            (p.architecture, p.batch_size, p.layer_index, p.kind.value,
             repr(float(p.measured_j)), repr(float(p.predicted_j)))
            for p in points
        ],
    )


def write_totals_csv(path, points: tuple[TotalPoint, ...]) -> None:
    _write_csv(
        path,
        TOTALS_HEADER,
        [
            (p.architecture, p.batch_size, repr(float(p.measured_j)), repr(float(p.predicted_j)),
             repr(float(p.layer_measured_sum_j)))
            for p in points
        ],
    )


def write_ablation_csv(path, rows: list[AblationRow]) -> None:
    """The bytes ``csv.writer`` writes for these rows, joined in one pass: the
    feature names are identifiers and the scores floats, so no cell needs
    quoting."""
    lines = [",".join(ABLATION_HEADER)]
    lines += [
        f"{row.mask},{'+'.join(row.features)},{int('macs' in row.features)},"
        f"{float(row.r2)!r},{float(row.mse)!r}"
        for row in rows
    ]
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines))


def layer_scatter_artifacts(csv_path, out_dir) -> list[ReportArtifact]:
    """One measured-vs-predicted scatter per layer kind (ground truth on x)."""
    module, measured, predicted = _read_columns(
        csv_path, LAYER_SCATTER_HEADER, ("module", "measured_j", "predicted_j")
    )
    points = list(zip(module, _numbers(csv_path, "measured_j", measured),
                      _numbers(csv_path, "predicted_j", predicted)))
    artifacts = []
    for kind in sorted(set(module)):
        pts = [(x, y) for m, x, y in points if m == kind]
        svg = scatter_svg(
            [(kind, pts)],
            title=f"{kind}: measured vs predicted energy per pass",
            xlabel="measured energy (J)",
            ylabel="predicted energy (J)",
        )
        svg_path = os.path.join(out_dir, f"scatter_{kind.lower()}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        artifacts.append(ReportArtifact("scatter", str(csv_path), svg_path))
    return artifacts


def _totals_by_arch(csv_path, y_column: str) -> list[tuple[str, list[tuple[float, float]]]]:
    """(measured total, ``y_column``) points of a totals CSV per architecture, sorted."""
    arch, measured, y = _read_columns(csv_path, TOTALS_HEADER, ("architecture", "measured_j", y_column))
    by_arch: dict[str, list[tuple[float, float]]] = {}
    for name, point in zip(arch, zip(_numbers(csv_path, "measured_j", measured),
                                     _numbers(csv_path, y_column, y))):
        by_arch.setdefault(name, []).append(point)
    return sorted(by_arch.items())


def totals_scatter_artifact(csv_path, out_dir) -> ReportArtifact:
    """Measured totals vs summed per-layer predictions, grouped by architecture."""
    svg = scatter_svg(
        _totals_by_arch(csv_path, "predicted_j"),
        title="Full-architecture energy: measured vs predicted",
        xlabel="measured energy (J)",
        ylabel="sum of layer predictions (J)",
    )
    svg_path = os.path.join(out_dir, "scatter_totals.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return ReportArtifact("scatter", str(csv_path), svg_path)


def aggregate_vs_total_artifact(csv_path, out_dir) -> ReportArtifact:
    """Measured totals vs the sum of the per-layer measurements (consistency check)."""
    svg = scatter_svg(
        _totals_by_arch(csv_path, "layer_measured_sum_j"),
        title="Total measured energy vs layer-wise aggregate",
        xlabel="total measured energy (J)",
        ylabel="sum of layer measurements (J)",
    )
    svg_path = os.path.join(out_dir, "aggregate_vs_total.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return ReportArtifact("aggregate_vs_total", str(csv_path), svg_path)


def contribution_artifact(layer_csv_path, out_dir) -> ReportArtifact:
    """Relative per-kind contribution to each architecture's measured energy."""
    arch, module, measured = _read_columns(
        layer_csv_path, LAYER_SCATTER_HEADER, ("architecture", "module", "measured_j")
    )
    totals: dict[str, dict[str, float]] = {}
    for name, kind, joules in zip(arch, module, _numbers(layer_csv_path, "measured_j", measured)):
        parts = totals.setdefault(name, {})
        parts[kind] = parts.get(kind, 0.0) + joules
    kind_order = [k.value for k in LayerKind]
    bars = [
        (name, [(kind, parts[kind]) for kind in kind_order if kind in parts])
        for name, parts in sorted(totals.items())
    ]
    svg = stacked_bar_svg(
        bars,
        title="Layer-type contributions to measured energy",
        ylabel="fraction of measured energy",
    )
    svg_path = os.path.join(out_dir, "contribution_bars.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return ReportArtifact("contribution_bars", str(layer_csv_path), svg_path)


def ablation_artifact(csv_path, out_dir) -> ReportArtifact:
    """Subset index vs test score, split by MAC membership."""
    mask, contains_mac, r2 = _read_columns(csv_path, ABLATION_HEADER, ("mask", "contains_mac", "r2"))
    points = np.column_stack([_numbers(csv_path, "mask", mask), _numbers(csv_path, "r2", r2)])
    with_mac = np.array(contains_mac) == "1"
    svg = scatter_svg(
        [("with MAC count", points[with_mac]), ("without MAC count", points[~with_mac])],
        title="Feature-subset scores",
        xlabel="feature subset index",
        ylabel="test R^2",
        diagonal=False,
    )
    svg_path = os.path.join(out_dir, "ablation_scatter.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return ReportArtifact("ablation_scatter", str(csv_path), svg_path)
