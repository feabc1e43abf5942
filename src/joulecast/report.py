"""Report artifacts: each chart is written as a CSV plus an SVG rendered from
the same in-memory rows, so the CSV alone can regenerate the image."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .arch import LayerKind
from .dataset import read_csv, write_csv
from .errors import ParseError
from .predict import AblationTable, LayerPoint, TotalPoint
from .svgplot import scatter_svg, stacked_bar_svg


@dataclass(frozen=True)
class ReportArtifact:
    kind: str  # scatter | contribution_bars | aggregate_vs_total | ablation_scatter
    svg_path: str


def _columns(path, required, names) -> list[tuple[str, ...]]:
    """The ``names`` columns of a CSV whose header holds the ``required``
    columns (``dataset.read_csv``), one tuple of cells per column."""
    column, rows = read_csv(path, required)
    if not rows:
        return [()] * len(names)
    table = list(zip(*rows))
    return [table[column[name]] for name in names]


def _svg_artifact(kind: str, out_dir, name: str, svg: str) -> ReportArtifact:
    """Write ``svg`` to ``out_dir/name``."""
    svg_path = os.path.join(out_dir, name)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return ReportArtifact(kind, svg_path)


def _numbers(path, name: str, cells: tuple[str, ...]) -> list[float]:
    """``cells`` of column ``name`` as floats; a cell that is not a finite number is a ParseError."""
    try:
        values = list(map(float, cells))
    except ValueError:
        for line, cell in enumerate(cells, start=2):
            try:
                float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {line}: {name} {cell!r} is not a number") from None
        raise
    if not all(map(math.isfinite, values)):
        line = next(line for line, value in enumerate(values, start=2) if not math.isfinite(value))
        raise ParseError(f"{path}: row {line}: {name} {cells[line - 2]!r} is not a finite number")
    return values


LAYER_SCATTER_HEADER = ("architecture", "batch_size", "layer_index", "module", "measured_j", "predicted_j")
TOTALS_HEADER = ("architecture", "batch_size", "measured_j", "predicted_j", "layer_measured_sum_j")
ABLATION_HEADER = ("mask", "features", "contains_mac", "r2", "mse")


def write_layer_scatter_csv(path, points: tuple[LayerPoint, ...]) -> None:
    write_csv(
        path,
        LAYER_SCATTER_HEADER,
        [
            (p.architecture, p.batch_size, p.layer_index, p.kind.value,
             repr(float(p.measured_j)), repr(float(p.predicted_j)))
            for p in points
        ],
    )


def write_totals_csv(path, points: tuple[TotalPoint, ...]) -> None:
    write_csv(
        path,
        TOTALS_HEADER,
        [
            (p.architecture, p.batch_size, repr(float(p.measured_j)), repr(float(p.predicted_j)),
             repr(float(p.layer_measured_sum_j)))
            for p in points
        ],
    )


def write_ablation_csv(path, table: AblationTable) -> None:
    """One row per non-empty subset in mask order, as the bytes ``csv.writer``
    writes, joined in one pass: the feature names are identifiers and the
    scores floats, so no cell needs quoting."""
    names = table.columns
    mac_bit = 1 << names.index("macs") if "macs" in names else 0
    # a mask's names are its lowest bit's name, then the rest's, in column order
    joined = [""] * 2 ** len(names)
    lines = [",".join(ABLATION_HEADER)]
    for mask, r2, mse in zip(range(1, len(joined)), table.r2.tolist()[1:], table.mse.tolist()[1:]):
        low = mask & -mask
        rest = joined[mask ^ low]
        joined[mask] = names[low.bit_length() - 1] + "+" + rest if rest else names[low.bit_length() - 1]
        lines.append(f"{mask},{joined[mask]},{int(mask & mac_bit != 0)},{r2!r},{mse!r}")
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines))


def layer_scatter_artifacts(csv_path, out_dir) -> list[ReportArtifact]:
    """One measured-vs-predicted scatter per layer kind (ground truth on x)."""
    module, measured, predicted = _columns(
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
        artifacts.append(_svg_artifact("scatter", out_dir, f"scatter_{kind.lower()}.svg", svg))
    return artifacts


def _totals_by_arch(csv_path, y_column: str) -> list[tuple[str, list[tuple[float, float]]]]:
    """(measured total, ``y_column``) points of a totals CSV per architecture, sorted."""
    arch, measured, y = _columns(csv_path, TOTALS_HEADER, ("architecture", "measured_j", y_column))
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
    return _svg_artifact("scatter", out_dir, "scatter_totals.svg", svg)


def aggregate_vs_total_artifact(csv_path, out_dir) -> ReportArtifact:
    """Measured totals vs the sum of the per-layer measurements (consistency check)."""
    svg = scatter_svg(
        _totals_by_arch(csv_path, "layer_measured_sum_j"),
        title="Total measured energy vs layer-wise aggregate",
        xlabel="total measured energy (J)",
        ylabel="sum of layer measurements (J)",
    )
    return _svg_artifact("aggregate_vs_total", out_dir, "aggregate_vs_total.svg", svg)


def contribution_artifact(layer_csv_path, out_dir) -> ReportArtifact:
    """Relative per-kind contribution to each architecture's measured energy."""
    arch, module, measured = _columns(
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
    return _svg_artifact("contribution_bars", out_dir, "contribution_bars.svg", svg)


def ablation_artifact(csv_path, out_dir) -> ReportArtifact:
    """Subset index vs test score, split by MAC membership."""
    mask, contains_mac, r2 = _columns(csv_path, ABLATION_HEADER, ("mask", "contains_mac", "r2"))
    points = np.column_stack([_numbers(csv_path, "mask", mask), _numbers(csv_path, "r2", r2)])
    with_mac = np.array(contains_mac) == "1"
    svg = scatter_svg(
        [("with MAC count", points[with_mac]), ("without MAC count", points[~with_mac])],
        title="Feature-subset scores",
        xlabel="feature subset index",
        ylabel="test R^2",
        diagonal=False,
    )
    return _svg_artifact("ablation_scatter", out_dir, "ablation_scatter.svg", svg)
