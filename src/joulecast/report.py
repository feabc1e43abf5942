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
class Chart:
    """One rendered SVG and the file name it is written under."""

    kind: str  # scatter | contribution_bars | aggregate_vs_total | ablation_scatter
    name: str
    svg: str

    def write(self, out_dir) -> str:
        """Write the SVG to ``out_dir/name`` and return that path."""
        svg_path = os.path.join(out_dir, self.name)
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(self.svg)
        return svg_path


def _columns(path, names) -> list[tuple[str, ...]]:
    """The ``names`` columns of a CSV (``dataset.read_csv``), one tuple of cells per column."""
    return list(zip(*read_csv(path, names))) or [()] * len(names)


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


#: ablation rows formatted and written at a time, so the table's text is never held whole
ABLATION_BLOCK_ROWS = 4096


def write_ablation_csv(path, table: AblationTable) -> None:
    """One row per non-empty subset in mask order, as the bytes ``csv.writer``
    writes, one block of ``ABLATION_BLOCK_ROWS`` rows at a time: the feature
    names are identifiers and the scores floats, so no cell needs quoting."""
    names = table.columns
    mac_bit = 1 << names.index("macs") if "macs" in names else 0
    # a mask's names are its lowest bit's name, then the rest's, in column order
    joined = [""] * 2 ** len(names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(ABLATION_HEADER) + "\r\n")
        for start in range(1, len(joined), ABLATION_BLOCK_ROWS):
            stop = min(start + ABLATION_BLOCK_ROWS, len(joined))
            lines = []
            for mask, r2, mse in zip(range(start, stop), table.r2[start:stop].tolist(),
                                     table.mse[start:stop].tolist()):
                low = mask & -mask
                rest = joined[mask ^ low]
                joined[mask] = names[low.bit_length() - 1] + "+" + rest if rest else names[low.bit_length() - 1]
                lines.append(f"{mask},{joined[mask]},{int(mask & mac_bit != 0)},{r2!r},{mse!r}\r\n")
            fh.write("".join(lines))


def layer_charts(csv_path) -> list[Chart]:
    """One measured-vs-predicted scatter per layer kind (ground truth on x),
    then the relative per-kind contribution to each architecture's measured
    energy."""
    arch, module, measured, predicted = _columns(
        csv_path, ("architecture", "module", "measured_j", "predicted_j")
    )
    measured = _numbers(csv_path, "measured_j", measured)
    predicted = _numbers(csv_path, "predicted_j", predicted)
    charts = []
    for kind in sorted(set(module)):
        pts = [(x, y) for m, x, y in zip(module, measured, predicted) if m == kind]
        svg = scatter_svg(
            [(kind, pts)],
            title=f"{kind}: measured vs predicted energy per pass",
            xlabel="measured energy (J)",
            ylabel="predicted energy (J)",
        )
        charts.append(Chart("scatter", f"scatter_{kind.lower()}.svg", svg))
    totals: dict[str, dict[str, float]] = {}
    for name, kind, joules in zip(arch, module, measured):
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
    charts.append(Chart("contribution_bars", "contribution_bars.svg", svg))
    return charts


def _by_arch(arch, points) -> list[tuple[str, list[tuple[float, float]]]]:
    """``points`` grouped by their ``arch`` name, sorted by it."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for name, point in zip(arch, points):
        groups.setdefault(name, []).append(point)
    return sorted(groups.items())


def totals_charts(csv_path) -> list[Chart]:
    """Measured totals vs summed per-layer predictions, then vs the sum of the
    per-layer measurements (a consistency check), grouped by architecture."""
    arch, measured, predicted, layer_sum = _columns(
        csv_path, ("architecture", "measured_j", "predicted_j", "layer_measured_sum_j")
    )
    measured = _numbers(csv_path, "measured_j", measured)
    predicted = _numbers(csv_path, "predicted_j", predicted)
    layer_sum = _numbers(csv_path, "layer_measured_sum_j", layer_sum)
    totals = scatter_svg(
        _by_arch(arch, zip(measured, predicted)),
        title="Full-architecture energy: measured vs predicted",
        xlabel="measured energy (J)",
        ylabel="sum of layer predictions (J)",
    )
    aggregate = scatter_svg(
        _by_arch(arch, zip(measured, layer_sum)),
        title="Total measured energy vs layer-wise aggregate",
        xlabel="total measured energy (J)",
        ylabel="sum of layer measurements (J)",
    )
    return [Chart("scatter", "scatter_totals.svg", totals),
            Chart("aggregate_vs_total", "aggregate_vs_total.svg", aggregate)]


def _ablation_points(csv_path) -> tuple[np.ndarray, np.ndarray]:
    """The (mask, r2) points of an ablation CSV with the MAC count and without it;
    the cells are let go on return, before the chart is rendered."""
    mask, contains_mac, r2 = _columns(csv_path, ("mask", "contains_mac", "r2"))
    points = np.column_stack([_numbers(csv_path, "mask", mask), _numbers(csv_path, "r2", r2)])
    with_mac = np.array(contains_mac) == "1"
    return points[with_mac], points[~with_mac]


def ablation_chart(csv_path) -> Chart:
    """Subset index vs test score, split by MAC membership."""
    with_mac, without = _ablation_points(csv_path)
    svg = scatter_svg(
        [("with MAC count", with_mac), ("without MAC count", without)],
        title="Feature-subset scores",
        xlabel="feature subset index",
        ylabel="test R^2",
        diagonal=False,
    )
    return Chart("ablation_scatter", "ablation_scatter.svg", svg)
