import csv
import hashlib
import json
import math
import re
from itertools import zip_longest
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_child, synth_records
from joulecast import svgplot
from joulecast.arch import LayerKind
from joulecast.errors import ParseError
from joulecast.predict import AblationTable, run_ablation
from joulecast.report import (
    ABLATION_HEADER,
    LAYER_SCATTER_HEADER,
    ablation_chart,
    layer_charts,
    write_ablation_csv,
)


def _csv_writer_bytes(path, table):
    """The ablation CSV as ``csv.writer`` writes it, one call per cell, with
    each mask's names read off its bits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_HEADER)
        for mask in range(1, 2 ** len(table.columns)):
            features = [name for i, name in enumerate(table.columns) if mask >> i & 1]
            writer.writerow((mask, "+".join(features), int("macs" in features),
                             repr(float(table.r2[mask])), repr(float(table.mse[mask]))))
    with open(path, "rb") as fh:
        return fh.read()


def _old_scatter_svg(series, title, xlabel, ylabel, diagonal=True):
    """``scatter_svg`` one point at a time in Python floats, with the ticks
    that cover one range for both axes under the diagonal and one per axis
    without it."""
    points = [p for _, pts in series for p in pts]
    if not points:
        xs = ys = [0.0, 1.0]
    else:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]

    def ticks_of(values):
        return svgplot.covering_ticks(min(min(values), 0.0), max(values))

    xticks, yticks = (ticks_of(xs + ys), ticks_of(xs + ys)) if diagonal else (ticks_of(xs), ticks_of(ys))
    x0, x1 = svgplot.MARGIN["left"], svgplot.WIDTH - svgplot.MARGIN["right"]
    y0, y1 = svgplot.HEIGHT - svgplot.MARGIN["bottom"], svgplot.MARGIN["top"]

    def sx(v):
        return x0 + (v - xticks[0]) / (xticks[-1] - xticks[0]) * (x1 - x0)

    def sy(v):
        return y0 + (v - yticks[0]) / (yticks[-1] - yticks[0]) * (y1 - y0)

    canvas = svgplot._Canvas(title, xlabel, ylabel)
    canvas.parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#333333"/>'
    )
    for xtick, ytick in zip_longest(xticks, yticks):
        if xtick is not None:
            canvas.parts.append(
                f'<line x1="{sx(xtick):.1f}" y1="{y0}" x2="{sx(xtick):.1f}" y2="{y0 + 5}" stroke="#333333"/>'
            )
            canvas.parts.append(f'<text x="{sx(xtick):.1f}" y="{y0 + 18}" text-anchor="middle" '
                                f'font-size="10">{svgplot._fmt(xtick)}</text>')
        if ytick is not None:
            canvas.parts.append(
                f'<line x1="{x0 - 5}" y1="{sy(ytick):.1f}" x2="{x0}" y2="{sy(ytick):.1f}" stroke="#333333"/>'
            )
            canvas.parts.append(f'<text x="{x0 - 8}" y="{sy(ytick) + 3:.1f}" text-anchor="end" '
                                f'font-size="10">{svgplot._fmt(ytick)}</text>')
    if diagonal:
        canvas.parts.append(
            f'<line x1="{sx(xticks[0]):.1f}" y1="{sy(yticks[0]):.1f}" x2="{sx(xticks[-1]):.1f}" '
            f'y2="{sy(yticks[-1]):.1f}" stroke="#999999" stroke-dasharray="6 4"/>'
        )
    for i, (label, pts) in enumerate(series):
        color = svgplot.PALETTE[i % len(svgplot.PALETTE)]
        for x, y in pts:
            canvas.parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="{color}" fill-opacity="0.65"/>'
            )
        ly = svgplot.MARGIN["top"] + 16 * i + 8
        canvas.parts.append(f'<circle cx="{x1 + 16}" cy="{ly}" r="4" fill="{color}"/>')
        canvas.parts.append(f'<text x="{x1 + 26}" y="{ly + 4}" font-size="11">{escape(label)}</text>')
    return canvas.finish()


_X_LEFT, _X_RIGHT = svgplot.MARGIN["left"], svgplot.WIDTH - svgplot.MARGIN["right"]
_Y_BOTTOM, _Y_TOP = svgplot.HEIGHT - svgplot.MARGIN["bottom"], svgplot.MARGIN["top"]


def _points(svg) -> list[tuple[float, float]]:
    """The centres of a chart's data circles (the legend's are larger)."""
    return [(float(x), float(y)) for x, y in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)" r="3.5"', svg)]


def _outside_the_frame(svg) -> list[tuple[float, float]]:
    return [(x, y) for x, y in _points(svg) if not (_X_LEFT <= x <= _X_RIGHT and _Y_TOP <= y <= _Y_BOTTOM)]


def _scores_table():
    names = ("batch_size", "in_channels", "log_batch_size", "macs")
    scores = [(-3.25, 2.5), (1e-300, 5e-324), (1.0, 0.0), (0.1 + 0.2, 1e22),
              (-0.0, 7.0), (0.999999999999, 1.5e-17), (-1e-9, 123456789.125)]
    r2, mse = np.full(2 ** len(names), np.nan), np.full(2 ** len(names), np.nan)
    for mask in range(1, 2 ** len(names)):
        r2[mask], mse[mask] = scores[mask % len(scores)]
        r2[mask] *= mask
    return AblationTable(names, r2, mse)


@pytest.fixture(scope="module")
def linear_ablation():
    records = synth_records(LayerKind.LINEAR, 60, seed=8)
    return run_ablation(records, LayerKind.LINEAR, 2)


class TestAblationCsv:
    @pytest.mark.parametrize("table", ["scores", "linear"])
    def test_bytes_equal_csv_writer(self, tmp_path, table, linear_ablation):
        table = _scores_table() if table == "scores" else linear_ablation
        write_ablation_csv(tmp_path / "direct.csv", table)
        assert (tmp_path / "direct.csv").read_bytes() == _csv_writer_bytes(tmp_path / "oracle.csv", table)

    def test_no_rows_is_the_header(self, tmp_path):
        write_ablation_csv(tmp_path / "a.csv", AblationTable((), np.full(1, np.nan), np.full(1, np.nan)))
        assert (tmp_path / "a.csv").read_bytes() == b"mask,features,contains_mac,r2,mse\r\n"

    @pytest.mark.parametrize("kind, count, seed, split_seed, digest", [
        (LayerKind.LINEAR, 80, 4, 1, "893d285585e2d8468bd4b995323645c5fe2ee39c094e7e98b53c501bd1af9d14"),
        (LayerKind.CONV2D, 240, 7, 11, "43d54969e497ac828b7dd07362fc6e7893ce341444406699275de03242acc3dc"),
    ], ids=["linear", "conv2d"])
    def test_bytes_pinned(self, tmp_path, kind, count, seed, split_seed, digest):
        """The digests were taken from the per-mask row list that the table
        replaced, before ``run_ablation`` or ``write_ablation_csv`` changed."""
        table = run_ablation(synth_records(kind, count, seed), kind, split_seed)
        write_ablation_csv(tmp_path / "ablation.csv", table)
        assert hashlib.sha256((tmp_path / "ablation.csv").read_bytes()).hexdigest() == digest


class TestAblationSvg:
    @pytest.mark.parametrize("table", ["scores", "linear"])
    def test_equals_per_point_scatter(self, tmp_path, table, linear_ablation):
        table = _scores_table() if table == "scores" else linear_ablation
        path = tmp_path / "ablation.csv"
        write_ablation_csv(path, table)
        chart = ablation_chart(path)
        with open(path, newline="") as fh:
            cells = list(csv.DictReader(fh))
        expected = _old_scatter_svg(
            [("with MAC count", [(float(r["mask"]), float(r["r2"])) for r in cells if r["contains_mac"] == "1"]),
             ("without MAC count", [(float(r["mask"]), float(r["r2"])) for r in cells if r["contains_mac"] != "1"])],
            title="Feature-subset scores", xlabel="feature subset index", ylabel="test R^2", diagonal=False,
        )
        assert chart.svg == expected

    @pytest.mark.parametrize("table", ["scores", "linear"])
    def test_y_ticks_span_the_scores(self, tmp_path, table, linear_ablation):
        """The y axis is the R^2 axis alone: the subset index on x does not stretch it."""
        table = _scores_table() if table == "scores" else linear_ablation
        path = tmp_path / "ablation.csv"
        write_ablation_csv(path, table)
        svg = ablation_chart(path).svg
        r2 = table.r2[1:]
        y_labels = re.findall(r'text-anchor="end" font-size="10">([^<]*)</text>', svg)
        y_ticks = [float(label) for label in y_labels]
        assert y_ticks[0] <= min(float(r2.min()), 0.0) and float(r2.max()) <= y_ticks[-1]
        step = y_ticks[1] - y_ticks[0]
        assert y_ticks[-1] - step < float(r2.max())  # no tick past the one that covers the top score
        assert _outside_the_frame(svg) == []
        cy = [y for _, y in _points(svg)]
        assert max(cy) - min(cy) >= (_Y_BOTTOM - _Y_TOP) / 2  # the scores spread over the plot

    def test_scatter_of_pairs_equals_per_point_scatter(self):
        series = [("a", [(0.5, 0.25), (3.0, -1.75), (1e-3, 2.0)]), ("b", [(7.0, 6.5)]), ("empty", [])]
        args = ("t", "x", "y")
        assert svgplot.scatter_svg(series, *args) == _old_scatter_svg(series, *args)
        assert svgplot.scatter_svg([], *args) == _old_scatter_svg([], *args)


_ENDS = st.floats(-1e300, 1e300)


@st.composite
def _tick_ranges(draw):
    """Finite ``lo <= hi``: any two ends, one end twice, an end and the next
    float (one ulp), or the range ``scatter_svg`` passes, from 0 or below."""
    a, b = draw(_ENDS), draw(_ENDS)
    form = draw(st.sampled_from(["pair", "equal", "ulp", "scatter"]))
    if form == "equal":
        return a, a
    if form == "ulp":
        return a, math.nextafter(a, math.inf)
    return (min(a, b, 0.0) if form == "scatter" else min(a, b)), max(a, b)


class TestTicks:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_tick_ranges())
    def test_at_most_seven_ticks_cover_the_range(self, ends):
        """Past ``lo`` and ``hi`` by at most the rounding of ``k * step``, a
        few float spacings of the larger end."""
        lo, hi = ends
        ticks = svgplot.covering_ticks(lo, hi)
        assert len(ticks) <= 7
        assert ticks == sorted(ticks) and ticks[-1] > ticks[0]
        slack = 4 * math.ulp(max(-lo, hi))
        assert ticks[0] <= lo + slack and hi - slack <= ticks[-1]

    def test_fraction_axis_is_quarters(self):
        assert svgplot.covering_ticks(0.0, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_diagonal_scatter_keeps_every_point_in_the_frame(self):
        """The top tick covers 1.1; a top tick of 1.0 would put (1.1, 1.05) past the frame."""
        svg = svgplot.scatter_svg([("a", [(0.0, 0.0), (1.1, 1.05)])], "t", "x", "y")
        assert len(_points(svg)) == 2 and _outside_the_frame(svg) == []

    def test_charts_of_a_span_under_one_float_spacing_finish(self, tmp_path):
        """-1e16 and -1e16 + 2 are one float apart: a quarter of their span is
        a step that adds nothing to -1e16. The charts are drawn in a child
        process, so a tick loop that never ends fails here instead of
        filling memory."""
        low, high = repr(-1e16), repr(-1e16 + 2)
        layers, ablation = tmp_path / "layers.csv", tmp_path / "ablation.csv"
        layers.write_text(",".join(LAYER_SCATTER_HEADER) + f"\nvgg11,1,0,Conv2d,{low},{high}\n"
                          f"vgg11,1,1,Conv2d,{high},{low}\n")
        ablation.write_text(",".join(ABLATION_HEADER) + f"\n1,macs,1,{low},0.5\n2,batch_size,0,{high},0.5\n")
        child = run_child(
            "import json, sys\n"
            "from joulecast.report import ablation_chart, layer_charts\n"
            "charts = layer_charts(sys.argv[1]) + [ablation_chart(sys.argv[2])]\n"
            "print(json.dumps({chart.name: chart.svg for chart in charts}))\n",
            str(layers), str(ablation),
        )
        assert child.returncode == 0, child.stderr
        charts = json.loads(child.stdout)
        assert list(charts) == ["scatter_conv2d.svg", "contribution_bars.svg", "ablation_scatter.svg"]
        for name in ("scatter_conv2d.svg", "ablation_scatter.svg"):
            assert len(_points(charts[name])) == 2 and _outside_the_frame(charts[name]) == []


class TestMalformedNumbers:
    def test_contribution_reader_names_path_and_row(self, tmp_path):
        path = tmp_path / "layers.csv"
        path.write_text(",".join(LAYER_SCATTER_HEADER) + "\nvgg11,1,0,Conv2d,0.5,0.4\nvgg11,1,1,ReLU,oops,0.1\n")
        with pytest.raises(ParseError, match=r"layers\.csv: row 3: measured_j 'oops' is not a number"):
            layer_charts(path)

    def test_short_row_names_path_and_row(self, tmp_path):
        path = tmp_path / "ablation.csv"
        path.write_text(",".join(ABLATION_HEADER) + "\n1,macs,1,0.5,0.1\n2,batch_size\n")
        with pytest.raises(ParseError, match=r"ablation\.csv: row 3: "):
            ablation_chart(path)
