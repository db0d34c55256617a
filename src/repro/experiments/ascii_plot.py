"""Terminal plotting: multi-series line charts and grouped bar charts.

Good enough to eyeball the *shape* of each reproduced figure (who wins,
where curves take off) straight from the benchmark output, with no
plotting dependency.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence

_MARKERS = "ox+*#@%&sd^v"


def _finite(values):
    return [v for v in values if v == v and not math.isinf(v)]


def line_chart(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 72,
    height: int = 20,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render ``{label: (xs, ys)}`` as an ASCII chart with a legend."""
    xs_all: list[float] = []
    ys_all: list[float] = []
    for xs, ys in series.values():
        if len(xs) != len(ys):
            raise ValueError("series xs and ys must have equal length")
        xs_all.extend(_finite(xs))
        ys_all.extend(_finite(y for x, y in zip(xs, ys) if x == x))
    if not xs_all or not ys_all:
        return f"{title}\n(no finite data)"
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for i, (label, (xs, ys)) in enumerate(series.items()):
        mark = _MARKERS[i % len(_MARKERS)]
        legend.append(f"  {mark} {label}")
        for x, y in zip(xs, ys):
            if x != x or y != y or math.isinf(y):
                continue
            col = round((x - x0) / (x1 - x0) * (width - 1))
            row = round((y - y0) / (y1 - y0) * (height - 1))
            grid[height - 1 - row][col] = mark

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y1:.4g}"
    bottom_label = f"{y0:.4g}"
    pad = max(len(top_label), len(bottom_label))
    for r, row in enumerate(grid):
        if r == 0:
            lead = top_label.rjust(pad)
        elif r == height - 1:
            lead = bottom_label.rjust(pad)
        else:
            lead = " " * pad
        lines.append(f"{lead} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    xl = f"{x0:.4g}".ljust(width // 2)
    xr = f"{x1:.4g}".rjust(width - len(xl))
    lines.append(" " * (pad + 2) + xl + xr)
    if xlabel or ylabel:
        lines.append(f"   x: {xlabel}    y: {ylabel}")
    lines.extend(legend)
    return "\n".join(lines)


def bar_chart(
    rows: Sequence[tuple[str, Mapping[str, float]]],
    *,
    width: int = 46,
    title: str = "",
    unit: str = "",
) -> str:
    """Render ``[(row_label, {bar_label: value})]`` as horizontal bars."""
    values = [
        v for _, bars in rows for v in bars.values() if v == v and not math.isinf(v)
    ]
    if not values:
        return f"{title}\n(no finite data)"
    vmax = max(values) or 1.0
    label_w = max(
        (len(f"{rl} {bl}") for rl, bars in rows for bl in bars), default=8
    )
    lines = [title] if title else []
    for row_label, bars in rows:
        for bar_label, value in bars.items():
            tag = f"{row_label} {bar_label}".ljust(label_w)
            if value != value:
                lines.append(f"{tag} | (nan)")
                continue
            n = round(value / vmax * width)
            lines.append(f"{tag} |{'#' * n}{' ' * (width - n)}| {value:.1f}{unit}")
    return "\n".join(lines)


def table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def series_figure(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    title: str,
    x_head: Callable[[float], str],
    cell: Callable[[float], str],
    chart: str,
    xlabel: str,
    ylabel: str,
    column: tuple[str, Callable[[Sequence[float]], str]] | None = None,
) -> str:
    """An ``algorithm`` x *xs* table of ``{label: ys}`` *series*, with an
    optional derived ``(header, ys -> text)`` *column*, above its line
    chart."""
    head = ["algorithm"] + [x_head(x) for x in xs]
    rows = [[label] + [cell(y) for y in ys] for label, ys in series.items()]
    if column is not None:
        head.append(column[0])
        for row, ys in zip(rows, series.values()):
            row.append(column[1](ys))
    return "\n\n".join([
        table(head, rows, title=title),
        line_chart(
            {label: (list(xs), ys) for label, ys in series.items()},
            title=chart, xlabel=xlabel, ylabel=ylabel,
        ),
    ])


def whole_or_dash(value: float) -> str:
    """A table cell for a mean that may be NaN (no message delivered)."""
    return f"{value:.0f}" if value == value else "-"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:
            return "nan"
        return f"{value:.4g}"
    return str(value)
