"""Minimal dependency-free SVG line charts for the figure commands.

Deliberately tiny: axes, ticks, polylines and a legend, with fixed-precision
coordinates so identical data always renders to identical bytes.
"""

from __future__ import annotations

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
WIDTH, HEIGHT = 640, 440  # pixels
TICKS = 5  # per axis


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (TICKS - 1) for i in range(TICKS)]


def line_chart(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render ``series = [(label, xs, ys), ...]`` as a ``WIDTH`` x ``HEIGHT`` SVG line chart."""
    if not series:
        raise ValueError("need at least one series")
    width, height = WIDTH, HEIGHT
    margin_l, margin_r, margin_t, margin_b = 62, 16, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("series contain no points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # axes
    out.append(
        f'<path d="M {margin_l} {margin_t} V {margin_t + plot_h} H {margin_l + plot_w}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(f'<line x1="{x:.2f}" y1="{margin_t + plot_h}" x2="{x:.2f}" '
                   f'y2="{margin_t + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{margin_t + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(f'<line x1="{margin_l - 5}" y1="{y:.2f}" x2="{margin_l}" y2="{y:.2f}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{margin_l - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{ty:.3g}</text>')
    if x_label:
        out.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>')
    if y_label:
        cx, cy = 16, margin_t + plot_h / 2
        out.append(f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 {cx} {cy:.1f})">{y_label}</text>')
    # data
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = margin_t + 14 + 16 * i
        lx = margin_l + plot_w - 130
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
