"""Minimal SVG line/scatter plots, dependency-free.

Good enough for outage-vs-density curves and phase maps; plotting is a pure
view of data already written to CSV.  Every curve plot has a log10 y axis
with decade ticks, so points with y <= 0 are left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


@dataclass
class Series:
    x: list
    y: list
    label: str
    style: str = "line"  # "line" | "dots"
    yerr: list | None = None


@dataclass
class Figure:
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def add(self, *args, **kwargs):
        self.series.append(Series(*args, **kwargs))

    def write(self, path):
        svg = self.render()
        with open(path, "w") as fh:
            fh.write(svg)

    def render(self) -> str:
        pts = [(x, y) for s in self.series for x, y in zip(s.x, s.y) if y > 0]
        empty = not pts
        if empty:
            # No plottable point (no positive y on the log axis): draw the
            # frame and title over a unit range, without ticks.
            pts = [(0.0, 1.0)]
        xs = [p[0] for p in pts]
        ys = [math.log10(p[1]) for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        pad = 0.05
        x0, x1 = x0 - pad * (x1 - x0), x1 + pad * (x1 - x0)
        y0, y1 = y0 - pad * (y1 - y0), y1 + pad * (y1 - y0)

        def px(x):
            return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

        def py(y):
            return HEIGHT - MARGIN_B - (math.log10(y) - y0) / (y1 - y0) * (
                HEIGHT - MARGIN_T - MARGIN_B
            )

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#333"/>',
        ]
        if not empty:
            out += self._x_ticks(x0, x1, px)
            out += self._y_ticks(y0, y1, py)
        out.append(
            f'<text x="{WIDTH / 2}" y="{MARGIN_T - 10}" text-anchor="middle" '
            f'font-size="14">{self.title}</text>'
        )
        out += _axis_labels(self.x_label, self.y_label)
        for i, s in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            keep = [(x, y, e) for x, y, e in zip(s.x, s.y, s.yerr or [0.0] * len(s.x)) if y > 0]
            if not keep:
                continue
            if s.style == "line":
                path = " ".join(
                    f"{'M' if k == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
                    for k, (x, y, _) in enumerate(keep)
                )
                out.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            else:
                for x, y, e in keep:
                    out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
                    if e:
                        # Clipped to the frame; a lower end at or below 0 is
                        # off the log axis, so the bar runs to the frame's foot.
                        foot = HEIGHT - MARGIN_B
                        lo = min(py(y - e), foot) if y > e else foot
                        hi = max(py(y + e), MARGIN_T)
                        out.append(
                            f'<line x1="{px(x):.2f}" y1="{lo:.2f}" x2="{px(x):.2f}" '
                            f'y2="{hi:.2f}" stroke="{color}" stroke-width="1"/>'
                        )
            ly = MARGIN_T + 16 + 16 * i
            out.append(
                f'<line x1="{WIDTH - 170}" y1="{ly - 4}" x2="{WIDTH - 150}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<text x="{WIDTH - 144}" y="{ly}">{s.label}</text>')
        out.append("</svg>")
        return "\n".join(out)

    def _x_ticks(self, x0, x1, px):
        out = []
        step = _nice_step(x1 - x0)
        t = math.ceil(x0 / step) * step
        while t <= x1 + 1e-12:
            out.append(
                f'<line x1="{px(t):.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px(t):.1f}" '
                f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{px(t):.1f}" y="{HEIGHT - MARGIN_B + 18}" '
                f'text-anchor="middle">{t:g}</text>'
            )
            t += step
        return out

    def _y_ticks(self, y0, y1, py):
        out = []
        for k in range(math.floor(y0), math.ceil(y1) + 1):
            yy = py(10.0**k)
            if not MARGIN_T <= yy <= HEIGHT - MARGIN_B:
                continue
            out.append(
                f'<line x1="{MARGIN_L - 5}" y1="{yy:.1f}" x2="{MARGIN_L}" y2="{yy:.1f}" stroke="#333"/>'
            )
            out.append(f'<text x="{MARGIN_L - 8}" y="{yy + 4:.1f}" text-anchor="end">1e{k}</text>')
        return out


def _axis_labels(x_label, y_label):
    return [
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2})">{y_label}</text>',
    ]


def _nice_step(span):
    raw = span / 6.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            return m * mag
    return 10.0 * mag


def phase_map_svg(cells, path):
    """Colored grid of dominant-component labels over (rho, L)."""
    colors = {"bulk": "#1f77b4", "face": "#d62728", "edge": "#2ca02c", "corner": "#e7c800"}
    rhos = sorted({c[0] for c in cells})
    ls = sorted({c[1] for c in cells})
    nx, ny = len(rhos), len(ls)
    cw = (WIDTH - MARGIN_L - MARGIN_R) / nx
    ch = (HEIGHT - MARGIN_T - MARGIN_B) / ny
    xi = {r: i for i, r in enumerate(rhos)}
    yi = {l: i for i, l in enumerate(ls)}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for rho, L, label in cells:
        x = MARGIN_L + xi[rho] * cw
        y = HEIGHT - MARGIN_B - (yi[L] + 1) * ch
        out.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
            f'fill="{colors[label]}"/>'
        )
    for i, (label, color) in enumerate(colors.items()):
        ly = MARGIN_T + 16 * (i + 1)
        out.append(f'<rect x="{WIDTH - 150}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        out.append(f'<text x="{WIDTH - 132}" y="{ly}">{label}</text>')
    out += _axis_labels("node density", "L")
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
