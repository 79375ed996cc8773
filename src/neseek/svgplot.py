"""Minimal standalone SVG line plots (fixed 800x500, no external assets).

Convergence curves span many decades, so the y axis is logarithmic,
with values clipped at 1e-16.  These figures are inspection
aids, not a plotting library.
"""

import numpy as np

__all__ = ["line_plot"]

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 42, 52

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_FLOOR = 1e-16


def _linear_ticks(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if (hi - lo) / step <= n - 1 + 1e-9:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return ticks[(ticks >= lo - 1e-12) & (ticks <= hi + 1e-12)]


def _fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _points(xs, ys):
    """Polyline points ``"x0,y0 x1,y1 ..."`` to two decimals, in one format call."""
    flat = [0.0] * (2 * len(xs))
    flat[::2], flat[1::2] = xs, ys
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(flat)


def line_plot(times, series, labels, title, y_label, path=None):
    """Render one plot with a polyline per series; returns the SVG text.

    ``series`` is a list of 1-D arrays over the shared ``times`` axis.
    With ``path`` given the document is also written to that file.
    """
    times = np.asarray(times, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    x_lo, x_hi = float(times[0]), float(times[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    ys = [np.log10(np.maximum(np.abs(s), _FLOOR)) for s in series]
    y_lo = np.floor(min(float(np.min(y)) for y in ys))
    y_hi = np.ceil(max(float(np.max(y)) for y in ys))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(t):
        return MARGIN_L + pw * (t - x_lo) / (x_hi - x_lo)

    def py(v):
        return MARGIN_T + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    step = max(1, int(round((y_hi - y_lo) / 6)))
    for v in np.arange(y_lo, y_hi + 0.5, step):
        yy = py(v)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{yy:.2f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{yy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{int(v)}</text>'
        )
    for t in _linear_ticks(x_lo, x_hi, 8):
        xx = px(t)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{MARGIN_T}" x2="{xx:.2f}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
        )

    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t [s]</text>'
    )
    parts.append(
        f'<text x="20" y="{MARGIN_T + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_T + ph / 2:.0f})">{y_label}</text>'
    )

    xs = px(times).tolist()
    for k, y in enumerate(ys):
        color = PALETTE[k % len(PALETTE)]
        pts = _points(xs, py(y).tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        lx = WIDTH - MARGIN_R - 150
        ly = MARGIN_T + 16 + 18 * k
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{labels[k]}</text>'
        )

    parts.append("</svg>")
    doc = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(doc)
    return doc
