"""Minimal standalone SVG line plots (fixed 800x500, no external assets).

Convergence curves span many decades, so the y axis is logarithmic,
with values clipped to [1e-16, 1e308] (NaN and infinity at the top).
A document is rendered as pieces, so a plot of long series is written
to its file without ever being held whole.  These figures are
inspection aids, not a plotting library.
"""

import numpy as np

__all__ = ["line_plot"]

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 42, 52

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_FLOOR, _CEILING = 1e-16, 1e308

# polyline points formatted per call
CHUNK = 4096

# most ticks on the time axis
X_TICKS = 8


def _linear_ticks(lo, hi):
    raw = (hi - lo) / (X_TICKS - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if (hi - lo) / step <= X_TICKS - 1 + 1e-9:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return ticks[(ticks >= lo - 1e-12) & (ticks <= hi + 1e-12)]


def _fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        # as many mantissa digits as the tick has, so 1.5e+04 is not 2e+04
        mantissa, exponent = f"{v:.12e}".split("e")
        return mantissa.rstrip("0").rstrip(".") + "e" + exponent
    return f"{v:g}"


def _points(xs, ys):
    """Polyline points ``"x0,y0 x1,y1 ..."`` to two decimals, in one format call."""
    flat = [0.0] * (2 * len(xs))
    flat[::2], flat[1::2] = xs, ys
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(flat)


def _log_abs(s):
    """log10 |s| clipped to the axis range; NaN and infinity go to the ceiling."""
    return np.log10(np.maximum(np.fmin(np.abs(s), _CEILING), _FLOOR))


def _render(times, series, labels, title, y_label):
    """Yield the SVG document in pieces, each polyline CHUNK points at a time."""
    chunks = [slice(i, i + CHUNK) for i in range(0, len(times), CHUNK)]
    x_lo, x_hi = float(times[0]), float(times[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    y_lo = np.floor(min(float(np.min(_log_abs(s[c]))) for s in series for c in chunks))
    y_hi = np.ceil(max(float(np.max(_log_abs(s[c]))) for s in series for c in chunks))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(t):
        return MARGIN_L + pw * (t - x_lo) / (x_hi - x_lo)

    def py(v):
        return MARGIN_T + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>\n'
    )

    step = max(1, int(round((y_hi - y_lo) / 6)))
    for v in np.arange(y_lo, y_hi + 0.5, step):
        yy = py(v)
        yield (
            f'<line x1="{MARGIN_L}" y1="{yy:.2f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{yy:.2f}" stroke="#dddddd" stroke-width="1"/>\n'
            f'<text x="{MARGIN_L - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{int(v)}</text>\n'
        )
    for t in _linear_ticks(x_lo, x_hi):
        xx = px(t)
        yield (
            f'<line x1="{xx:.2f}" y1="{MARGIN_T}" x2="{xx:.2f}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#eeeeee" stroke-width="1"/>\n'
            f'<text x="{xx:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>\n'
        )

    yield (
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>\n'
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t [s]</text>\n'
        f'<text x="20" y="{MARGIN_T + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_T + ph / 2:.0f})">{y_label}</text>\n'
    )

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        yield '<polyline points="'
        for c in chunks:
            yield ("" if c.start == 0 else " ") + _points(
                px(times[c]).tolist(), py(_log_abs(s[c])).tolist())
        lx = WIDTH - MARGIN_R - 150
        ly = MARGIN_T + 16 + 18 * k
        yield (
            f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>\n'
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{labels[k]}</text>\n'
        )

    yield "</svg>\n"


def line_plot(times, series, labels, title, y_label, path):
    """Write one plot with a polyline per series to ``path``, piece by piece.

    ``series`` is a list of 1-D arrays over the shared ``times`` axis.
    """
    pieces = _render(np.asarray(times, dtype=float),
                     [np.asarray(s, dtype=float) for s in series],
                     labels, title, y_label)
    with open(path, "w") as fh:
        fh.writelines(pieces)
