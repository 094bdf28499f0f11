"""Minimal deterministic SVG line plots for the CSV artifacts.

Hand-rolled on purpose: identical input bytes must yield identical output
bytes (no timestamps, no library version strings, no font probing), and
the figures are static curve displays that need no interactivity.  A
CSV's columns are read into float arrays and each polyline is written a
chunk of points at a time, so rendering a long separatrix holds 8 bytes a
coordinate and no string of the whole figure.
"""

import math
from array import array

from .cache import atomic_write

__all__ = ["render_csv", "render_series"]

_W, _H = 900, 620
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_POINTS = 4096      # polyline points formatted and written at a time


def _fmt(v):
    return f"{v:.6g}"


def _ticks(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def render_series(series, path, xlabel="x", ylabel="y", title=""):
    """series: list of (label, xs, ys) drawn in order with a fixed palette;
    xs and ys are sequences of floats (lists or arrays).  Raises ValueError,
    before path is touched, when there is nothing to plot or a coordinate
    is not finite."""
    if not any(len(xs) for _, xs, _ in series):
        raise ValueError("render_series: nothing to plot")
    for _, xs, ys in series:
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            raise ValueError("render_series: a coordinate is not finite")
    x_lo = min(min(xs) for _, xs, _ in series if len(xs))
    x_hi = max(max(xs) for _, xs, _ in series if len(xs))
    y_lo = min(min(ys) for _, _, ys in series if len(ys))
    y_hi = max(max(ys) for _, _, ys in series if len(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 20}" '
                     f'font-family="monospace" font-size="12" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py)}" '
                     f'font-family="monospace" font-size="12" '
                     f'text-anchor="end" dominant-baseline="middle">{_fmt(t)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                 f'font-family="monospace" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" '
                 f'font-family="monospace" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>')
    if title:
        parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="15" '
                     f'font-family="monospace" font-size="13" '
                     f'text-anchor="middle">{title}</text>')

    def points(xs, ys):
        # the polyline's "x,y" pairs, space-separated, _POINTS at a time
        for i in range(0, min(len(xs), len(ys)), _POINTS):
            text = " ".join([f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y
                             in zip(xs[i:i + _POINTS], ys[i:i + _POINTS])])
            yield " " + text if i else text

    def chunks():
        yield "\n".join(parts) + "\n"
        for i, (label, xs, ys) in enumerate(series):
            color = _COLORS[i % len(_COLORS)]
            yield '<polyline points="'
            yield from points(xs, ys)
            yield f'" fill="none" stroke="{color}" stroke-width="1"/>\n'
            if label:
                yield (f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 15 * i}" '
                       f'font-family="monospace" font-size="12" '
                       f'text-anchor="end" fill="{color}">{label}</text>\n')
        yield "</svg>\n"
    atomic_write(path, chunks())
    return path


def read_curve_csv(path):
    """Parse a package CSV: '# key=value' header, column-name line, rows.
    Returns (meta, cols, xs, ys), xs and ys as float arrays, array('d')."""
    meta = {}
    xs = array("d")
    ys = array("d")
    cols = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for piece in line[1:].split(","):
                    if "=" in piece:
                        k, v = piece.split("=", 1)
                        meta[k.strip()] = v.strip()
                continue
            if cols is None and any(c.isalpha() for c in line.split(",")[0]):
                cols = line.split(",")
                continue
            x, y = line.split(",")[:2]   # ValueError on a one-field row
            xs.append(float(x))
            ys.append(float(y))
    if cols is None:
        cols = ["x", "y"]
    return meta, cols, xs, ys


def render_csv(csv_path, svg_path, overlay=None):
    """Render a package CSV to SVG; overlay is an optional second
    (label, xs, ys) series (e.g. a limit curve)."""
    meta, cols, xs, ys = read_curve_csv(csv_path)
    label = meta.get("model", "")
    n = meta.get("n")
    if n and n != "-":
        label += f" n={n}"
    series = [(label, xs, ys)]
    if overlay is not None:
        series.append(overlay)
    return render_series(series, svg_path, xlabel=cols[0], ylabel=cols[1])
