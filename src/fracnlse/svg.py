"""Minimal deterministic SVG line plots.

Plots are generated in-process as pure functions of their inputs (no
timestamps, no environment lookups), so regenerating a plot from the same
data yields byte-identical output.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 640, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 75, 20, 40, 55


def _fmt(x: float) -> str:
    return "%.6g" % x


def _px(x: float) -> str:
    return "%.2f" % x


def _span(values, log: bool = False):
    lo = min(values)
    hi = max(values)
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    pad = (max(abs(hi), 1.0) if hi - lo < 1e-300 else hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo, hi):
    return [lo + i * (hi - lo) / 4 for i in range(5)]


class _Frame:
    def __init__(self, xs, ys, logx=False, logy=False):
        self.logx, self.logy = logx, logy
        self.x0, self.x1 = _span(xs, logx)
        self.y0, self.y1 = _span(ys, logy)

    def px(self, t):
        """Pixel column of axis coordinate t (log10 of the value on a log axis)."""
        return _LEFT + (t - self.x0) / (self.x1 - self.x0) * (_WIDTH - _LEFT - _RIGHT)

    def py(self, t):
        return _HEIGHT - _BOTTOM - (t - self.y0) / (self.y1 - self.y0) * (_HEIGHT - _TOP - _BOTTOM)

    def map_x(self, v):
        return self.px(math.log10(v) if self.logx else v)

    def map_y(self, v):
        return self.py(math.log10(v) if self.logy else v)


def _axes(frame, xlabel, ylabel, title):
    parts = []
    x_left, x_right = _LEFT, _WIDTH - _RIGHT
    y_top, y_bot = _TOP, _HEIGHT - _BOTTOM
    parts.append('<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="black"/>'
                 % (_px(x_left), _px(y_top), _px(x_right - x_left), _px(y_bot - y_top)))
    for t in _ticks(frame.x0, frame.x1):
        px = frame.px(t)
        label = _fmt(10.0 ** t) if frame.logx else _fmt(t)
        parts.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                     % (_px(px), _px(y_bot), _px(px), _px(y_bot + 5)))
        parts.append('<text x="%s" y="%s" font-size="11" text-anchor="middle">%s</text>'
                     % (_px(px), _px(y_bot + 18), label))
    for t in _ticks(frame.y0, frame.y1):
        py = frame.py(t)
        label = _fmt(10.0 ** t) if frame.logy else _fmt(t)
        parts.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                     % (_px(x_left - 5), _px(py), _px(x_left), _px(py)))
        parts.append('<text x="%s" y="%s" font-size="11" text-anchor="end">%s</text>'
                     % (_px(x_left - 8), _px(py + 4), label))
    parts.append('<text x="%s" y="%s" font-size="12" text-anchor="middle">%s</text>'
                 % (_px((x_left + x_right) / 2), _px(_HEIGHT - 15), xlabel))
    parts.append('<text x="15" y="%s" font-size="12" text-anchor="middle" '
                 'transform="rotate(-90 15 %s)">%s</text>'
                 % (_px((y_top + y_bot) / 2), _px((y_top + y_bot) / 2), ylabel))
    parts.append('<text x="%s" y="22" font-size="13" text-anchor="middle">%s</text>'
                 % (_px(_WIDTH / 2), title))
    return parts


def _polyline(frame, xs, ys, color, dash=None):
    pts = " ".join("%s,%s" % (_px(frame.map_x(x)), _px(frame.map_y(y)))
                   for x, y in zip(xs, ys))
    extra = ' stroke-dasharray="%s"' % dash if dash else ""
    return '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"%s/>' % (
        pts, color, extra)


def _document(parts) -> str:
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT))
    return head + "\n" + "\n".join(parts) + "\n</svg>\n"


def profile_svg(radii, values, title) -> str:
    """Polyline of field value against distance from the origin."""
    order = sorted(range(len(radii)), key=lambda i: (radii[i], i))
    xs = [radii[i] for i in order]
    ys = [values[i] for i in order]
    frame = _Frame(xs, ys)
    parts = _axes(frame, "|x|", "u", title)
    parts.append(_polyline(frame, xs, ys, "steelblue"))
    return _document(parts)


def loglog_svg(xs, ys, reference_slope, title) -> str:
    """Log-log data polyline with circles, plus a reference power-law line
    anchored at the first point unless reference_slope is None."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if not pairs:
        raise ValueError("log-log plot needs positive data")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    all_y = list(ys)
    ref = None
    if reference_slope is not None:
        ref = [(x, ys[0] * (x / xs[0]) ** reference_slope) for x in xs]
        all_y += [r[1] for r in ref]
    frame = _Frame(xs, all_y, logx=True, logy=True)
    parts = _axes(frame, "eta", "energy", title)
    if ref is not None:
        parts.append(_polyline(frame, [r[0] for r in ref], [r[1] for r in ref],
                               "gray", dash="6 4"))
        parts.append('<text x="%s" y="%s" font-size="11" fill="gray">reference slope %s</text>'
                     % (_px(_LEFT + 10), _px(_TOP + 14), _fmt(reference_slope)))
    parts.append(_polyline(frame, xs, ys, "firebrick"))
    for x, y in zip(xs, ys):
        parts.append('<circle cx="%s" cy="%s" r="3" fill="firebrick"/>'
                     % (_px(frame.map_x(x)), _px(frame.map_y(y))))
    return _document(parts)


def write_svg(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)
