"""Deterministic SVG rendering of rank-2 arrangements: one clipped line per
wall, stroke width proportional to multiplicity, labels carrying (normal,
multiplicity). Coordinates are computed exactly and quantized to fixed
decimals, so identical input yields byte-identical output."""

from fractions import Fraction

from .arrangement import ArrangementSpec
from .errors import UnsupportedDimension

CANVAS = 600
PAD = 40


def _fmt(px):
    q = round(px * 1000)
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 1000}.{q % 1000:03d}"


def _clip_line(normal, offset, window):
    """Endpoints of {a x + b y = c} clipped to the window, or None."""
    a, b = normal
    c = offset
    xmin, xmax, ymin, ymax = window
    points = []
    if b != 0:
        for x in (xmin, xmax):
            y = Fraction(c - a * x, b)
            if ymin <= y <= ymax:
                points.append((x, y))
    if a != 0:
        for y in (ymin, ymax):
            x = Fraction(c - b * y, a)
            if xmin <= x <= xmax:
                points.append((x, y))
    points = sorted(set(points))
    if len(points) < 2:
        return None
    return points[0], points[-1]


def plot_arrangement(arr: ArrangementSpec, window=None) -> str:
    """SVG document for a 2-dimensional arrangement clipped to the window
    (xmin, xmax, ymin, ymax); raises UnsupportedDimension otherwise."""
    if arr.n != 2:
        raise UnsupportedDimension(f"plotting needs n = 2, got n = {arr.n}")
    if window is None:
        window = (Fraction(-5), Fraction(5), Fraction(-5), Fraction(5))
    window = tuple(Fraction(x) for x in window)
    xmin, xmax, ymin, ymax = window
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("window must be a nonempty box")

    span = CANVAS - 2 * PAD

    def to_px(x, y):
        px = PAD + (x - xmin) * span / (xmax - xmin)
        py = PAD + (ymax - y) * span / (ymax - ymin)
        return px, py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="{PAD}" y="{PAD}" width="{span}" height="{span}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for comp in arr.components:
        seg = _clip_line(comp.hyperplane.normal, comp.hyperplane.offset, window)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        p1 = to_px(x1, y1)
        p2 = to_px(x2, y2)
        lines.append(
            f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" '
            f'x2="{_fmt(p2[0])}" y2="{_fmt(p2[1])}" '
            f'stroke="black" stroke-width="{comp.multiplicity}"/>'
        )
        lx = (p1[0] * 3 + p2[0]) / 4
        ly = (p1[1] * 3 + p2[1]) / 4
        label = f"b=({comp.hyperplane.normal[0]},{comp.hyperplane.normal[1]}), m={comp.multiplicity}"
        lines.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" fill="#333">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
