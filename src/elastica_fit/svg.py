"""Minimal SVG 1.1 writer for curve overlay plots.

Emits only <path> elements with stroke attributes.  The viewBox is the joint
bounding box of all drawn polylines with a 5% margin; the y axis is flipped
so plots appear in the usual mathematical orientation.
"""

from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError

#: (stroke, width-fraction, dasharray or None) defaults for overlay layers
LAYER_STYLES = {
    "target": ("#222222", 0.004, None),
    "guess": ("#4477cc", 0.003, "4 3"),
    "fit": ("#cc3333", 0.003, None),
}


def _path_data(points: np.ndarray) -> str:
    cmds = [f"M {points[0, 0]:.8g} {-points[0, 1]:.8g}"]
    cmds.extend(f"L {x:.8g} {-y:.8g}" for x, y in points[1:])
    return " ".join(cmds)


def render_svg(layers: Sequence[Tuple[np.ndarray, str]]) -> str:
    """Render polyline layers (points, style-name) to an SVG document."""
    if not layers:
        raise DomainError("nothing to draw")
    pts = np.vstack([np.asarray(p, dtype=float) for p, _ in layers])
    if not np.all(np.isfinite(pts)):
        raise DomainError("non-finite point in SVG layer")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    # each side floored relative to the larger: absolute only for one point
    span = np.maximum(hi - lo, 1e-9 * (float(np.max(hi - lo)) or 1.0))
    margin = 0.05 * float(span.max())
    x0, y0 = lo[0] - margin, -(hi[1] + margin)
    wdt = span[0] + 2 * margin
    hgt = span[1] + 2 * margin
    scale = max(wdt, hgt)

    body: List[str] = []
    for points, style in layers:
        stroke, wfrac, dash = LAYER_STYLES[style]
        attrs = (f'fill="none" stroke="{stroke}" '
                 f'stroke-width="{wfrac * scale:.8g}"')
        if dash is not None:
            attrs += f' stroke-dasharray="{dash}"'
        body.append(f'<path d="{_path_data(np.asarray(points, float))}" '
                    f'{attrs}/>')
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0:.8g} {y0:.8g} {wdt:.8g} {hgt:.8g}">\n'
        + "\n".join(body) + "\n</svg>\n")


def write_svg(path: str, layers: Sequence[Tuple[np.ndarray, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(layers))
