"""Frozen full-raster reference build of a town's ground texture.

A test-only copy of how :class:`~repro.sim.render.TownTexture` used to
build its rasters: every texel centre of the whole raster goes through
:meth:`Town.classify_points` (one full pass per road and per junction),
and each marking stripe is resampled through scalar
:meth:`Polyline.point_at` calls and stamped one square at a time.  It
is the oracle the windowed production build must match byte for byte,
and the baseline the scene-build benchmark times it against.  Do not
optimise it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.render import SURFACE_COLORS
from repro.sim.town import Town


def reference_texture(
    town: Town, resolution: float = 0.25, margin: float = 12.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(texture, classes)`` rasters exactly as the full-raster build made them."""
    xmin, ymin, xmax, ymax = town.bounds
    x0 = xmin - margin
    y0 = ymin - margin
    nx = int(math.ceil((xmax - xmin + 2 * margin) / resolution))
    ny = int(math.ceil((ymax - ymin + 2 * margin) / resolution))
    xs = x0 + (np.arange(nx) + 0.5) * resolution
    ys = y0 + (np.arange(ny) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    classes = town.classify_points(pts).reshape(ny, nx)
    tex = np.zeros((ny, nx, 3), dtype=np.uint8)
    for cls, color in SURFACE_COLORS.items():
        tex[classes == cls] = color
    for stripe in town.markings():
        line = stripe.polyline
        n = max(2, int(math.ceil(line.length / (resolution * 0.75))) + 1)
        pts_s = [line.point_at(float(s)) for s in np.linspace(0.0, line.length, n)]
        half_w_tex = max(1, int(round(stripe.width / 2.0 / resolution)))
        for p in pts_s:
            row = int((p.y - y0) / resolution)
            col = int((p.x - x0) / resolution)
            r0 = max(0, row - half_w_tex + 1)
            r1 = min(ny, row + half_w_tex)
            c0 = max(0, col - half_w_tex + 1)
            c1 = min(nx, col + half_w_tex)
            if r0 < r1 and c0 < c1:
                tex[r0:r1, c0:c1] = stripe.color
    for b in town.buildings:
        corners = b.box.corners()
        bxs = [c.x for c in corners]
        bys = [c.y for c in corners]
        c0 = max(0, int((min(bxs) - x0) / resolution))
        c1 = min(nx, int((max(bxs) - x0) / resolution) + 1)
        r0 = max(0, int((min(bys) - y0) / resolution))
        r1 = min(ny, int((max(bys) - y0) / resolution) + 1)
        if r0 < r1 and c0 < c1:
            tex[r0:r1, c0:c1] = tuple(int(ch * 0.55) for ch in b.color)
    return tex, classes
