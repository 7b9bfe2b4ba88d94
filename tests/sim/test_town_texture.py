"""Byte-identity pins for the cold :class:`~repro.sim.render.TownTexture` build.

The texture and surface-class rasters feed every camera frame, so any
change to how they are built must leave every byte in place.  The
SHA-256 digests below were captured from the full-raster build (every
texel centre through :meth:`Town.classify_points`, markings stamped one
resampled point at a time) and cover the default town, a building-free
grid, two procedural towns and a non-power-of-two resolution.

The property tests compare the windowed build against the frozen
full-raster reference in ``texture_reference.py`` on generated towns,
and on a hand-built town with diagonal roads: every generated road is
axis-aligned, so only a rotated one shows a window cut too small.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from texture_reference import reference_texture

from repro.sim.geometry import Polyline, Vec2
from repro.sim.render import TownTexture
from repro.sim.town import (
    GridTownConfig,
    Intersection,
    ProceduralTownConfig,
    Road,
    Town,
    build_town,
)

#: (config, resolution) -> (texture sha256, classes sha256).
TEXTURE_DIGESTS = [
    (
        GridTownConfig(),
        0.25,
        "abca120048d28b00bcaf469468431e7b76093e21013e50b811ba952c33c78a2b",
        "b6e4bf5ac8ea316c585453bb1d1419f4a58e046f593ecd8578eaf203fff70475",
    ),
    (
        GridTownConfig(rows=2, cols=3, with_buildings=False),
        0.25,
        "e3b74d80085dc94a67d3f676e0d08c8d2d59b4ca0a38b7b0f134c29480b7d2b8",
        "0962b564efc631ad994383f5003b00fe6c49915419b042c217cf13d458f063f8",
    ),
    (
        ProceduralTownConfig(rows=3, cols=3, seed=5),
        0.25,
        "8b87da9c0e4c8d31b3a8c9e2d6522faebd1883588a0a8d6a0011c16c48fa662d",
        "71fc76fb077ef083f80eec545d1d32714524e27b1641df6bf0fd31d61b7bf2d6",
    ),
    (
        ProceduralTownConfig(rows=4, cols=5, seed=2),
        0.25,
        "ad04f3857b4fcaad21601c4a3f5282e45558e8ed394483ae8a21a22fc88e91c4",
        "0cf152d460b8ffa39479647b21c9e30b34fa49b6dfcfebed030fab1680f451d8",
    ),
    (
        # 0.3 m is not a power of two: texel lookups take the division path.
        GridTownConfig(),
        0.3,
        "1f4c79ba35b6ea7f557f6029aab6730aad1346ed4dbdc0738a21a2ed228457cf",
        "eab6a89be99596f3c349190e8bcb4255c01f7e28628cc661c63372d9ba00ef2a",
    ),
]


@pytest.mark.parametrize(
    "config,resolution,texture_sha,classes_sha",
    TEXTURE_DIGESTS,
    ids=["grid-default", "grid-2x3-bare", "proc-3x3-s5", "proc-4x5-s2", "grid-default-r0.3"],
)
def test_texture_digests_pinned(config, resolution, texture_sha, classes_sha):
    tex = TownTexture(build_town(config), resolution)
    assert hashlib.sha256(tex.texture.tobytes()).hexdigest() == texture_sha
    assert hashlib.sha256(tex.classes.tobytes()).hexdigest() == classes_sha


@st.composite
def procedural_configs(draw):
    rows, cols = draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (2, 4), (3, 4)]))
    return ProceduralTownConfig(
        rows=rows,
        cols=cols,
        block_size=draw(st.floats(22.0, 60.0)),
        sidewalk_width=draw(st.floats(0.5, 3.0)),
        seed=draw(st.integers(0, 10_000)),
    )


@given(
    config=procedural_configs(),
    resolution=st.sampled_from([0.25, 0.3, 0.5]),
    crop=st.tuples(*[st.floats(0.0, 0.45)] * 4),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_windowed_build_matches_full_raster_reference(config, resolution, crop):
    town = build_town(config)
    ref_tex, ref_classes = reference_texture(town, resolution)
    tex = TownTexture(town, resolution)
    assert np.array_equal(tex.classes, ref_classes)
    assert np.array_equal(tex.texture, ref_tex)
    # A cropped grid cuts through roads and junctions at its margin.
    ny, nx = ref_classes.shape
    r0, r1 = int(crop[0] * ny), ny - int(crop[1] * ny)
    c0, c1 = int(crop[2] * nx), nx - int(crop[3] * nx)
    xs = tex.x0 + (np.arange(c0, c1) + 0.5) * resolution
    ys = tex.y0 + (np.arange(r0, r1) + 0.5) * resolution
    assert np.array_equal(town.classify_grid(xs, ys), ref_classes[r0:r1, c0:c1])


def _diagonal_town() -> Town:
    """Three junctions joined by a 30-degree road and a 117-degree road."""
    lane_width, sidewalk, half = 3.5, 2.0, 7.0
    centers = {
        0: Vec2(0.0, 0.0),
        1: Vec2(60.0 * math.cos(math.radians(30.0)), 60.0 * math.sin(math.radians(30.0))),
    }
    centers[2] = centers[1] + Vec2.from_heading(math.radians(117.0), 45.0)
    inters = {i: Intersection(i, c, half) for i, c in centers.items()}
    roads = {}
    for rid, (a, b) in enumerate([(0, 1), (1, 2)]):
        d = (centers[b] - centers[a]).normalized()
        line = Polyline([centers[a] + d * half, centers[b] - d * half])
        roads[rid] = Road(rid, a, b, line, lane_width, sidewalk)
        inters[a].road_ids.append(rid)
        inters[b].road_ids.append(rid)
    return Town(inters, roads, lane_width, sidewalk, name="diagonal")


@pytest.mark.parametrize("resolution", [0.075, 0.25, 0.3, 0.5])
@pytest.mark.parametrize("margin", [0.0, 12.0])
def test_diagonal_roads_match_full_raster_reference(resolution, margin):
    # margin 0 puts the outer junctions' curbs on the raster edge; at
    # 0.075 m the centre stripe stamps 3x3-texel squares instead of single
    # texels.
    town = _diagonal_town()
    ref_tex, ref_classes = reference_texture(town, resolution, margin)
    tex = TownTexture(town, resolution, margin)
    assert np.array_equal(tex.classes, ref_classes)
    assert np.array_equal(tex.texture, ref_tex)


def test_classify_grid_rejects_unsorted_axes():
    town = _diagonal_town()
    with pytest.raises(ValueError):
        town.classify_grid(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
