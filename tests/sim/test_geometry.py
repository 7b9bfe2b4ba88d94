"""Unit tests for :mod:`repro.sim.geometry`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.geometry import (
    OrientedBox,
    Polyline,
    Transform,
    Vec2,
    angle_diff,
    batch_ray_hits,
    pack_boxes,
    point_segment_distance,
    project_on_segment,
    segments_intersect,
    wrap_angle,
)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
angles = st.floats(-10.0 * math.pi, 10.0 * math.pi, allow_nan=False)


class TestAngles:
    def test_wrap_identity_in_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_wrap_positive_overflow(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_wrap_negative_overflow(self):
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    def test_wrap_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    @given(angles)
    def test_wrap_always_in_interval(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12

    @given(angles)
    def test_wrap_preserves_direction(self, a):
        w = wrap_angle(a)
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)

    def test_angle_diff_signed(self):
        assert angle_diff(0.1, -0.1) == pytest.approx(0.2)
        assert angle_diff(-math.pi + 0.05, math.pi - 0.05) == pytest.approx(0.1)


class TestVec2:
    def test_add_sub(self):
        v = Vec2(1, 2) + Vec2(3, 4) - Vec2(1, 1)
        assert (v.x, v.y) == (3, 5)

    def test_scalar_multiply_both_sides(self):
        assert (Vec2(1, -2) * 2.0).y == -4.0
        assert (2.0 * Vec2(1, -2)).x == 2.0

    def test_dot_and_cross(self):
        assert Vec2(1, 0).dot(Vec2(0, 1)) == 0.0
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0

    def test_norm(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)
        assert Vec2(3, 4).norm_sq() == pytest.approx(25.0)

    def test_normalized_zero_vector_defaults_to_x(self):
        n = Vec2(0, 0).normalized()
        assert (n.x, n.y) == (1.0, 0.0)

    def test_rotated_quarter_turn(self):
        r = Vec2(1, 0).rotated(math.pi / 2)
        assert r.x == pytest.approx(0.0, abs=1e-12)
        assert r.y == pytest.approx(1.0)

    def test_perp_is_left_normal(self):
        p = Vec2(1, 0).perp()
        assert (p.x, p.y) == (0.0, 1.0)

    def test_heading(self):
        assert Vec2(0, 2).heading() == pytest.approx(math.pi / 2)

    def test_from_heading_roundtrip(self):
        v = Vec2.from_heading(0.7, 2.0)
        assert v.heading() == pytest.approx(0.7)
        assert v.norm() == pytest.approx(2.0)

    def test_array_roundtrip(self):
        v = Vec2.from_array(Vec2(1.5, -2.5).as_array())
        assert (v.x, v.y) == (1.5, -2.5)

    @given(finite_floats, finite_floats, angles)
    def test_rotation_preserves_norm(self, x, y, a):
        v = Vec2(x, y)
        assert v.rotated(a).norm() == pytest.approx(v.norm(), rel=1e-9, abs=1e-9)


class TestTransform:
    def test_to_world_identity(self):
        t = Transform(Vec2(0, 0), 0.0)
        w = t.to_world(Vec2(1, 2))
        assert (w.x, w.y) == (1, 2)

    def test_to_world_translation_rotation(self):
        t = Transform(Vec2(10, 0), math.pi / 2)
        w = t.to_world(Vec2(1, 0))
        assert w.x == pytest.approx(10.0, abs=1e-12)
        assert w.y == pytest.approx(1.0)

    @given(finite_floats, finite_floats, angles, finite_floats, finite_floats)
    def test_local_world_roundtrip(self, px, py, yaw, x, y):
        t = Transform(Vec2(px, py), yaw)
        p = Vec2(x, y)
        back = t.to_local(t.to_world(p))
        assert back.x == pytest.approx(p.x, abs=1e-6)
        assert back.y == pytest.approx(p.y, abs=1e-6)

    def test_forward_left_orthogonal(self):
        t = Transform(Vec2(0, 0), 0.8)
        assert t.forward().dot(t.left()) == pytest.approx(0.0, abs=1e-12)

    def test_compose(self):
        parent = Transform(Vec2(1, 0), math.pi / 2)
        child = Transform(Vec2(1, 0), 0.3)
        c = parent.compose(child)
        assert c.position.x == pytest.approx(1.0, abs=1e-12)
        assert c.position.y == pytest.approx(1.0)
        assert c.yaw == pytest.approx(math.pi / 2 + 0.3)


class TestSegments:
    def test_project_interior(self):
        t, p = project_on_segment(Vec2(1, 1), Vec2(0, 0), Vec2(2, 0))
        assert t == pytest.approx(0.5)
        assert (p.x, p.y) == (1.0, 0.0)

    def test_project_clamps_to_endpoints(self):
        t, p = project_on_segment(Vec2(-5, 1), Vec2(0, 0), Vec2(2, 0))
        assert t == 0.0
        assert (p.x, p.y) == (0.0, 0.0)

    def test_degenerate_segment(self):
        t, p = project_on_segment(Vec2(1, 1), Vec2(3, 3), Vec2(3, 3))
        assert t == 0.0
        assert (p.x, p.y) == (3.0, 3.0)

    def test_distance(self):
        assert point_segment_distance(Vec2(1, 2), Vec2(0, 0), Vec2(2, 0)) == pytest.approx(2.0)

    def test_segments_crossing(self):
        assert segments_intersect(Vec2(0, 0), Vec2(2, 2), Vec2(0, 2), Vec2(2, 0))

    def test_segments_parallel_disjoint(self):
        assert not segments_intersect(Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(1, 1))

    def test_segments_touching_endpoint(self):
        assert segments_intersect(Vec2(0, 0), Vec2(1, 0), Vec2(1, 0), Vec2(2, 1))


class TestOrientedBox:
    def test_invalid_extents_rejected(self):
        with pytest.raises(ValueError):
            OrientedBox(Vec2(0, 0), 0.0, 0.0, 1.0)

    def test_contains_center(self):
        box = OrientedBox(Vec2(1, 1), 0.5, 2.0, 1.0)
        assert box.contains_point(Vec2(1, 1))

    def test_contains_respects_rotation(self):
        box = OrientedBox(Vec2(0, 0), math.pi / 2, 2.0, 0.5)
        assert box.contains_point(Vec2(0, 1.9))
        assert not box.contains_point(Vec2(1.9, 0))

    def test_corners_form_rectangle(self):
        box = OrientedBox(Vec2(3, 4), 0.3, 2.0, 1.0)
        corners = box.corners()
        d1 = corners[0].distance_to(corners[2])
        d2 = corners[1].distance_to(corners[3])
        assert d1 == pytest.approx(d2)

    def test_overlap_identical(self):
        a = OrientedBox(Vec2(0, 0), 0.0, 1.0, 1.0)
        assert a.overlaps(a)

    def test_overlap_disjoint(self):
        a = OrientedBox(Vec2(0, 0), 0.0, 1.0, 1.0)
        b = OrientedBox(Vec2(5, 0), 0.0, 1.0, 1.0)
        assert not a.overlaps(b)
        assert not b.overlaps(a)

    def test_overlap_rotated_near_miss(self):
        # Diamond next to a square: corners interleave but no overlap.
        a = OrientedBox(Vec2(0, 0), 0.0, 1.0, 1.0)
        b = OrientedBox(Vec2(2.6, 0), math.pi / 4, 1.0, 1.0)
        assert not a.overlaps(b)

    def test_overlap_rotated_hit(self):
        a = OrientedBox(Vec2(0, 0), 0.0, 1.0, 1.0)
        b = OrientedBox(Vec2(2.0, 0), math.pi / 4, 1.0, 1.0)
        assert a.overlaps(b)

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        angles,
        st.floats(0.2, 3),
        st.floats(0.2, 3),
    )
    @settings(max_examples=50)
    def test_overlap_symmetry(self, x, y, yaw, hl, hw):
        a = OrientedBox(Vec2(0, 0), 0.4, 1.5, 0.8)
        b = OrientedBox(Vec2(x, y), yaw, hl, hw)
        assert a.overlaps(b) == b.overlaps(a)

    def test_expanded(self):
        a = OrientedBox(Vec2(0, 0), 0.0, 1.0, 1.0)
        assert a.expanded(0.5).contains_point(Vec2(1.4, 0))

    def test_ray_hit_head_on(self):
        box = OrientedBox(Vec2(10, 0), 0.0, 1.0, 1.0)
        d = box.ray_hit_distance(Vec2(0, 0), Vec2(1, 0), 50.0)
        assert d == pytest.approx(9.0)

    def test_ray_miss(self):
        box = OrientedBox(Vec2(10, 5), 0.0, 1.0, 1.0)
        assert box.ray_hit_distance(Vec2(0, 0), Vec2(1, 0), 50.0) is None

    def test_ray_beyond_range(self):
        box = OrientedBox(Vec2(100, 0), 0.0, 1.0, 1.0)
        assert box.ray_hit_distance(Vec2(0, 0), Vec2(1, 0), 50.0) is None

    def test_ray_from_inside_hits_at_zero(self):
        box = OrientedBox(Vec2(0, 0), 0.0, 2.0, 2.0)
        d = box.ray_hit_distance(Vec2(0, 0), Vec2(1, 0), 50.0)
        assert d == pytest.approx(0.0)


class TestPolyline:
    def line(self):
        return Polyline([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline([Vec2(0, 0)])

    def test_rejects_zero_length_segments(self):
        with pytest.raises(ValueError):
            Polyline([Vec2(0, 0), Vec2(0, 0), Vec2(1, 0)])

    def test_length(self):
        assert self.line().length == pytest.approx(20.0)

    def test_point_at_interior(self):
        p = self.line().point_at(15.0)
        assert (p.x, p.y) == (10.0, 5.0)

    def test_point_at_clamps(self):
        p = self.line().point_at(1e9)
        assert (p.x, p.y) == (10.0, 10.0)
        p = self.line().point_at(-5)
        assert (p.x, p.y) == (0.0, 0.0)

    def test_heading_changes_at_corner(self):
        pl = self.line()
        assert pl.heading_at(5.0) == pytest.approx(0.0)
        assert pl.heading_at(15.0) == pytest.approx(math.pi / 2)

    def test_locate_signed_lateral(self):
        pl = self.line()
        s, lat = pl.locate(Vec2(5, 2))
        assert s == pytest.approx(5.0)
        assert lat == pytest.approx(2.0)  # left of +x direction
        s, lat = pl.locate(Vec2(5, -2))
        assert lat == pytest.approx(-2.0)

    def test_distance_to_beyond_endpoint(self):
        pl = Polyline([Vec2(0, 0), Vec2(10, 0)])
        assert pl.distance_to(Vec2(13, 4)) == pytest.approx(5.0)

    def test_resampled_preserves_endpoints_and_length(self):
        pl = self.line().resampled(1.0)
        assert pl.points[0].distance_to(Vec2(0, 0)) < 1e-9
        assert pl.points[-1].distance_to(Vec2(10, 10)) < 1e-9
        assert pl.length == pytest.approx(20.0, rel=1e-3)

    def test_resample_invalid_spacing(self):
        with pytest.raises(ValueError):
            self.line().resampled(0.0)

    def test_offset_straight_line(self):
        pl = Polyline([Vec2(0, 0), Vec2(10, 0)]).offset(2.0)
        assert pl.points[0].y == pytest.approx(2.0)
        assert pl.points[-1].y == pytest.approx(2.0)

    def test_offset_negative_goes_right(self):
        pl = Polyline([Vec2(0, 0), Vec2(10, 0)]).offset(-1.5)
        assert pl.points[0].y == pytest.approx(-1.5)

    def test_reversed(self):
        r = self.line().reversed()
        assert r.points[0].distance_to(Vec2(10, 10)) < 1e-9
        assert r.length == pytest.approx(20.0)

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=8, unique=True))
    @settings(max_examples=40)
    def test_locate_station_within_bounds(self, pts):
        vecs = [Vec2(x, y) for x, y in pts]
        try:
            pl = Polyline(vecs)
        except ValueError:
            return  # duplicate-adjacent points: rejected by construction
        s, _ = pl.locate(Vec2(0, 0))
        assert 0.0 <= s <= pl.length + 1e-9

    @given(
        st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=8, unique=True),
        st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=16),
    )
    @settings(max_examples=40)
    def test_points_at_matches_point_at_bitwise(self, pts, fractions):
        try:
            pl = Polyline([Vec2(x, y) for x, y in pts])
        except ValueError:
            return
        # Fractions outside [0, 1] exercise the clamp; vertex stations the
        # segment lookup's right-side boundary.
        stations = [f * pl.length for f in fractions] + [float(c) for c in pl._cum]
        x, y = pl.points_at(np.array(stations))
        for s, px, py in zip(stations, x.tolist(), y.tolist()):
            p = pl.point_at(s)
            assert (px, py) == (p.x, p.y)

    def test_resampled_points_are_scalar_point_at(self):
        pl = self.line()
        stations = pl.uniform_stations(0.7)
        assert [(p.x, p.y) for p in pl.resampled(0.7).points] == [
            (q.x, q.y) for q in (pl.point_at(float(s)) for s in stations)
        ]


class TestBatchRayHits:
    """The batched LIDAR slab test against the scalar reference.

    ``batch_ray_hits`` must agree *exactly* (not approximately) with
    folding :meth:`OrientedBox.ray_hit_distance` over the boxes — the
    vectorised LIDAR promises bit-identical readings.
    """

    @staticmethod
    def _scalar_reference(origin, directions, boxes, max_range):
        out = np.full(len(directions), max_range, dtype=np.float64)
        for i, (dx, dy) in enumerate(directions):
            direction = Vec2(dx, dy)
            best = max_range
            for box in boxes:
                hit = box.ray_hit_distance(origin, direction, best)
                if hit is not None and hit < best:
                    best = hit
            out[i] = best
        return out

    @staticmethod
    def _unit_directions(angles):
        dirs = np.empty((len(angles), 2))
        for i, a in enumerate(angles):
            d = Vec2.from_heading(a).normalized()
            dirs[i, 0] = d.x
            dirs[i, 1] = d.y
        return dirs

    def test_pack_boxes_layout(self):
        box = OrientedBox(Vec2(3.0, -2.0), 0.7, 2.5, 1.25)
        packed = pack_boxes([box])
        assert packed.shape == (1, 6)
        assert packed[0, 0] == 3.0 and packed[0, 1] == -2.0
        assert packed[0, 2] == math.cos(-0.7) and packed[0, 3] == math.sin(-0.7)
        assert packed[0, 4] == 2.5 and packed[0, 5] == 1.25

    def test_no_boxes_returns_max_range(self):
        dirs = self._unit_directions([0.0, 1.0])
        ranges = batch_ray_hits(Vec2(0, 0), dirs, np.empty((0, 6)), 25.0)
        assert np.array_equal(ranges, [25.0, 25.0])

    def test_single_box_straight_ahead(self):
        box = OrientedBox(Vec2(10.0, 0.0), 0.0, 2.0, 1.0)
        dirs = self._unit_directions([0.0])
        ranges = batch_ray_hits(Vec2(0, 0), dirs, pack_boxes([box]), 40.0)
        assert ranges[0] == pytest.approx(8.0)

    def test_axis_parallel_rays_match_scalar(self):
        """Exactly axis-parallel rays exercise the parallel-slab branch."""
        boxes = [
            OrientedBox(Vec2(10.0, 0.0), 0.0, 2.0, 1.0),
            OrientedBox(Vec2(0.0, 8.0), 0.0, 1.5, 1.5),
            OrientedBox(Vec2(-6.0, 3.0), math.pi / 2.0, 2.0, 0.5),
            OrientedBox(Vec2(10.0, 5.0), 0.0, 2.0, 1.0),  # origin outside slab
        ]
        angles = [0.0, math.pi / 2.0, math.pi, -math.pi / 2.0]
        dirs = self._unit_directions(angles)
        origin = Vec2(0.0, 0.0)
        got = batch_ray_hits(origin, dirs, pack_boxes(boxes), 30.0)
        want = self._scalar_reference(origin, dirs, boxes, 30.0)
        assert np.array_equal(got, want)

    def test_origin_inside_box_hits_at_zero(self):
        box = OrientedBox(Vec2(0.0, 0.0), 0.3, 4.0, 4.0)
        dirs = self._unit_directions([0.0, 2.0])
        ranges = batch_ray_hits(Vec2(0.5, -0.5), dirs, pack_boxes([box]), 40.0)
        assert np.array_equal(ranges, [0.0, 0.0])

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar_reference(self, seed, n_rays, n_boxes):
        rng = np.random.default_rng(seed)
        origin = Vec2(*rng.uniform(-15.0, 15.0, 2))
        boxes = [
            OrientedBox(
                Vec2(*rng.uniform(-25.0, 25.0, 2)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0.2, 6.0)),
                float(rng.uniform(0.2, 4.0)),
            )
            for _ in range(n_boxes)
        ]
        angles = rng.uniform(-math.pi, math.pi, n_rays)
        dirs = self._unit_directions(angles)
        max_range = float(rng.uniform(5.0, 60.0))
        got = batch_ray_hits(origin, dirs, pack_boxes(boxes), max_range)
        want = self._scalar_reference(origin, dirs, boxes, max_range)
        assert np.array_equal(got, want), (got, want)
