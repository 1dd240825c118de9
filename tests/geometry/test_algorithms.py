"""Low-level geometric primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import algorithms as alg

finite = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)
pt = st.tuples(finite, finite)


class TestOrientation:
    def test_ccw(self):
        assert alg.orientation((0, 0), (1, 0), (1, 1)) == 1

    def test_cw(self):
        assert alg.orientation((0, 0), (1, 1), (1, 0)) == -1

    def test_collinear(self):
        assert alg.orientation((0, 0), (1, 1), (2, 2)) == 0

    @given(pt, pt, pt)
    def test_antisymmetric(self, a, b, c):
        assert alg.orientation(a, b, c) == -alg.orientation(a, c, b)


class TestSegments:
    def test_proper_cross(self):
        assert alg.segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
        assert alg.segments_properly_cross((0, 0), (2, 2), (0, 2), (2, 0))

    def test_touch_at_endpoint(self):
        assert alg.segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))
        assert not alg.segments_properly_cross((0, 0), (1, 1), (1, 1), (2, 0))

    def test_parallel_disjoint(self):
        assert not alg.segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_collinear_overlap(self):
        assert alg.segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))


class TestRings:
    def test_signed_area_ccw_positive(self):
        assert alg.ring_signed_area([(0, 0), (2, 0), (2, 2), (0, 2)]) == 4.0

    def test_signed_area_cw_negative(self):
        assert alg.ring_signed_area([(0, 0), (0, 2), (2, 2), (2, 0)]) == -4.0

    def test_closed_ring_same_area(self):
        open_ring = [(0, 0), (2, 0), (2, 2), (0, 2)]
        closed = open_ring + [open_ring[0]]
        assert alg.ring_signed_area(open_ring) == alg.ring_signed_area(closed)

    def test_point_in_ring(self):
        ring = [(0, 0), (4, 0), (4, 4), (0, 4)]
        assert alg.point_in_ring((2, 2), ring) == 1
        assert alg.point_in_ring((0, 2), ring) == 0
        assert alg.point_in_ring((9, 9), ring) == -1

    def test_point_in_concave_ring(self):
        u_shape = [(0, 0), (6, 0), (6, 5), (4, 5), (4, 2), (2, 2), (2, 5), (0, 5)]
        assert alg.point_in_ring((3, 1), u_shape) == 1
        assert alg.point_in_ring((3, 4), u_shape) == -1  # inside the notch

    def test_ring_centroid_square(self):
        got = alg.ring_centroid([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert got == pytest.approx((1.0, 1.0))

    def test_is_convex(self):
        assert alg.is_convex_ring([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert not alg.is_convex_ring(
            [(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)]
        )

    @given(st.floats(min_value=0.1, max_value=10), pt)
    def test_square_area_invariant(self, size, center):
        cx, cy = center
        h = size / 2
        ring = [
            (cx - h, cy - h),
            (cx + h, cy - h),
            (cx + h, cy + h),
            (cx - h, cy + h),
        ]
        assert alg.ring_signed_area(ring) == pytest.approx(size * size, rel=1e-9)


class TestDistancesAndHull:
    def test_point_segment_distance_perpendicular(self):
        assert alg.point_segment_distance((1, 1), (0, 0), (2, 0)) == 1.0

    def test_point_segment_distance_past_end(self):
        assert alg.point_segment_distance((4, 0), (0, 0), (2, 0)) == 2.0

    def test_segment_segment_distance(self):
        d = alg.segment_segment_distance((0, 0), (1, 0), (0, 2), (1, 2))
        assert d == 2.0

    def test_convex_hull_triangle(self):
        hull = alg.convex_hull([(0, 0), (4, 0), (2, 3), (2, 1)])
        assert len(hull) == 3

    @given(st.lists(pt, min_size=3, max_size=30))
    def test_hull_contains_all_points(self, points):
        hull = alg.convex_hull(points)
        if len(hull) < 3 or abs(alg.ring_signed_area(hull)) < 1e-9:
            return  # Degenerate (collinear) input.
        for p in points:
            assert alg.point_in_ring(p, hull) >= 0

    def test_polyline_length(self):
        assert alg.polyline_length([(0, 0), (3, 0), (3, 4)]) == 7.0
