"""Envelope behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Envelope

coords = st.floats(
    min_value=-180, max_value=180, allow_nan=False, allow_infinity=False
)


def env(a, b, c, d):
    return Envelope(min(a, c), min(b, d), max(a, c), max(b, d))


class TestConstruction:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Envelope(1, 0, 0, 1)

    def test_point_envelope_allowed(self):
        e = Envelope(1, 2, 1, 2)
        assert e.area == 0
        assert e.center == (1, 2)

    def test_of_coords(self):
        e = Envelope.of_coords([(3, 1), (0, 5), (2, 2)])
        assert e.as_tuple() == (0, 1, 3, 5)

    def test_of_coords_empty_rejected(self):
        with pytest.raises(ValueError):
            Envelope.of_coords([])

    def test_union_all(self):
        e = Envelope.union_all(
            [Envelope(0, 0, 1, 1), Envelope(2, -1, 3, 0.5)]
        )
        assert e.as_tuple() == (0, -1, 3, 1)


class TestRelations:
    def test_intersects_overlap(self):
        assert Envelope(0, 0, 2, 2).intersects(Envelope(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        assert Envelope(0, 0, 1, 1).intersects(Envelope(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Envelope(0, 0, 1, 1).intersects(Envelope(2, 2, 3, 3))

    def test_contains(self):
        assert Envelope(0, 0, 4, 4).contains(Envelope(1, 1, 2, 2))
        assert not Envelope(1, 1, 2, 2).contains(Envelope(0, 0, 4, 4))

    def test_contains_point_boundary(self):
        assert Envelope(0, 0, 1, 1).contains_point(1.0, 0.5)

    def test_intersection(self):
        got = Envelope(0, 0, 2, 2).intersection(Envelope(1, 1, 3, 3))
        assert got is not None
        assert got.as_tuple() == (1, 1, 2, 2)

    def test_intersection_disjoint_is_none(self):
        assert Envelope(0, 0, 1, 1).intersection(Envelope(5, 5, 6, 6)) is None

    def test_expand(self):
        assert Envelope(0, 0, 1, 1).expand(0.5).as_tuple() == (
            -0.5,
            -0.5,
            1.5,
            1.5,
        )


class TestProperties:
    @given(coords, coords, coords, coords)
    def test_union_commutative(self, a, b, c, d):
        e1 = env(a, b, c, d)
        e2 = env(c, d, a, b)
        assert e1.union(e2) == e2.union(e1)

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_intersects_symmetric(self, a, b, c, d, e, f, g, h):
        e1 = env(a, b, c, d)
        e2 = env(e, f, g, h)
        assert e1.intersects(e2) == e2.intersects(e1)

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_intersection_inside_both(self, a, b, c, d, e, f, g, h):
        e1 = env(a, b, c, d)
        e2 = env(e, f, g, h)
        inter = e1.intersection(e2)
        if inter is not None:
            assert e1.contains(inter)
            assert e2.contains(inter)

    @given(coords, coords, coords, coords)
    def test_corners_inside(self, a, b, c, d):
        e = env(a, b, c, d)
        for x, y in e.corners():
            assert e.contains_point(x, y)
