"""Point, LineString, Polygon unit tests."""

import math
import pickle

import pytest

from repro.geometry import Envelope, LineString, Point, Polygon


class TestPoint:
    def test_envelope_is_degenerate(self):
        assert Point(1, 2).envelope == Envelope(1, 2, 1, 2)

    def test_is_point_flag(self):
        assert Point(0, 0).is_point
        assert Envelope(0, 0, 1, 1).is_point
        assert not LineString([(0, 0), (1, 1)]).is_point

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_to_envelope(self):
        assert Point(0, 0).distance_to(Envelope(3, 4, 5, 6)) == 5.0
        assert Point(4, 5).distance_to(Envelope(3, 4, 5, 6)) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0)
        # ±inf constructs (unbounded query ranges use it); datasets reject
        # it at write time instead — see test_stio.TestNonFiniteRejected.
        assert Point(math.inf, -math.inf).x == math.inf

    def test_immutability_and_pickle(self):
        p = Point(1.5, 2.5)
        with pytest.raises(AttributeError):
            p.x = 9
        assert pickle.loads(pickle.dumps(p)) == p


class TestLineString:
    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_length(self):
        ls = LineString([(0, 0), (3, 0), (3, 4)])
        assert ls.length == 7.0

    def test_centroid_is_length_midpoint(self):
        ls = LineString([(0, 0), (10, 0)])
        assert ls.centroid() == Point(5, 0)

    def test_envelope(self):
        ls = LineString([(0, 1), (4, -2), (2, 5)])
        assert ls.envelope == Envelope(0, -2, 4, 5)

    def test_intersects_crossing_linestrings(self):
        a = LineString([(0, 0), (2, 2)])
        b = LineString([(0, 2), (2, 0)])
        assert a.intersects(b)
        assert b.intersects(a)

    def test_disjoint_linestrings(self):
        a = LineString([(0, 0), (1, 0)])
        b = LineString([(0, 2), (1, 2)])
        assert not a.intersects(b)

    def test_intersects_envelope_crossing_without_vertex_inside(self):
        # Segment passes straight through the box; no endpoint inside.
        ls = LineString([(-1, 0.5), (2, 0.5)])
        assert ls.intersects(Envelope(0, 0, 1, 1))

    def test_not_intersecting_envelope(self):
        assert not LineString([(-1, 5), (2, 5)]).intersects(Envelope(0, 0, 1, 1))

    def test_distance_to_point(self):
        ls = LineString([(0, 0), (10, 0)])
        assert ls.distance_to(Point(5, 3)) == 3.0
        assert ls.distance_to(Point(-3, 4)) == 5.0

    def test_pickle_roundtrip(self):
        ls = LineString([(0, 0), (1, 2), (3, 1)])
        assert pickle.loads(pickle.dumps(ls)) == ls


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_closing_vertex_normalized(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        b = Polygon([(0, 0), (1, 0), (1, 1)])
        assert a == b

    def test_area_shoelace(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.area == 4.0
        triangle = Polygon([(0, 0), (4, 0), (0, 3)])
        assert triangle.area == 6.0

    def test_centroid_of_square(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.centroid() == Point(1, 1)

    def test_contains_point(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.contains_point(1, 1)
        assert not tri.contains_point(3, 3)

    def test_contains_boundary_point(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.contains_point(2, 0)  # on an edge
        assert tri.contains_point(0, 0)  # on a vertex

    def test_intersects_point_geometry(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.intersects(Point(1, 1))
        assert not tri.intersects(Point(5, 5))

    def test_intersects_envelope_cases(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.intersects(Envelope(1, 1, 2, 2))  # box corner in polygon
        assert tri.intersects(Envelope(-1, -1, 5, 5))  # polygon inside box
        assert not tri.intersects(Envelope(4, 4, 5, 5))

    def test_intersects_envelope_edge_crossing_only(self):
        # Thin box crossing the hypotenuse, no vertices contained either way.
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.intersects(Envelope(1.9, 1.9, 2.2, 2.2))

    def test_intersects_linestring(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.intersects(LineString([(-1, 1), (5, 1)]))
        assert not tri.intersects(LineString([(5, 5), (6, 6)]))

    def test_intersects_polygon(self):
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        c = Polygon([(5, 5), (6, 5), (6, 6)])
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_distance_to_point(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.distance_to(Point(1, 1)) == 0.0
        assert square.distance_to(Point(5, 2)) == 3.0

    def test_from_envelope(self):
        poly = Polygon.from_envelope(Envelope(0, 0, 2, 3))
        assert poly.area == 6.0

    def test_pickle_roundtrip(self):
        poly = Polygon([(0, 0), (2, 0), (1, 2)])
        assert pickle.loads(pickle.dumps(poly)) == poly
