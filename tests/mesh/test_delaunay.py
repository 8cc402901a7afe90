"""Tests for the incremental Bowyer–Watson Delaunay triangulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.delaunay import IncrementalDelaunay, delaunay_mesh
from repro.mesh.geometry import in_circumcircle


def delaunay_property_holds(mesh) -> bool:
    """Brute-force empty-circumcircle check over every triangle/vertex."""
    verts = mesh.vertices
    for tri in mesh.triangles:
        a, b, c = verts[tri[0]], verts[tri[1]], verts[tri[2]]
        for v_index in range(len(verts)):
            if v_index in tri:
                continue
            if in_circumcircle(tuple(a), tuple(b), tuple(c), tuple(verts[v_index])):
                return False
    return True


def test_rectangle_bootstrap():
    tri = IncrementalDelaunay.from_rectangle(0, 0, 2, 1)
    assert tri.num_vertices == 4
    assert tri.num_triangles == 2
    mesh = tri.to_mesh()
    assert mesh.total_area() == pytest.approx(2.0)


def test_rectangle_rejects_empty():
    with pytest.raises(ValueError, match="positive width"):
        IncrementalDelaunay.from_rectangle(1, 0, 1, 1)


def test_insert_interior_point():
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    index = tri.insert((0.4, 0.4))
    assert index == 4
    mesh = tri.to_mesh()
    assert mesh.total_area() == pytest.approx(1.0)
    assert mesh.is_conforming()


def test_insert_point_on_boundary_edge():
    """Midpoint of a die edge (the Ruppert split case) keeps area/conformity."""
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    tri.insert((0.5, 0.0))
    mesh = tri.to_mesh()
    assert mesh.total_area() == pytest.approx(1.0)
    assert mesh.is_conforming()


def test_insert_duplicate_returns_existing_index():
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    first = tri.insert((0.3, 0.3))
    second = tri.insert((0.3, 0.3))
    assert first == second
    assert tri.num_vertices == 5


def test_locate_outside_raises():
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    with pytest.raises(ValueError, match="outside"):
        tri.locate((2.0, 2.0))


def test_locate_finds_containing_triangle():
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    for _ in range(20):
        tri.insert(tuple(np.random.default_rng(0).uniform(0.1, 0.9, 2)))
    tid = tri.locate((0.5, 0.5))
    i, j, k = tri.triangle_vertices(tid)
    from repro.mesh.geometry import point_in_triangle

    assert point_in_triangle(
        (0.5, 0.5), tri.vertex(i), tri.vertex(j), tri.vertex(k)
    )


def test_delaunay_property_random_points():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (60, 2))
    mesh = delaunay_mesh(pts)
    assert delaunay_property_holds(mesh)


def test_delaunay_property_structured_grid_points():
    """Cocircular degeneracies (grid points) must not break the result."""
    xs, ys = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    mesh = delaunay_mesh(pts)
    assert mesh.is_conforming()
    # Area equals the padded bounding rectangle.
    assert mesh.total_area() == pytest.approx(
        (mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min())
        * (mesh.vertices[:, 1].max() - mesh.vertices[:, 1].min())
    )


def test_delaunay_mesh_includes_all_points():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, (25, 2))
    mesh = delaunay_mesh(pts)
    for p in pts:
        assert np.min(np.linalg.norm(mesh.vertices - p, axis=1)) < 1e-12


def test_delaunay_mesh_input_validation():
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        delaunay_mesh(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="at least one point"):
        delaunay_mesh(np.zeros((0, 2)))


def test_boundary_edges_form_rectangle():
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    for _ in range(10):
        tri.insert((np.random.default_rng(1).uniform(0.2, 0.8),
                    np.random.default_rng(2).uniform(0.2, 0.8)))
    boundary = tri.boundary_edges()
    # The rectangle keeps exactly 4 boundary edges until an edge is split.
    assert len(boundary) == 4


@given(st.lists(st.tuples(
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False)),
    min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_incremental_insertion_invariants_property(points):
    """Area conservation + conformity after arbitrary interior insertions."""
    tri = IncrementalDelaunay.from_rectangle(0, 0, 1, 1)
    for p in points:
        tri.insert(p)
    mesh = tri.to_mesh()
    assert mesh.total_area() == pytest.approx(1.0, abs=1e-9)
    assert mesh.is_conforming()


def test_triangle_ids_are_never_reused_and_never_change():
    """The refiner memoises "is poor" per triangle id; that is sound only
    because a removed id never comes back and a live id keeps its vertices.
    """
    rng = np.random.default_rng(2008)
    tri = IncrementalDelaunay.from_rectangle(-1, -1, 1, 1)
    seen = {tid: tri.triangle_vertices(tid) for tid in tri.triangle_ids()}
    removed = set()
    for step in range(400):
        if step % 7 == 0:
            # A repeat of an existing vertex (merged, mesh unchanged) or a
            # point on the die edge (as in a Ruppert segment split).
            u = int(rng.integers(tri.num_vertices))
            point = tri.vertex(u) if step % 14 == 0 else (
                float(rng.uniform(-1, 1)), -1.0
            )
        else:
            point = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        tri.insert(point)
        live = {tid: tri.triangle_vertices(tid) for tid in tri.triangle_ids()}
        assert not removed & live.keys()
        for tid, vertices in live.items():
            assert seen.setdefault(tid, vertices) == vertices
        removed |= seen.keys() - live.keys()
    assert len(removed) > 400
