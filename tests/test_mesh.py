import functools
import gc
import tracemalloc

import numpy as np
import pytest

import helpers
import torustutte.mesh
from torustutte import (
    WeightAssignment,
    build_mesh,
    gen_grid,
    gen_k7,
    generator_loops,
    retract,
)
from torustutte.errors import (
    BadFaceError,
    BadOrientationError,
    CocycleViolationError,
    DisconnectedError,
    EulerCharacteristicError,
    MeshError,
    NoGeneratorLoopError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    ShiftConflictError,
)


# ---------------------------------------------------------------------------
# Construction and counts

def test_grid_counts(grid3, grid4):
    mesh3, _ = grid3
    assert mesh3.vertex_count == 9
    assert mesh3.edge_count == 27
    assert len(mesh3.faces) == 18
    assert len(mesh3.directed_edges) == 54
    mesh4, _ = grid4
    assert (mesh4.vertex_count, mesh4.edge_count, len(mesh4.faces)) == (16, 48, 32)


def test_euler_relation(grid3, grid4, grid5, k7):
    for mesh in (grid3[0], grid4[0], grid5[0], k7[0]):
        v, e, f = mesh.vertex_count, mesh.edge_count, len(mesh.faces)
        assert v - e + f == 0
        assert e == 3 * v and f == 2 * v


def test_k7_counts(k7):
    mesh, placement = k7
    assert mesh.vertex_count == 7
    assert mesh.edge_count == 21
    assert len(mesh.faces) == 14
    # complete graph: every vertex pair is an edge
    assert all(helpers.is_edge(mesh, i, j)
               for i in range(7) for j in range(7) if i != j)
    assert placement.coords.shape == (7, 2)


def test_degrees_and_handshake(grid3, k7):
    for mesh in (grid3[0], k7[0]):
        degrees = [mesh.degree(v) for v in range(mesh.vertex_count)]
        assert all(d == 6 for d in degrees)
        assert sum(degrees) == 2 * mesh.edge_count


def test_reverse_index_and_antisymmetry(grid4):
    mesh, _ = grid4
    rev = mesh.reverse_index
    n = len(mesh.directed_edges)
    assert sorted(rev) == list(range(n))
    assert np.array_equal(rev[rev], np.arange(n))
    for k, (i, j) in enumerate(mesh.directed_edges):
        ri, rj = mesh.directed_edges[rev[k]]
        assert (ri, rj) == (j, i)
    assert np.array_equal(mesh.shifts, -mesh.shifts[rev])


def test_directed_edges_sorted(grid3):
    mesh, _ = grid3
    edges = [tuple(e) for e in mesh.directed_edges]
    assert edges == sorted(edges)


def test_face_structure_tables(grid4):
    mesh, _ = grid4
    for fi, (a, b, c) in enumerate(mesh.faces):
        e0, e1, e2 = mesh.face_edges[fi]
        assert tuple(mesh.directed_edges[e0]) == (a, b)
        assert tuple(mesh.directed_edges[e1]) == (b, c)
        assert tuple(mesh.directed_edges[e2]) == (c, a)
        # shifts around the face close up exactly
        total = mesh.shifts[e0] + mesh.shifts[e1] + mesh.shifts[e2]
        assert np.array_equal(total, np.zeros(2, dtype=total.dtype))


# ---------------------------------------------------------------------------
# Rotation system

def test_rotation_covers_neighbors(grid3, k7):
    for mesh in (grid3[0], k7[0]):
        for v in range(mesh.vertex_count):
            ring = helpers.ring(mesh, v)
            assert len(ring) == len(set(ring)) == mesh.degree(v)
            expected = {j for i, j in mesh.directed_edges.tolist() if i == v}
            assert set(ring) == expected


def test_rotation_consecutive_pairs_are_faces(grid4):
    mesh, _ = grid4
    face_set = set()
    for a, b, c in mesh.faces:
        face_set.update({(a, b, c), (b, c, a), (c, a, b)})
    for v in range(mesh.vertex_count):
        ring = helpers.ring(mesh, v)
        for idx, u in enumerate(ring):
            nxt = ring[(idx + 1) % len(ring)]
            assert (v, u, nxt) in face_set


def test_rotation_matches_geometry(grid4):
    """Combinatorial rotation agrees with angular order in the plane."""
    mesh, placement = grid4
    for v in range(mesh.vertex_count):
        angles = []
        for u in helpers.ring(mesh, v):
            vec = (placement.coords[u] + mesh.shifts[helpers.edge_id(mesh, v, u)]
                   - placement.coords[v])
            angles.append(float(np.arctan2(vec[1], vec[0])))
        pivot = angles.index(min(angles))
        rolled = angles[pivot:] + angles[:pivot]
        assert all(a < b for a, b in zip(rolled, rolled[1:]))


def test_rotation_deterministic(grid3):
    mesh_a, _ = gen_grid(3)
    mesh_b, _ = grid3
    for table in ("rotation_offsets", "rotation_edges"):
        assert np.array_equal(getattr(mesh_a, table), getattr(mesh_b, table)), table


# ---------------------------------------------------------------------------
# Validation failures

def test_too_few_vertices():
    tetra = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    with pytest.raises(MeshError, match="at least 7"):
        build_mesh(tetra)


def test_bad_face_repeated_vertex(grid3):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces]
    faces[0] = (faces[0][0], faces[0][0], faces[0][2])
    with pytest.raises(BadFaceError):
        helpers.mesh_of(faces, helpers.canonical_shift_dict(mesh))


def test_bad_face_out_of_range(grid3):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces]
    with pytest.raises(BadFaceError):
        build_mesh(faces, vertex_count=8)


def test_flipped_face_breaks_orientation(grid3):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces]
    a, b, c = faces[5]
    faces[5] = (a, c, b)
    with pytest.raises(BadOrientationError):
        build_mesh(faces)


def test_duplicate_face_breaks_orientation(grid3):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces]
    faces.append(faces[0])
    with pytest.raises(BadOrientationError):
        build_mesh(faces)


def test_missing_face_is_nonmanifold(grid3):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces][:-1]
    with pytest.raises(NonManifoldEdgeError):
        build_mesh(faces)


def test_sphere_rejected_by_euler():
    with pytest.raises(EulerCharacteristicError):
        build_mesh(helpers.sphere_faces())


def test_pinched_sphere_rejected_by_vertex_link():
    """Euler characteristic 0 but one vertex whose link is three circles."""
    faces = helpers.pinched_sphere_faces()
    vertex_count = 1 + max(max(f) for f in faces)
    assert vertex_count == 64
    assert len(faces) == 128
    with pytest.raises(NonManifoldVertexError):
        build_mesh(faces)


def test_disconnected_pair_of_tori(grid3):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces]
    shifted = [tuple(v + 9 for v in f) for f in faces]
    shifts = helpers.canonical_shift_dict(mesh)
    shifts.update({(i + 9, j + 9): s for (i, j), s in shifts.items()})
    with pytest.raises(DisconnectedError):
        helpers.mesh_of(faces + shifted, shifts)


@functools.cache
def long_strip():
    """The 3 x 20 000 strip torus: 60 000 vertices, and 10 000 breadth-first levels."""
    return helpers.strip_torus(3, 20_000)


def test_long_strip_validates():
    faces, shifts = long_strip()
    mesh = helpers.mesh_of(faces, shifts)
    assert (mesh.vertex_count, mesh.edge_count, len(mesh.faces)) == (60_000, 180_000, 120_000)


def test_disconnected_pair_of_strips():
    faces, shifts = helpers.strip_torus(3, 2_000)
    other_faces, other_shifts = helpers.strip_torus(3, 2_000, first=6_000)
    with pytest.raises(DisconnectedError, match="^one-skeleton is not connected$"):
        helpers.mesh_of(faces + other_faces, {**shifts, **other_shifts})


def relabeled(faces, shifts, perm):
    moved = {(int(perm[i]), int(perm[j])): b for (i, j), b in shifts.items()}
    return [tuple(int(perm[v]) for v in f) for f in faces], moved


@pytest.mark.parametrize("seed", range(3))
def test_connectivity_does_not_depend_on_the_labels(seed):
    """Hook and shortcut answers the same on any relabeling of the vertices."""
    rng = np.random.default_rng(seed)
    faces, shifts = helpers.strip_torus(3, 200)
    helpers.mesh_of(*relabeled(faces, shifts, rng.permutation(600)))
    other_faces, other_shifts = helpers.strip_torus(4, 100, first=600)
    pair = relabeled(faces + other_faces, {**shifts, **other_shifts}, rng.permutation(1_000))
    with pytest.raises(DisconnectedError, match="^one-skeleton is not connected$"):
        helpers.mesh_of(*pair)


def test_shift_on_nonedge_rejected(grid3):
    mesh, _ = grid3
    shifts = helpers.canonical_shift_dict(mesh)
    assert not helpers.is_edge(mesh, 0, 5)
    shifts[(0, 5)] = (1, 0)
    with pytest.raises(MeshError, match="non-edge"):
        helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)


def test_conflicting_shift_orientations(grid3):
    mesh, _ = grid3
    shifts = helpers.canonical_shift_dict(mesh)
    (i, j), value = next(iter(shifts.items()))
    shifts[(j, i)] = tuple(value)  # should be the negation
    if value == (0, 0):
        shifts[(j, i)] = (1, 0)
    with pytest.raises(ShiftConflictError):
        helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)


def test_both_orientations_consistent_ok(grid3):
    mesh, _ = grid3
    shifts = helpers.canonical_shift_dict(mesh)
    shifts.update({(j, i): (-s[0], -s[1]) for (i, j), s in shifts.items()})
    rebuilt = helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)
    assert np.array_equal(rebuilt.shifts, mesh.shifts)


def test_cocycle_violation(grid3):
    mesh, _ = grid3
    shifts = helpers.canonical_shift_dict(mesh)
    seam = next(e for e, s in shifts.items() if s != (0, 0))
    sx, sy = shifts[seam]
    shifts[seam] = (sx, sy + 1)
    with pytest.raises(CocycleViolationError):
        helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)
    shifts[seam] = (sx + 2**31 - 1, sy)
    with pytest.raises(CocycleViolationError) as caught:
        helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)
    assert str(caught.value) == "shifts around face (2, 0, 3) sum to (-2147483647, 0)"


def test_shift_outside_int32_names_its_edge(grid3):
    mesh, _ = grid3
    for value in (2**31, -2**31):
        shifts = {**helpers.canonical_shift_dict(mesh), (0, 3): (0, value)}
        with pytest.raises(MeshError, match=rf"^shift \(0, {value}\) of edge \(0, 3\) does not"):
            helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)
    # past int64 the row is named, and the number is not echoed
    shifts = {**helpers.canonical_shift_dict(mesh), (0, 3): (0, 2**70)}
    row = list(shifts).index((0, 3))
    with pytest.raises(ValueError, match=rf"^shifts row {row} holds a number outside int64$"):
        helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)
    # whole floats, as a JSON document may hold them, are named as integers
    shifts = {**helpers.canonical_shift_dict(mesh), (0.0, 3.0): (0, 2.0**31)}
    with pytest.raises(MeshError, match=r"^shift \(0, 2147483648\) of edge \(0, 3\) does not"):
        helpers.mesh_of([tuple(f) for f in mesh.faces], shifts)
    # vertex 0 moved 2**31 - 2 along x: its shifts reach +-(2**31 - 1)
    moved = helpers.regauged(mesh, [(2**31 - 2, 0)] + [(0, 0)] * 8)
    assert np.abs(moved.shifts).max() == 2**31 - 1


def test_unlisted_shifts_default_to_zero(grid3):
    mesh, _ = grid3
    sparse = {e: s for e, s in helpers.canonical_shift_dict(mesh).items()
              if s != (0, 0)}
    rebuilt = helpers.mesh_of([tuple(f) for f in mesh.faces], sparse)
    assert np.array_equal(rebuilt.shifts, mesh.shifts)


def test_all_zero_shifts_have_no_generators(grid3, monkeypatch):
    """Zero shifts close every cocycle but wind around nothing."""
    mesh, _ = grid3
    rebuilt = helpers.mesh_of([tuple(f) for f in mesh.faces], {})
    monkeypatch.setattr(torustutte.mesh, "deque", None)  # raised before the state search
    with pytest.raises(NoGeneratorLoopError, match="do not generate Z"):
        generator_loops(rebuilt)


# ---------------------------------------------------------------------------
# Generator loops

def assert_valid_loop(mesh, loop, target):
    for a, b in zip(loop, loop[1:] + loop[:1]):
        assert helpers.is_edge(mesh, a, b)
    total = sum(
        (mesh.shifts[helpers.edge_id(mesh, a, b)] for a, b in zip(loop, loop[1:] + loop[:1])),
        start=np.zeros(2, dtype=int),
    )
    assert tuple(int(x) for x in total) == target


def test_generator_loops_grid3(grid3):
    mesh, _ = grid3
    loops = generator_loops(mesh)
    assert len(loops.horizontal) == 3
    assert len(loops.vertical) == 3
    assert_valid_loop(mesh, loops.horizontal, (1, 0))
    assert_valid_loop(mesh, loops.vertical, (0, 1))
    assert helpers.brute_shortest_loop(mesh, (1, 0), 3) == 3
    assert helpers.brute_shortest_loop(mesh, (1, 0), 2) is None
    assert helpers.brute_shortest_loop(mesh, (0, 1), 2) is None


@pytest.mark.parametrize("m", [4, 5])
def test_generator_loops_larger_grids(m):
    mesh, _ = gen_grid(m)
    loops = generator_loops(mesh)
    assert len(loops.horizontal) == m
    assert len(loops.vertical) == m
    assert_valid_loop(mesh, loops.horizontal, (1, 0))
    assert_valid_loop(mesh, loops.vertical, (0, 1))
    assert helpers.brute_shortest_loop(mesh, (1, 0), m) == m
    assert helpers.brute_shortest_loop(mesh, (1, 0), m - 1) is None


def test_generator_loops_k7(k7):
    mesh, _ = k7
    loops = generator_loops(mesh)
    assert len(loops.horizontal) == 7
    assert len(loops.vertical) == 3
    assert_valid_loop(mesh, loops.horizontal, (1, 0))
    assert_valid_loop(mesh, loops.vertical, (0, 1))
    assert helpers.brute_shortest_loop(mesh, (0, 1), 3) == 3
    assert helpers.brute_shortest_loop(mesh, (0, 1), 2) is None
    # nothing shorter than 7 reaches lattice class (1, 0)
    assert helpers.brute_shortest_loop(mesh, (1, 0), 6) is None


@pytest.mark.parametrize("kind, m, seed", [
    *(("grid", m, None) for m in range(3, 33)),
    ("k7", 7, None),
    *(("diagonal", m, seed) for m, seed in ((5, 5), (8, 11), (12, 12), (16, 0), (18, 3))),
])
def test_breadth_first_tree_is_csgraphs(kind, m, seed):
    """The level search keeps the parents a queue-based search finds."""
    if kind == "diagonal":
        mesh = helpers.mesh_of(*helpers.random_diagonal_grid(m, np.random.default_rng(seed)))
    else:
        mesh = (gen_k7() if kind == "k7" else gen_grid(m))[0]
    tree = torustutte.mesh._breadth_first_tree(mesh.rotation_offsets, mesh.directed_edges[:, 1])
    pred = np.where(tree >= 0, mesh.directed_edges[tree, 0], -9999)
    assert np.array_equal(pred, helpers.csgraph_predecessors(mesh))
    assert (tree >= 0).sum() == mesh.vertex_count - 1


def test_generator_loops_cached(grid3):
    mesh, _ = grid3
    assert generator_loops(mesh) is generator_loops(mesh)


def test_no_generator_loop(grid3, monkeypatch):
    """Doubling every shift keeps cocycles closed but kills odd classes."""
    mesh, _ = grid3
    doubled = {e: (2 * s[0], 2 * s[1])
               for e, s in helpers.canonical_shift_dict(mesh).items()}
    rebuilt = helpers.mesh_of([tuple(f) for f in mesh.faces], doubled)
    monkeypatch.setattr(torustutte.mesh, "deque", None)  # raised before the state search
    with pytest.raises(NoGeneratorLoopError, match="do not generate Z"):
        generator_loops(rebuilt)


@functools.cache
def loop_search_bases():
    """The meshes of ``loop_search_inputs`` before any re-gauging, by name."""
    bases = {"k7": gen_k7()[0], **{f"grid{m}": gen_grid(m)[0] for m in (3, 4, 5, 6, 12)}}
    for m, seed in ((8, 11), (12, 12), (5, 5)):
        faces, shifts = helpers.random_diagonal_grid(m, np.random.default_rng(seed))
        bases[f"diagonal{m}"] = helpers.mesh_of(faces, shifts)
    return bases


def loop_search_inputs():
    bases = loop_search_bases()
    names = ("k7", "grid3", "grid4", "grid5", "grid6", "grid12", "diagonal8", "diagonal12")
    meshes = [(name, bases[name]) for name in names]
    rng = np.random.default_rng(29)
    meshes += [
        (f"{name} regauged", helpers.regauged(mesh, rng.integers(-2, 3, (mesh.vertex_count, 2)).tolist()))
        for name, mesh in meshes
    ]
    # Wide re-gaugings make the oracle's [-V, V] clamp bind. It finds no
    # loop on k7 at spreads 10-30 nor on grid3 and grid4 at spread 30,
    # and longer ones on 'grid3 spread 20', 'grid4 spread 20' and
    # 'grid5 spread 30'.
    small = [(name, bases[name]) for name in ("k7", "grid3", "grid4", "grid5", "diagonal5")]
    rng = np.random.default_rng(31)
    meshes += [
        (f"{name} spread {s}", helpers.regauged(mesh, rng.integers(-s, s + 1, (mesh.vertex_count, 2)).tolist()))
        for name, mesh in small
        for s in (5, 10, 20, 30)
    ]
    # Largest shift 7 = V: the oracle's clamp binds from the first step.
    t = [(-4, 1), (3, -2), (1, -2), (1, -2), (1, -4), (0, -3), (4, -2)]
    meshes.append(("k7 clamp binds at once", helpers.regauged(bases["k7"], t)))
    return meshes


@pytest.mark.parametrize("name, mesh", loop_search_inputs())
def test_loops_match_all_starts_oracle(name, mesh):
    """Walks through vertex 0 are gauge-free and no longer than the oracle's loops.

    Each walk starts at 0, closes with the exact shift sum and equals the
    walk of the mesh before re-gauging. The oracle searches from every
    start under a gauge-dependent clamp: without a wide re-gauging
    ("spread") its loops have the same lengths, with one it may return
    longer loops or none.
    """
    loops = generator_loops(mesh)
    base = generator_loops(loop_search_bases()[name.split()[0]])
    for loop, same, target in ((loops.horizontal, base.horizontal, (1, 0)),
                               (loops.vertical, base.vertical, (0, 1))):
        assert loop[0] == 0
        assert_valid_loop(mesh, loop, target)
        assert loop == same
        expected = helpers.oracle_shortest_loop(mesh, target)
        if "spread" not in name:
            assert len(loop) == len(expected)
        elif expected is not None:
            assert len(loop) <= len(expected)


@pytest.mark.parametrize("name, mesh", loop_search_inputs())
def test_loops_match_csgraph_search(name, mesh):
    """The walks are those of the search in the gauge of SciPy's tree."""
    assert generator_loops(mesh) == helpers.csgraph_generator_loops(mesh)


@pytest.mark.parametrize("spread", [30, 10**4, 10**6])
@pytest.mark.parametrize("name", ["grid3", "grid4", "grid5", "k7", "diagonal5"])
def test_loops_do_not_depend_on_the_gauge(name, spread):
    mesh = loop_search_bases()[name]
    t = np.random.default_rng(0).integers(-spread, spread + 1, (mesh.vertex_count, 2))
    assert generator_loops(helpers.regauged(mesh, t.tolist())) == generator_loops(mesh)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("m", [16, 18])
def test_random_diagonal_loops_have_minimum_length(m, seed):
    """Each edge moves at most one cell, and row 0 and column 0 are walks of m edges."""
    mesh = helpers.mesh_of(*helpers.random_diagonal_grid(m, np.random.default_rng(seed)))
    loops = generator_loops(mesh)
    assert (len(loops.horizontal), len(loops.vertical)) == (m, m)
    assert_valid_loop(mesh, loops.horizontal, (1, 0))
    assert_valid_loop(mesh, loops.vertical, (0, 1))


def test_generator_loops_grid40():
    mesh, _ = gen_grid(40)
    loops = generator_loops(mesh)
    assert len(loops.horizontal) == 40
    assert len(loops.vertical) == 40
    assert_valid_loop(mesh, loops.horizontal, (1, 0))
    assert_valid_loop(mesh, loops.vertical, (0, 1))


def test_loop_search_memory_peak():
    """The loop search of an 18 x 18 mesh peaks at most at 4 MiB."""
    faces, shifts = helpers.random_diagonal_grid(18, np.random.default_rng(3))
    mesh = helpers.mesh_of(faces, shifts)
    tracemalloc.start()
    try:
        generator_loops(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_loop_length_exact_when_smallest_vertex_does_not_wrap():
    """Moving both seams off vertex 0 changes neither walk."""
    mesh, _ = gen_grid(4)
    moved = helpers.regauged(mesh, [(int(v % 4 == 3), int(v >= 12)) for v in range(16)])
    assert not moved.shifts[moved.directed_edges[:, 0] == 0].any()
    loops = generator_loops(moved)
    assert_valid_loop(moved, loops.horizontal, (1, 0))
    assert_valid_loop(moved, loops.vertical, (0, 1))
    assert loops == generator_loops(mesh)


# ---------------------------------------------------------------------------
# Array build against the dict-based reference builder

TABLES = ("edge_count", "directed_edges", "shifts", "reverse_index", "face_edges")


def reference_inputs():
    yield "k7", gen_k7()[0]
    for m in (3, 4, 5, 6):
        yield f"grid{m}", gen_grid(m)[0]
    faces, shifts = helpers.random_diagonal_grid(8, np.random.default_rng(11))
    yield "diagonal8", helpers.mesh_of(faces, shifts)


@pytest.mark.parametrize("name, mesh", list(reference_inputs()))
def test_tables_match_reference_builder(name, mesh):
    expected = helpers.oracle_mesh_tables(
        [tuple(f) for f in mesh.faces], helpers.canonical_shift_dict(mesh), mesh.vertex_count
    )
    for table in TABLES:
        got = getattr(mesh, table)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.int32, table
            assert np.array_equal(got, expected[table]), table
        else:
            assert got == expected[table], table
    assert np.array_equal(helpers.opposite_vertex(mesh), expected["opposite_vertex"])
    assert np.array_equal(helpers.face_of_edge(mesh), expected["face_of_edge"])
    offsets, ring = mesh.rotation_offsets, mesh.rotation_edges
    for v in range(mesh.vertex_count):
        edges = mesh.directed_edges[ring[offsets[v]:offsets[v + 1]]]
        assert tuple(edges[:, 1]) == expected["rotation"][v]
        assert (edges[:, 0] == v).all()


FIXTURE_TABLES = (
    "faces", "directed_edges", "shifts", "reverse_index",
    "face_edges", "rotation_offsets", "rotation_edges",
)


@pytest.mark.parametrize("m", [None, 3, 4, 7, 16], ids=["k7", "grid3", "grid4", "grid7", "grid16"])
def test_fixtures_match_cell_by_cell_builders(m):
    if m is None:
        (mesh, placement), (expected, expected_placement) = gen_k7(), helpers.oracle_gen_k7()
    else:
        (mesh, placement), (expected, expected_placement) = gen_grid(m), helpers.oracle_gen_grid(m)
    for table in FIXTURE_TABLES:
        got, want = getattr(mesh, table), getattr(expected, table)
        assert got.dtype == want.dtype, table
        assert np.array_equal(got, want), table
    assert placement.coords.dtype == expected_placement.coords.dtype
    assert placement.coords.tobytes() == expected_placement.coords.tobytes()


def corrupted_inputs():
    mesh, _ = gen_grid(3)
    faces = [tuple(int(v) for v in f) for f in mesh.faces]
    shifts = helpers.canonical_shift_dict(mesh)
    seam = next(e for e, s in shifts.items() if s != (0, 0))
    yield "repeat", [(0, 0, 4)] + faces[1:], shifts, None
    yield "flipped", faces[:5] + [faces[5][::-1]] + faces[6:], shifts, None
    yield "duplicate", faces + [faces[0]], shifts, None
    yield "missing", faces[:-1], shifts, None
    yield "huge id", [(0, 1, 2**40)] + faces[1:], None, None
    yield "sphere", helpers.sphere_faces(), None, None
    yield "pinched", helpers.pinched_sphere_faces(), None, None
    yield "two tori", faces + [tuple(v + 9 for v in f) for f in faces], shifts, None
    yield "too few", faces, shifts, 5
    yield "isolated", faces, shifts, 10
    yield "non-edge", faces, {**shifts, (0, 5): (1, 0)}, None
    yield "conflict", faces, {**shifts, seam[::-1]: shifts[seam]}, None
    yield "cocycle", faces, {**shifts, seam: (shifts[seam][0], shifts[seam][1] + 1)}, None
    yield "zero shifts", faces, {}, None
    # both faces of edge 4-8, (4, 5, 8) and (4, 8, 7), carry no other shift
    yield "lone shift", faces, {**shifts, (4, 8): (0, 1)}, None
    yield "explicit zero shifts", faces, {(int(i), int(j)): (0, 0) for i, j in mesh.directed_edges}, None
    # two conflicting pairs, the later one in corner order listed first,
    # and a cocycle violation that is never reached
    yield "conflicts and cocycle", faces, {
        (6, 5): shifts[(5, 6)], **shifts, seam[::-1]: shifts[seam], (4, 8): (0, 1)
    }, None
    yield "non-edge and conflict", faces, {seam[::-1]: shifts[seam], **shifts, (0, 5): (1, 0)}, None
    yield "whole-float non-edge", faces, {**shifts, (0.0, 5.0): (1, 0)}, None


@pytest.mark.parametrize("name, faces, shifts, vertex_count", list(corrupted_inputs()))
def test_errors_match_reference_builder(name, faces, shifts, vertex_count):
    """Same MeshError subclass and message as the dict-based builder."""
    try:
        helpers.oracle_mesh_tables(faces, shifts, vertex_count)
    except MeshError as exc:
        expected = exc
    else:
        expected = None
    if expected is None:
        helpers.mesh_of(faces, shifts, vertex_count)
        return
    with pytest.raises(type(expected)) as caught:
        helpers.mesh_of(faces, shifts, vertex_count)
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)


def test_huge_vertex_id_names_its_edge(grid3):
    """Edge keys cannot overflow: a 2**40 id still names the lone edge."""
    mesh, _ = grid3
    faces = [list(f) for f in mesh.faces]
    faces[0][2] = 2**40
    with pytest.raises(NonManifoldEdgeError, match=r"\{1, 1099511627776\}"):
        build_mesh(faces)


@pytest.mark.parametrize("vertex", [2**70, -2**70, 2**63])
def test_vertex_id_outside_int64_names_its_face(grid3, vertex):
    mesh, _ = grid3
    faces = [tuple(f) for f in mesh.faces.tolist()]
    faces[4] = (faces[4][0], faces[4][1], vertex)
    with pytest.raises(ValueError, match=r"^faces row 4 holds a number outside int64$"):
        build_mesh(faces)


def test_whole_floats_read_as_integers_and_fractions_rejected(grid3):
    """Integral floats build the same mesh; the first fraction is named, not truncated."""
    mesh, _ = grid3
    faces = mesh.faces.tolist()
    shifts = helpers.canonical_shift_dict(mesh)
    rebuilt = helpers.mesh_of(
        [[float(v) for v in f] for f in faces],
        {(float(i), j): (float(bx), by) for (i, j), (bx, by) in shifts.items()},
        vertex_count=9.0,
    )
    for table in ("faces", "shifts", "directed_edges"):
        assert np.array_equal(getattr(rebuilt, table), getattr(mesh, table)), table
    assert rebuilt.vertex_count == 9 and type(rebuilt.vertex_count) is int
    bad = [list(f) for f in faces]
    bad[2][1], bad[5][0] = 2.5, 0.25
    with pytest.raises(ValueError, match=r"^faces row 2: 2.5 is not an integer$"):
        helpers.mesh_of(bad, shifts)
    bad[2][1] = float("nan")
    with pytest.raises(ValueError, match=r"^faces row 2: nan is not an integer$"):
        helpers.mesh_of(bad, shifts)
    row = list(shifts).index((0, 1))
    with pytest.raises(ValueError, match=rf"^shifts row {row}: 0.5 is not an integer$"):
        helpers.mesh_of(faces, {**shifts, (0, 1): (0.5, 0)})
    with pytest.raises(ValueError, match=r"^vertex_count row 0: inf is not an integer$"):
        helpers.mesh_of(faces, shifts, vertex_count=float("inf"))
    with pytest.raises(ValueError, match=r"^faces row 0: '0' is not a number$"):
        helpers.mesh_of([[str(v) for v in f] for f in faces], shifts)
    with pytest.raises(ValueError, match=r"^shifts row 0: '1' is not a number$"):
        helpers.mesh_of(faces, {(0, 1): ("1", "0")})


def test_edge_index_view(grid4, k7):
    for mesh in (grid4[0], k7[0]):
        for k, (i, j) in enumerate(mesh.directed_edges.tolist()):
            assert mesh.edge_ids(i, j) == k
            assert mesh.edge_ids(np.int64(i), np.int64(j)) == k
        n = mesh.vertex_count
        for bad in ((n, 0), (0, n), (-1, 0), (0, -1), (2**70, 0), (0, 0)):
            assert mesh.edge_ids(*bad) == -1
    mesh, _ = grid4
    assert mesh.edge_ids(0, 2) == -1  # same row, not adjacent
    ids = mesh.edge_ids(mesh.directed_edges[:, 0], mesh.directed_edges[:, 1])
    assert np.array_equal(ids, np.arange(len(mesh.directed_edges)))
    assert mesh.edge_ids([0, 0, -1, 16], [1, 2, 1, 0]).tolist() == [0, -1, -1, -1]


def test_edge_ids_keys_do_not_overflow():
    """n**2 > 2**31 at 46 656 vertices: lookup keys must be built in int64."""
    mesh, _ = gen_grid(216)
    assert mesh.vertex_count**2 > 2**31
    ids = mesh.edge_ids(mesh.directed_edges[:, 0], mesh.directed_edges[:, 1])
    assert np.array_equal(ids, np.arange(len(mesh.directed_edges)))


def test_mesh_footprint_after_loops_and_retract():
    """An 18 x 18 mesh keeps at most 90 KiB once its loops and a retraction ran."""
    faces, shifts = helpers.random_diagonal_grid(18, np.random.default_rng(3))
    values = np.random.default_rng(4).uniform(0.5, 2.0, 6 * 18 * 18)

    def kept():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mesh = helpers.mesh_of(faces, shifts)
            generator_loops(mesh)
            retract(mesh, WeightAssignment(values))
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    kept()  # first use fills import-time and isinstance caches
    assert kept() <= 90 * 1024
