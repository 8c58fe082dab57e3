import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import box_walls, chunked_check_f_triples, random_rotation

from echopath import (
    Arrangement,
    ConcurrentLinesError,
    Hyperplane,
    dihedral_counterexample,
    distance_automorphisms,
    eval_g,
    eval_h,
    genericity_check,
    pairwise_squared_distances,
    reflect_point,
)
from echopath import symmetry
from echopath.symmetry import _check_f_pairs, _check_f_triples

X0 = Hyperplane([1, 0], 0.0)
X16 = Hyperplane([1, 0], 16.0)
Y0 = Hyperplane([0, 1], 0.0)
Y10 = Hyperplane([0, 1], 10.0)
RECT = Arrangement((X0, X16, Y0, Y10), 2)


def normals_of(hs):
    """The unit normals of hyperplanes as rows, as Arrangement.normals holds them."""
    return np.stack([h.normal for h in hs])


def test_eval_g_reflection_coincidence():
    v = [3.0, 2.0]
    val = eval_g(X0, Y0, X0, v)
    assert val < 0.0
    assert val == pytest.approx(-np.sum((reflect_point(Y0, v) - v) ** 2))


def test_eval_g_vanishes_when_both_terms_do():
    v = [0.0, 0.0]  # on X0, X16? no: on X0, Y0
    assert eval_g(X0, Y0, X0, v) == 0.0


def test_eval_g_rectangle_value():
    # oracle by direct reflection: ||(-6,7)-(26,7)||^2 - ||(6,-7)-(6,7)||^2
    w1 = reflect_point(X0, [6.0, 7.0])
    w3 = reflect_point(X16, [6.0, 7.0])
    w2 = reflect_point(Y0, [6.0, 7.0])
    expected = np.sum((w1 - w3) ** 2) - np.sum((w2 - [6.0, 7.0]) ** 2)
    assert expected == 1024.0 - 196.0
    assert eval_g(X0, Y0, X16, [6.0, 7.0]) == pytest.approx(828.0)


def test_eval_h_examples():
    assert eval_h(X0, Y0, [2.0, 2.0]) == pytest.approx(0.0)
    assert eval_h(X0, Y0, [3.0, 1.0]) == pytest.approx(32.0)
    for y in (-3.0, 0.0, 7.5):
        assert eval_h(X0, X16, [8.0, y]) == pytest.approx(0.0)


def test_eval_h_identical_planes_rejected():
    with pytest.raises(ValueError):
        eval_h(X0, Hyperplane([-1, 0], 0.0), [1.0, 1.0])


def test_genericity_rectangle_center_fails_on_h():
    report = genericity_check(RECT, [8.0, 5.0])
    assert not report.passed
    assert report.failed_factor.kind == "h"
    assert abs(report.failed_factor.value) <= 1e-12


def test_genericity_rectangle_generic_point_passes():
    report = genericity_check(RECT, [6.3, 7.1])
    assert report.passed
    assert report.failed_factor is None


def test_genericity_constant_mirror_distance_line_fails():
    # Opposite walls y=0, y=10 give mirror points exactly 20 apart for any
    # speaker, and at x=6 the distance to the wall x=16 is also 10, so a g
    # factor vanishes on the whole line x=6.
    w2 = reflect_point(Y0, [6.0, 7.0])
    w3 = reflect_point(Y10, [6.0, 7.0])
    assert np.linalg.norm(w2 - w3) == pytest.approx(20.0)
    report = genericity_check(RECT, [6.0, 7.0])
    assert not report.passed
    assert report.failed_factor.kind == "g"


def test_genericity_report_consistency_enforced():
    from echopath import GenericityReport

    GenericityReport(passed=True, failed_factor=None)
    with pytest.raises(ValueError):
        GenericityReport(passed=False, failed_factor=None)


def test_dihedral_counterexample_line_angles():
    tri = dihedral_counterexample(3)
    directions = [np.arctan2(-h.normal[0], h.normal[1]) % np.pi for h in tri.hyperplanes]
    assert np.allclose(sorted(directions), [0.0, np.pi / 3, 2 * np.pi / 3])
    quad = dihedral_counterexample(4)
    directions4 = sorted(np.arctan2(-h.normal[0], h.normal[1]) % np.pi for h in quad.hyperplanes)
    assert np.allclose(directions4, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])


def test_dihedral_counterexample_requires_three_lines():
    with pytest.raises(ValueError):
        dihedral_counterexample(2)


def test_dihedral_reflections_form_regular_polygon():
    # trig oracle: reflecting across the line at angle t maps an angle-phi
    # point to angle 2t - phi, so consecutive reflections differ by a fixed
    # rotation and all pairwise neighbor distances agree
    rng = np.random.default_rng(7)
    for k in (3, 4, 5, 7):
        arr = dihedral_counterexample(k)
        for _ in range(25):
            v = rng.uniform(-10, 10, 2)
            refl = arr.reflections(v)
            r = np.linalg.norm(v)
            assert np.allclose(np.linalg.norm(refl, axis=1), r, atol=1e-10)
            ring = sorted(np.arctan2(p[1], p[0]) % (2 * np.pi) for p in refl)
            gaps = np.diff(ring + [ring[0] + 2 * np.pi])
            assert np.allclose(gaps, 2 * np.pi / k, atol=1e-9)


def test_dihedral_triangle_equilateral():
    tri = dihedral_counterexample(3)
    refl = tri.reflections([2.0, 1.0])
    d = np.sqrt(pairwise_squared_distances(refl))
    sides = [d[0, 1], d[0, 2], d[1, 2]]
    assert max(sides) - min(sides) < 1e-10


def test_genericity_rejects_concurrent_lines_by_default():
    tri = dihedral_counterexample(3)
    with pytest.raises(ConcurrentLinesError):
        genericity_check(tri, [2.0, 1.0])


def test_genericity_dihedral_fails_identically_when_forced():
    tri = dihedral_counterexample(3)
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.uniform(-5, 5, 2)
        report = genericity_check(tri, v, allow_concurrent=True)
        assert not report.passed
        assert report.failed_factor.kind == "f"


def test_measure_zero_failure_2d_rectangle():
    rng = np.random.default_rng(9)
    fails = 0
    for _ in range(300):
        v = rng.uniform([0.2, 0.2], [15.8, 9.8])
        if not genericity_check(RECT, v).passed:
            fails += 1
    # the vanishing set is a finite union of curves; hitting its 1e-9
    # neighborhood is essentially impossible, but the lines x=6 and x=10
    # are not sampled exactly either
    assert fails == 0


def test_distance_automorphisms_equilateral_triangle():
    pts = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    autos = distance_automorphisms(pts, 1e-9)
    assert len(autos) == 6
    assert (0, 1, 2) in autos


def test_distance_automorphisms_scalene():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    assert distance_automorphisms(pts, 1e-9) == [(0, 1, 2)]


def test_distance_automorphisms_rectangle_mirror_points():
    refl = RECT.reflections([6.0, 7.0])
    assert distance_automorphisms(refl, 1e-9) == [(0, 1, 2, 3)]


def test_distance_automorphisms_size_limit():
    with pytest.raises(ValueError):
        distance_automorphisms(np.zeros((11, 2)))


def test_square_has_dihedral_automorphisms():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert len(distance_automorphisms(square, 1e-9)) == 8


def test_passing_check_implies_trivial_automorphisms():
    rng = np.random.default_rng(10)
    walls = (
        Hyperplane([1, 0, 0], 0.0),
        Hyperplane([0.2, 1, 0], 4.8),
        Hyperplane([0, 0.1, 1], 0.0),
        Hyperplane([1, 0.3, -0.2], 6.1),
        Hyperplane([-0.1, 1, 0.4], -0.7),
    )
    arr = Arrangement(walls, 3)
    checked = 0
    for _ in range(40):
        v = rng.uniform(-4, 4, 3)
        if not genericity_check(arr, v).passed:
            continue
        checked += 1
        refl = arr.reflections(v)
        assert distance_automorphisms(refl, 1e-8) == [tuple(range(len(walls)))]
    assert checked >= 30


def test_reflection_distance_uniqueness_on_passing_points():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.uniform([0.2, 0.2], [15.8, 9.8])
        report = genericity_check(RECT, v, tol=1e-9)
        if not report.passed:
            continue
        refl = RECT.reflections(v)
        rdist = np.linalg.norm(refl - v, axis=1)
        scale = rdist.max()
        margin = 1e-9 * scale / 4.0
        for i, j in itertools.combinations(range(len(refl)), 2):
            assert abs(rdist[i] - rdist[j]) > margin
        for b in range(len(refl)):
            for a, c in itertools.permutations(range(len(refl)), 2):
                pair = np.linalg.norm(refl[a] - refl[c])
                assert abs(rdist[b] - pair) > margin


def test_arrangement_rejects_duplicate_planes():
    with pytest.raises(ValueError):
        Arrangement((X0, Hyperplane([-1, 0], 0.0)), 2)
    with pytest.raises(ValueError):
        Arrangement((X0, X0), 2)


def test_arrangement_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Arrangement((X0, Hyperplane([1, 0, 0], 1.0)), 2)


def test_arrangement_names_the_first_duplicate_pair_in_combinations_order():
    # Duplicates (1, 2) and (0, 3): a column-first scan would name (1, 2).
    hs = (X0, Y0, Hyperplane([0, -1], 0.0), Hyperplane([2, 0], 0.0))
    with pytest.raises(ValueError, match="hyperplanes 0 and 3 describe the same plane"):
        Arrangement(hs, 2)


def first_same_plane_pair(hs):
    """Reference: the first pair in combinations order that same_plane joins."""
    for i, j in itertools.combinations(range(len(hs)), 2):
        if hs[i].same_plane(hs[j]):
            return i, j
    return None


def test_arrangement_duplicate_check_equals_same_plane_on_near_duplicates():
    rng = np.random.default_rng(31)
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        k = int(rng.integers(2, 9))
        normals = rng.normal(size=(k, dim))
        offsets = rng.uniform(-3, 3, k)
        # Copies nudged by less or more than the 1e-9 tolerance, some flipped.
        for t in rng.choice(k, size=int(rng.integers(0, 3)), replace=False):
            src = int(rng.integers(k))
            sign = rng.choice([-1.0, 1.0])
            shift = rng.choice([0.0, 3e-10, 3e-9])
            normals[t] = sign * normals[src] + shift * rng.normal(size=dim)
            offsets[t] = sign * offsets[src] * np.linalg.norm(normals[t]) / np.linalg.norm(
                normals[src]
            ) + shift * rng.normal()
        hs = tuple(Hyperplane(n, o) for n, o in zip(normals, offsets))
        expected = first_same_plane_pair(hs)
        if expected is None:
            Arrangement(hs, dim)
        else:
            with pytest.raises(ValueError, match=f"hyperplanes {expected[0]} and {expected[1]} "):
                Arrangement(hs, dim)


def test_arrangement_reflections_equal_reflect_point_bit_for_bit():
    rng = np.random.default_rng(32)
    rooms = [tuple(w.plane for w in box_walls(6.0, 5.0, 3.0)), RECT.hyperplanes]
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        rooms.append(
            tuple(
                Hyperplane(rng.normal(size=dim) * rng.uniform(0.1, 10), rng.uniform(-5, 5))
                for _ in range(int(rng.integers(1, 20)))
            )
        )
    for hs in rooms:
        a = Arrangement(hs, hs[0].dim)
        for _ in range(5):
            v = rng.uniform(-5, 5, a.dimension) * 10 ** rng.uniform(-3, 3)
            expected = np.stack([reflect_point(h, v) for h in hs])
            assert np.array_equal(a.reflections(v), expected)


def loop_check_f_pairs(hs, pair_sq, threshold):
    """Reference: the f-factor scan over pairs as an explicit double loop."""
    k = len(hs)
    normals = np.stack([h.normal for h in hs])
    indep_pairs = [
        (i, j)
        for i, j in itertools.combinations(range(k), 2)
        if abs(np.linalg.det(normals[[i, j]])) > 1e-9
    ]
    all_pairs = [(i, j) for i in range(k) for j in range(i, k)]
    for t in indep_pairs:
        for other in all_pairs:
            f = pair_sq[t[0], t[1]] - pair_sq[other[0], other[1]]
            if other != t and abs(f) <= threshold:
                return (t, other), f
    return None


def f_pairs_outcome(hs, pair_sq, threshold):
    report = _check_f_pairs(normals_of(hs), pair_sq, threshold)
    if report.passed:
        return None
    assert report.failed_factor.kind == "f"
    return report.failed_factor.planes, report.failed_factor.value


def test_check_f_pairs_matches_loop_reference_on_random_arrangements():
    rng = np.random.default_rng(10)
    for _ in range(60):
        k = int(rng.integers(2, 8))
        angles = rng.uniform(0, np.pi, k)
        angles[rng.integers(k)] = angles[0]  # sometimes a parallel pair
        hs = [Hyperplane([np.cos(a), np.sin(a)], rng.uniform(-5, 5)) for a in angles]
        pair_sq = pairwise_squared_distances(rng.uniform(-5, 5, (k, 2)))
        # Thresholds from none to many hits exercise the scan order.
        diffs = np.abs(pair_sq[:, :, None, None] - pair_sq[None, None, :, :])
        for threshold in (0.0, *np.quantile(diffs[diffs > 0], [0.01, 0.2, 0.9])):
            assert f_pairs_outcome(hs, pair_sq, threshold) == loop_check_f_pairs(
                hs, pair_sq, threshold
            )


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_check_f_pairs_matches_loop_reference_on_dihedral_counterexample(k):
    hs = dihedral_counterexample(k).hyperplanes
    rng = np.random.default_rng(k)
    for _ in range(10):
        v = rng.uniform(-5, 5, 2)
        pair_sq = pairwise_squared_distances(np.stack([reflect_point(h, v) for h in hs]))
        threshold = 1e-9 * float(np.max(pair_sq))
        expected = loop_check_f_pairs(hs, pair_sq, threshold)
        assert expected is not None
        assert f_pairs_outcome(hs, pair_sq, threshold) == expected


def loop_check_f_triples(hs, pair_sq, threshold):
    """Reference: the f-factor scan over ordered triples as an explicit double loop."""
    normals = np.stack([h.normal for h in hs])
    triples = list(itertools.product(range(len(hs)), repeat=3))
    for t in triples:
        if abs(np.linalg.det(normals[list(t)])) <= 1e-9:
            continue
        for other in triples:
            f = sum(
                (pair_sq[t[x], t[y]] - pair_sq[other[x], other[y]]) ** 2
                for x, y in ((0, 1), (0, 2), (1, 2))
            )
            if other != t and np.sqrt(f) <= threshold:
                return (t, other), f
    return None


def ordered_key(pair_sq, t):
    return np.array([pair_sq[t[0], t[1]], pair_sq[t[0], t[2]], pair_sq[t[1], t[2]]])


def least_ordered_factor(pair_sq, first, second):
    """Reference: the least f factor between distinct orderings of two wall sets."""
    return min(
        float(np.sum((ordered_key(pair_sq, a) - ordered_key(pair_sq, b)) ** 2))
        for a in set(itertools.permutations(first))
        for b in set(itertools.permutations(second))
        if a != b
    )


def f_triples_passed(hs, pair_sq, threshold):
    """_check_f_triples' verdict, once its report (if any) is checked.

    A report names two wall sets in increasing wall order, the first with
    independent normals, and their least factor over all orderings: the
    sum of squared differences of their sorted keys, or 2 g^2 when one set
    is named twice, g the least gap of its sorted key. Its square root is
    within the threshold.
    """
    normals = normals_of(hs)
    report = _check_f_triples(normals, pair_sq, threshold)
    if report.passed:
        return True
    f = report.failed_factor
    first, second = f.planes
    assert f.kind == "f" and list(first) == sorted(first) and list(second) == sorted(second)
    assert abs(np.linalg.det(normals[list(first)])) > 1e-9
    key = np.sort(ordered_key(pair_sq, first))
    g = np.diff(key).min()
    diff = key - np.sort(ordered_key(pair_sq, second))
    assert f.value == (2.0 * g * g if first == second else np.sum(diff**2))
    assert f.value == pytest.approx(least_ordered_factor(pair_sq, first, second), rel=1e-12)
    assert np.sqrt(f.value) <= threshold
    return False


def with_edges(thresholds, first_factor):
    """The thresholds, then for each one that fails the reference, the edge
    sqrt(f) of its first failing factor f and the float just below it."""
    out = list(thresholds)
    for threshold in thresholds:
        f = first_factor(threshold)
        if f is not None:
            edge = float(np.sqrt(f))
            out += [edge, float(np.nextafter(edge, 0.0))]
    return out


def mirror_pair_sq(hs, v):
    return pairwise_squared_distances(np.stack([reflect_point(h, v) for h in hs]))


def chunked_factor(hs, pair_sq):
    """The first failing factor of chunked_check_f_triples at a threshold, or None."""

    def first_factor(threshold):
        report = chunked_check_f_triples(hs, pair_sq, threshold)
        return None if report.passed else report.failed_factor.value

    return first_factor


def test_check_f_triples_matches_loop_reference_on_random_arrangements():
    rng = np.random.default_rng(12)
    for _ in range(12):
        k = int(rng.integers(3, 7))
        normals = rng.normal(size=(k, 3))
        normals[rng.integers(k)] = normals[0]  # sometimes two parallel walls
        hs = [Hyperplane(nv / np.linalg.norm(nv), rng.uniform(-3, 3)) for nv in normals]
        v = rng.uniform(-1, 1, 3)
        pair_sq = pairwise_squared_distances(np.stack([reflect_point(h, v) for h in hs]))
        # Thresholds from none to many hits, and each first hit's edge.
        vec = pair_sq[np.triu_indices(k, 1)]
        gaps = np.abs(vec[:, None] - vec[None, :])
        thresholds = (0.0, *np.quantile(gaps[gaps > 0], [0.01, 0.2, 0.9]))

        def loop_factor(threshold):
            expected = loop_check_f_triples(hs, pair_sq, threshold)
            return None if expected is None else expected[1]

        for threshold in with_edges(thresholds, loop_factor):
            expected = loop_check_f_triples(hs, pair_sq, threshold)
            assert f_triples_passed(hs, pair_sq, threshold) == (expected is None)


@pytest.mark.parametrize("k", [3, 5, 8, 11, 14])
def test_check_f_triples_equals_chunked_scan_on_random_arrangements(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(2):
        normals = rng.normal(size=(k, 3))
        normals[rng.integers(1, k)] = normals[0]  # two parallel walls
        hs = [Hyperplane(nv, rng.uniform(-3, 3)) for nv in normals]
        pair_sq = mirror_pair_sq(hs, rng.uniform(-1, 1, 3))
        vec = pair_sq[np.triu_indices(k, 1)]
        gaps = np.abs(vec[:, None] - vec[None, :])
        # Thresholds from none to many hits, and each first hit's edge.
        thresholds = (0.0, *np.quantile(gaps[gaps > 0], [0.001, 0.05, 0.5]))
        for threshold in with_edges(thresholds, chunked_factor(hs, pair_sq)):
            expected = chunked_check_f_triples(hs, pair_sq, threshold).passed
            assert f_triples_passed(hs, pair_sq, threshold) == expected


def test_check_f_triples_equals_chunked_scan_on_boxes_with_exact_ties():
    rng = np.random.default_rng(13)
    for _ in range(12):
        lx, ly, lz = rng.integers(1, 5, 3).astype(float)
        hs = [
            Hyperplane([1, 0, 0], 0.0), Hyperplane([1, 0, 0], lx),
            Hyperplane([0, 1, 0], 0.0), Hyperplane([0, 1, 0], ly),
            Hyperplane([0, 0, 1], 0.0), Hyperplane([0, 0, 1], lz),
            Hyperplane([1, 1, 0], 1.0),
        ]
        pair_sq = mirror_pair_sq(hs, rng.integers(0, 9, 3) / 2.0)
        for threshold in with_edges((0.0, 1e-9, 0.5, 3.0), chunked_factor(hs, pair_sq)):
            expected = chunked_check_f_triples(hs, pair_sq, threshold).passed
            assert f_triples_passed(hs, pair_sq, threshold) == expected


def test_check_f_triples_memory_stays_bounded_on_icosahedron():
    # The 20 face planes of an icosahedron, speaker at its centre: the mirror
    # points are the vertices of a dodecahedron, so the pair distances take
    # few values and the near-duplicate windows hold millions of pairs.
    phi = (1 + 5**0.5) / 2
    verts = [list(c) for c in itertools.product((-1.0, 1.0), repeat=3)]
    for a, b in itertools.product((-1.0, 1.0), repeat=2):
        verts += [[0, a / phi, b * phi], [a / phi, b * phi, 0], [a * phi, 0, b / phi]]
    hs = [Hyperplane(v, 2.0) for v in verts]
    pair_sq = mirror_pair_sq(hs, np.zeros(3))
    threshold = 1e-9 * 16.0
    tracemalloc.start()
    try:
        report = _check_f_triples(normals_of(hs), pair_sq, threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert not report.passed and not f_triples_passed(hs, pair_sq, threshold)
    assert not chunked_check_f_triples(hs, pair_sq, threshold).passed


def test_generic_speakers_break_every_symmetry_in_3d():
    # The paper's claim: in dimension 3 a speaker in generic position breaks
    # every reflection symmetry, here for 30 random rooms of 6 to 40 walls.
    rng = np.random.default_rng(2024)
    for k in np.linspace(6, 40, 30).astype(int):
        hs = tuple(Hyperplane(rng.normal(size=3), rng.uniform(-5, 5)) for _ in range(k))
        report = genericity_check(Arrangement(hs, 3), rng.uniform(-5, 5, 3))
        assert report.passed, (k, report.failed_factor)


def test_speaker_on_a_mirror_plane_of_a_box_fails():
    hs = tuple(Hyperplane(n, off) for n in np.eye(3) for off in (0.0, 4.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        y, z = rng.uniform(0.5, 3.5, 2)
        report = genericity_check(Arrangement(hs, 3), [2.0, y, z])  # x = 2 mirrors the box
        assert not report.passed


@pytest.mark.parametrize("tol", [-1e-9, np.nan, np.inf])
def test_genericity_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        genericity_check(RECT, [8.0, 5.0], tol=tol)


@pytest.mark.parametrize("dim", [1, 4])
def test_genericity_rejects_unsupported_dimensions(dim, monkeypatch):
    def no_factors(*args, **kwargs):
        raise AssertionError("a factor was computed")

    monkeypatch.setattr(symmetry, "pairwise_squared_distances", no_factors)
    rng = np.random.default_rng(dim)
    for walls in (1, 3, 6):
        hs = tuple(
            Hyperplane(rng.normal(size=dim), off) for off in rng.uniform(-3.0, 3.0, walls)
        )
        with pytest.raises(ValueError, match=f"supports dimensions 2 and 3, got {dim}"):
            genericity_check(Arrangement(hs, dim), rng.uniform(-1.0, 1.0, dim))


@pytest.mark.parametrize("k", range(3, 13))
def test_screened_f_stage_equals_the_ordered_scans(k):
    rng = np.random.default_rng(300 + k)
    for _ in range(3 if k < 10 else 1):
        normals = rng.normal(size=(k, 3))
        normals[rng.integers(1, k)] = rng.choice([-1.0, 1.0]) * normals[0]  # a repeated normal
        hs = [Hyperplane(nv, rng.uniform(-3, 3)) for nv in normals]
        pair_sq = mirror_pair_sq(hs, rng.uniform(-1, 1, 3))
        vec = pair_sq[np.triu_indices(k, 1)]
        gaps = np.abs(vec[:, None] - vec[None, :])
        # Thresholds from none to many hits, and each first hit's own sqrt(f),
        # on the edge of a hit, and the float just below it.
        thresholds = (0.0, *np.quantile(gaps[gaps > 0], [0.001, 0.05, 0.5]))
        for threshold in with_edges(thresholds, chunked_factor(hs, pair_sq)):
            expected = chunked_check_f_triples(hs, pair_sq, threshold).passed
            assert f_triples_passed(hs, pair_sq, threshold) == expected


def mirror_walls(points):
    """Planes whose mirror images of the origin are the given points."""
    return tuple(Hyperplane(p, float(p @ p) / 2.0) for p in np.asarray(points, dtype=float))


# Mirror points of the origin: walls 0 and 1 are equidistant from wall 2's,
# so swapping them keeps the triangle (d02 = d12 = 15.25), but no g or h
# factor vanishes (squared reflection distances 1, 4 and 11.25).
ISOSCELES = Arrangement(mirror_walls([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-1.5, 0.0, 3.0]]), 3)


def congruent_triangles() -> Arrangement:
    # Walls 3-5 mirror a rotated, shifted copy of walls 0-2's scalene
    # triangle, its vertices taken in the order 1, 2, 0.
    first = np.array([[1.0, 0.2, 0.1], [0.3, 2.0, -0.4], [-0.5, 0.6, 1.7]])
    second = first @ random_rotation(np.random.default_rng(5)).T + [0.4, -0.3, 0.9]
    return Arrangement(mirror_walls(np.vstack([first, second[[1, 2, 0]]])), 3)


@pytest.mark.parametrize(
    "arrangement, planes",
    [(ISOSCELES, ((0, 1, 2), (0, 1, 2))), (congruent_triangles(), ((0, 1, 2), (3, 4, 5)))],
    ids=["isosceles", "congruent"],
)
def test_mirror_symmetries_fail_on_f_as_the_ordered_scan_reports(arrangement, planes):
    hs, origin = arrangement.hyperplanes, np.zeros(3)
    pair_sq = mirror_pair_sq(hs, origin)
    threshold = 1e-9 * float(np.max(np.sum(arrangement.reflections(origin) ** 2, axis=1)))
    report = genericity_check(arrangement, origin)
    assert report.failed_factor.kind == "f" and report.failed_factor.planes == planes
    assert not f_triples_passed(hs, pair_sq, threshold)
    assert not chunked_check_f_triples(hs, pair_sq, threshold).passed


def test_screen_compares_with_repeated_wall_orderings():
    # Mirror points 0 and 1 nearly coincide, so the ordering (0, 0, 2), key
    # (0, d02, d02), is within the threshold of (0, 1, 2): f = 0.9 t^2. The
    # least gap of the sorted key is 0.9 t > t / sqrt(2), so only the
    # repeated-wall columns see the hit.
    t = 1e-3
    s0, s1, s2 = 0.3 * t, 4.0, 4.0 + 0.9 * t
    pair_sq = np.array([[0.0, s0, s1], [s0, 0.0, s2], [s1, s2, 0.0]])
    hs = [Hyperplane(n, 1.0) for n in np.eye(3)]
    report = _check_f_triples(normals_of(hs), pair_sq, t)
    assert report.failed_factor.planes == ((0, 1, 2), (0, 0, 2))
    assert not f_triples_passed(hs, pair_sq, t)
    assert not chunked_check_f_triples(hs, pair_sq, t).passed


def test_screen_keeps_triples_just_above_the_independence_tolerance():
    # |det| = 1e-9 + 5e-13: a row of the ordered scan, so a row of the check.
    z = 1e-9 + 5e-13
    hs = [Hyperplane(n, 1.0) for n in ([1, 0, 0], [0, 1, 0], [0, np.sqrt(1 - z * z), z])]
    pair_sq = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 3.0], [2.0, 3.0, 0.0]])  # isosceles: d01 = d02
    report = _check_f_triples(normals_of(hs), pair_sq, 0.0)
    assert report.failed_factor.planes == ((0, 1, 2), (0, 1, 2))
    assert not f_triples_passed(hs, pair_sq, 0.0)
    assert not chunked_check_f_triples(hs, pair_sq, 0.0).passed
