import warnings

import numpy as np
import pytest
from conftest import random_rotation

from echopath import (
    Hyperplane,
    Wall,
    affine_dimension,
    bordered_rank,
    linearly_independent_hyperplanes,
    mirror_point,
    pairwise_squared_distances,
    reflect_point,
)
from echopath import cayley_menger, geometry
from echopath.geometry import _gram_ratio_sq, _numerical_rank


def test_reflect_coordinate_plane():
    h = Hyperplane([0, 0, 1], 0.0)
    assert np.allclose(reflect_point(h, [1, 2, 3]), [1, 2, -3])


def test_reflect_fixes_points_on_plane():
    h = Hyperplane([0, 0, 1], 0.0)
    assert np.allclose(reflect_point(h, [4.5, -2.0, 0.0]), [4.5, -2.0, 0.0])


def test_reflect_doubles_distance_along_normal():
    h = Hyperplane([1, 0, 0], 1.0)
    assert np.allclose(reflect_point(h, [0, 0, 0]), [2, 0, 0])


def test_reflect_is_involution():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = rng.standard_normal(3)
        h = Hyperplane(n, rng.uniform(-5, 5))
        v = rng.uniform(-10, 10, 3)
        assert np.linalg.norm(reflect_point(h, reflect_point(h, v)) - v) < 1e-10


def test_reflection_distance_is_twice_plane_distance():
    rng = np.random.default_rng(102)
    for _ in range(100):
        h = Hyperplane(rng.standard_normal(2), rng.uniform(-3, 3))
        v = rng.uniform(-5, 5, 2)
        expected = 2.0 * abs(h.normal @ v - h.offset)
        assert np.isclose(np.linalg.norm(reflect_point(h, v) - v), expected)


def test_hyperplane_normalizes_and_rescales_offset():
    h = Hyperplane([0, 0, 4], 8.0)
    assert np.allclose(h.normal, [0, 0, 1])
    assert h.offset == pytest.approx(2.0)
    # the same plane as the unit-normal version
    assert h.same_plane(Hyperplane([0, 0, 1], 2.0))


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_hyperplane_rejects_non_finite_offset(offset):
    with pytest.raises(ValueError, match="offset must be finite"):
        Hyperplane([0.0, 0.0, 1.0], offset)


def test_mirror_point_matches_direct_reflection():
    wall = Wall(Hyperplane([1, 0], 0.0))
    assert np.allclose(mirror_point(wall, [6.0, 7.0]), [-6.0, 7.0])


def test_mirror_point_of_speaker_on_wall_is_speaker():
    wall = Wall(Hyperplane([0, 0, 1], 1.5))
    spk = np.array([2.0, 3.0, 1.5])
    assert np.allclose(mirror_point(wall, spk), spk)


def test_affine_dimension_basic_sets():
    assert affine_dimension([[1.0, 2.0, 3.0]]) == 0
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert affine_dimension(square) == 2
    tetra = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert affine_dimension(tetra) == 3
    assert affine_dimension([[0, 0, 0], [1, 1, 1], [2, 2, 2]]) == 1


def test_affine_dimension_empty_rejected():
    with pytest.raises(ValueError):
        affine_dimension(np.zeros((0, 3)))


def test_affine_dimension_rigid_motion_invariant():
    rng = np.random.default_rng(103)
    from conftest import random_rotation

    for _ in range(50):
        k = rng.integers(1, 7)
        pts = rng.uniform(-4, 4, (k, 3))
        rot = random_rotation(rng)
        moved = pts @ rot.T + rng.uniform(-10, 10, 3)
        assert affine_dimension(moved) == affine_dimension(pts)


def test_affine_dimension_equals_bordered_rank_of_distances():
    rng = np.random.default_rng(104)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        k = int(rng.integers(2, 9))
        pts = rng.uniform(-5, 5, (k, dim))
        d = pairwise_squared_distances(pts)
        assert bordered_rank(d, 1e-8) == affine_dimension(pts, 1e-8)


RANK_TOLS = (1e-12, 1e-9, 1e-6, 1e-3)


def svd_affine_dimension(pts, tol):
    """affine_dimension's definition, always by SVD."""
    return _numerical_rank(pts[1:] - pts[0], tol)


def test_affine_dimension_certificate_equals_the_svd_on_flat_sets():
    # 4 to 12 points squashed to aspect 1e-14 to 1 (a tenth of them exactly
    # flat before the motion), rotated, moved and scaled by 1e-6 to 1e6.
    rng = np.random.default_rng(2803)
    certified = 0
    for _ in range(2000):
        local = rng.standard_normal((int(rng.integers(4, 13)), 3))
        local[:, 2] *= 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-14.0, 0.0)
        local[:, 1] *= 10.0 ** rng.uniform(-3.0, 0.0)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        pts = scale * (local @ random_rotation(rng).T + rng.uniform(-5.0, 5.0, 3))
        sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        bound = _gram_ratio_sq(pts[1:] - pts[0])
        assert bound <= (sv[2] / sv[0] + 1e-14) ** 2 * 1.001
        for tol in RANK_TOLS:
            assert affine_dimension(pts, tol) == svd_affine_dimension(pts, tol)
            certified += bound >= 4.0 * tol * tol
    assert certified > 1000  # the shortcut is taken, not only declined


@pytest.mark.parametrize("tol", RANK_TOLS)
def test_affine_dimension_certificate_equals_the_svd_near_the_tolerance(tol):
    # Differences U diag(1, a, h) V^T with orthonormal U and V have
    # sigma_3 / sigma_1 = h; within a few percent of tol the SVD decides.
    rng = np.random.default_rng(int(-np.log10(tol)))
    for factor in [*rng.uniform(0.95, 1.05, 40), *10.0 ** rng.uniform(0.0, 1.0, 40)]:
        u, _ = np.linalg.qr(rng.standard_normal((int(rng.integers(3, 12)), 3)))
        diffs = u * [1.0, 10.0 ** rng.uniform(-2.0, 0.0), factor * tol] @ random_rotation(rng)
        pts = np.vstack([np.zeros(3), diffs])
        if factor < 1.9:
            assert _gram_ratio_sq(diffs) < 4.0 * tol * tol
        for other in RANK_TOLS:
            assert affine_dimension(pts, other) == svd_affine_dimension(pts, other)


def test_affine_dimension_takes_the_svd_where_the_gram_matrix_overflows(monkeypatch):
    # Coordinates near 1e155 square past the largest float; the certificate
    # declines without a warning and the SVD, which scales, decides.
    svd_calls = []
    monkeypatch.setattr(
        geometry, "_numerical_rank", lambda m, tol: svd_calls.append(m) or _numerical_rank(m, tol)
    )
    rng = np.random.default_rng(2804)
    for flat in (False, True):
        local = rng.uniform(-1.0, 1.0, (6, 3))
        local[:, 2] *= not flat
        pts = 1e155 * local
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gram_ratio_sq(pts[1:] - pts[0]) == 0.0
            for tol in RANK_TOLS:
                svd_calls.clear()
                assert affine_dimension(pts, tol) == svd_affine_dimension(pts, tol) == 3 - flat
                assert len(svd_calls) == 1


def test_rank_tolerances_below_1e_12_take_the_svd(monkeypatch):
    # There the SVD's own round-off could flip a verdict the bound certifies.
    svd_calls = []
    for module in (geometry, cayley_menger):
        monkeypatch.setattr(
            module, "_numerical_rank", lambda m, tol: svd_calls.append(m) or _numerical_rank(m, tol)
        )
    tetra = np.vstack([np.zeros(3), np.eye(3)])
    for tol, svd_count in ((1e-12, 0), (1e-13, 2), (-1.0, 2)):
        svd_calls.clear()
        assert affine_dimension(tetra, tol) == 3
        assert bordered_rank(pairwise_squared_distances(tetra), tol) == 3
        assert len(svd_calls) == svd_count


def test_affine_dimension_vs_bordered_rank_exact_integer_sets():
    sympy = pytest.importorskip("sympy")
    cases = [
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [3, -2, 5]],
    ]
    for pts in cases:
        pts = np.asarray(pts, dtype=float)
        d = pairwise_squared_distances(pts).astype(int)
        k = d.shape[0]
        bordered = sympy.ones(k + 1, k + 1)
        bordered[0, 0] = 0
        for i in range(k):
            for j in range(k):
                bordered[i + 1, j + 1] = int(d[i, j])
        exact = bordered.rank() - 2
        assert exact == affine_dimension(pts)
        assert exact == bordered_rank(d.astype(float))


def test_linearly_independent_hyperplanes():
    axes = [Hyperplane([1, 0, 0], 0.0), Hyperplane([0, 1, 0], 0.0), Hyperplane([0, 0, 1], 0.0)]
    assert linearly_independent_hyperplanes(axes)
    parallel = [Hyperplane([1, 0, 0], 0.0), Hyperplane([1, 0, 0], 5.0)]
    assert not linearly_independent_hyperplanes(parallel)


def test_three_concurrent_lines_are_dependent():
    lines = []
    for deg in (0.0, 60.0, 120.0):
        theta = np.radians(deg)
        lines.append(Hyperplane([-np.sin(theta), np.cos(theta)], 0.0))
    normals = np.stack([h.normal for h in lines])
    assert np.linalg.matrix_rank(normals) <= 2  # oracle: rank of 3 normals in the plane
    assert not linearly_independent_hyperplanes(lines)


def test_wall_boundary_must_lie_on_plane():
    with pytest.raises(ValueError, match="lie on"):
        Wall(
            Hyperplane([0, 0, 1], 0.0),
            boundary=[[0, 0, 0], [1, 0, 0], [1, 1, 0.1]],
        )


def test_wall_boundary_needs_three_points():
    with pytest.raises(ValueError):
        Wall(Hyperplane([0, 0, 1], 0.0), boundary=[[0, 0, 0], [1, 0, 0]])


def test_wall_boundary_must_be_simple():
    # figure-eight ordering of a square's corners crosses itself
    bow_tie = [[0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match="simple"):
        Wall(Hyperplane([0, 0, 1], 0.0), boundary=bow_tie)


def test_valid_bounded_wall():
    wall = Wall(
        Hyperplane([0, 0, 1], 0.0),
        boundary=[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
    )
    assert wall.bounded


def test_pairwise_squared_distances_do_not_depend_on_memory_layout():
    # einsum rounds by memory layout, so a transposed view must be copied to
    # C order: its distances are those of the C-ordered copy, bit for bit.
    rng = np.random.default_rng(31)
    for _ in range(200):
        pts = rng.uniform(-5.0, 5.0, (3, int(rng.integers(2, 40)))).T
        assert not pts.flags.c_contiguous
        want = pairwise_squared_distances(np.ascontiguousarray(pts))
        assert np.array_equal(pairwise_squared_distances(pts), want)
