import numpy as np
import pytest

from echopath import (
    DegenerateGeometryError,
    affine_dimension,
    bordered_rank,
    cm_matrix,
    cm_polynomial,
    mutual_distances,
    pairwise_squared_distances,
    recover_point,
)
from echopath.cayley_menger import (
    _cm_polynomial_gradient,
    border,
    cm_polynomial_batch,
    validate_distance_matrix,
)

MICS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def forward_sq_distances(points, w):
    w = np.asarray(w, dtype=float)
    return np.array([np.sum((p - w) ** 2) for p in np.asarray(points, dtype=float)])


def test_cm_matrix_single_point():
    assert np.array_equal(cm_matrix(np.zeros((1, 1))), [[0, 1], [1, 0]])


def test_cm_matrix_shape_and_layout():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    d = pairwise_squared_distances(square)
    c = cm_matrix(d)
    assert c.shape == (5, 5)
    assert c[0, 0] == 0.0
    assert np.array_equal(c[0, 1:], np.ones(4))
    assert np.array_equal(c[1:, 0], np.ones(4))
    assert np.array_equal(c[1:, 1:], d)


def test_cm_matrix_regular_tetrahedron():
    d = np.ones((4, 4)) - np.eye(4)
    c = cm_matrix(d)
    assert np.array_equal(c[1:, 1:], np.ones((4, 4)) - np.eye(4))


def test_cm_matrix_rejects_invalid_distance_matrix():
    with pytest.raises(ValueError):
        cm_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        cm_matrix(np.array([[1.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        validate_distance_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_bordered_rank_examples():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert bordered_rank(pairwise_squared_distances(square)) == affine_dimension(square)
    tetra = np.eye(3)
    tetra = np.vstack([np.zeros(3), tetra])
    assert bordered_rank(pairwise_squared_distances(tetra)) == 3
    assert bordered_rank(np.zeros((1, 1))) == 0


def test_cm_matrix_rank_is_dimension_plus_two():
    rng = np.random.default_rng(41)
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        k = int(rng.integers(1, 8))
        pts = rng.uniform(-3, 3, (k, dim))
        c = cm_matrix(pairwise_squared_distances(pts))
        rank = np.linalg.matrix_rank(c, tol=1e-8 * np.linalg.norm(c, 2))
        assert rank == affine_dimension(pts) + 2


def sample_point_set(rng, dim, k, min_sv=0.3):
    """Random points whose affine shape is numerically unambiguous.

    Near-flat simplices are resampled: the distance-matrix rank route squares
    small heights, so a fixed rank tolerance needs a conditioning margin.
    """
    while True:
        pts = rng.uniform(-5, 5, (k, dim))
        s = np.linalg.svd(pts[1:] - pts[0], compute_uv=False) if k > 1 else np.array([1.0])
        if s.size == 0 or s.min() > min_sv:
            return pts


def test_rank_identity_distance_gram_affine():
    rng = np.random.default_rng(42)
    for _ in range(120):
        dim = int(rng.integers(2, 4))
        k = int(rng.integers(2, 9))
        pts = sample_point_set(rng, dim, k)
        d = pairwise_squared_distances(pts)
        gram = pts @ pts.T
        a_dim = affine_dimension(pts)
        assert bordered_rank(d) == a_dim
        assert bordered_rank(gram) == a_dim


def test_rank_identity_on_exactly_degenerate_sets():
    rng = np.random.default_rng(47)
    planar = np.column_stack([rng.uniform(-5, 5, (6, 2)), np.zeros(6)])
    assert affine_dimension(planar) == 2
    assert bordered_rank(pairwise_squared_distances(planar)) == 2
    collinear = np.outer(np.arange(5, dtype=float), np.array([1.0, 2.0, -1.0]))
    assert affine_dimension(collinear) == 1
    assert bordered_rank(pairwise_squared_distances(collinear)) == 1


def test_rank_identity_exact_arithmetic():
    sympy = pytest.importorskip("sympy")
    pts = np.array([[0, 0, 0], [2, 0, 0], [0, 3, 0], [2, 3, 0], [1, 1, 4]])
    d = pairwise_squared_distances(pts.astype(float)).astype(int)
    gram = (pts @ pts.T).astype(int)

    def exact_brank(m):
        k = m.shape[0]
        bm = sympy.ones(k + 1, k + 1)
        bm[0, 0] = 0
        for i in range(k):
            for j in range(k):
                bm[i + 1, j + 1] = int(m[i, j])
        return bm.rank() - 2

    assert exact_brank(d) == 3
    assert exact_brank(gram) == 3
    assert affine_dimension(pts.astype(float)) == 3


def test_cm_polynomial_vanishes_on_real_profile():
    c = cm_matrix(pairwise_squared_distances(MICS))
    x = forward_sq_distances(MICS, [2.0, 3.0, 4.0])
    assert np.array_equal(x, [29.0, 26.0, 24.0, 22.0])
    assert abs(cm_polynomial(c, x)) <= 1e-9 * np.max(x) ** 3


def test_cm_polynomial_vanishes_when_source_is_a_microphone():
    c = cm_matrix(pairwise_squared_distances(MICS))
    assert abs(cm_polynomial(c, [0.0, 1.0, 1.0, 1.0])) <= 1e-12


def test_cm_polynomial_nonzero_on_perturbed_profile():
    c = cm_matrix(pairwise_squared_distances(MICS))
    val = cm_polynomial(c, [30.0, 26.0, 24.0, 22.0])
    assert abs(val) > 1e-9 * 30.0**3


def test_cm_polynomial_wrong_size_rejected():
    with pytest.raises(ValueError):
        cm_polynomial(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    c = cm_matrix(pairwise_squared_distances(MICS))
    with pytest.raises(ValueError):
        cm_polynomial(c, [1.0, 2.0, 3.0])


def test_cm_polynomial_invariant_under_joint_relabeling():
    rng = np.random.default_rng(43)
    mics = rng.uniform(-1, 1, (4, 3))
    x = rng.uniform(1, 30, 4)
    base = cm_polynomial(cm_matrix(pairwise_squared_distances(mics)), x)
    for _ in range(10):
        perm = rng.permutation(4)
        val = cm_polynomial(
            cm_matrix(pairwise_squared_distances(mics[perm])), x[perm]
        )
        assert val == pytest.approx(base, rel=1e-9)


def random_mic_matrix(rng):
    """Cayley-Menger matrix of four well-spread, non-coplanar random microphones."""
    while True:
        mics = rng.uniform(-1, 1, (4, 3))
        if np.linalg.svd(mics[1:] - mics[0], compute_uv=False)[-1] > 0.2:
            return cm_matrix(pairwise_squared_distances(mics))


def test_cm_polynomial_batch_equals_bordered_determinant():
    rng = np.random.default_rng(47)
    for _ in range(40):
        c = random_mic_matrix(rng)
        xs = rng.uniform(0.1, 12.0, (6, 4))
        batch = cm_polynomial_batch(c, xs)
        reference = np.array([cm_polynomial(c, x) for x in xs])
        assert np.all(np.abs(batch - reference) <= 1e-12 * np.abs(reference))


def test_cm_polynomial_gradient_matches_central_difference():
    rng = np.random.default_rng(48)
    for _ in range(40):
        c = random_mic_matrix(rng)
        xs = rng.uniform(0.1, 12.0, (3, 4))
        grad = _cm_polynomial_gradient(c, xs)
        assert grad.shape == xs.shape
        for x, g in zip(xs, grad):
            for k in range(4):
                step = np.zeros(4)
                step[k] = 1e-3 * x[k]
                fd = (cm_polynomial(c, x + step) - cm_polynomial(c, x - step)) / (2 * step[k])
                assert abs(fd - g[k]) <= 1e-5 * np.max(np.abs(g))


def test_echo_entries_are_squared_distances_shifted_by_the_polynomial():
    # For y = (1, x) and (mu, lam) = C^{-1} y, the point p = sum lam_i m_i
    # satisfies x_i = ||p - m_i||^2 - P(x) / (2 det C) for every microphone.
    rng = np.random.default_rng(49)
    for _ in range(40):
        mics = rng.uniform(-1, 1, (4, 3))
        if np.linalg.svd(mics[1:] - mics[0], compute_uv=False)[-1] < 0.2:
            continue
        c = cm_matrix(pairwise_squared_distances(mics))
        xs = rng.uniform(0.1, 12.0, (6, 4))
        lam = np.linalg.solve(c, np.vstack([np.ones(len(xs)), xs.T]))[1:]
        p = lam.T @ mics  # one point per row of xs
        shift = cm_polynomial_batch(c, xs) / (2.0 * np.linalg.det(c))
        rebuilt = np.sum((p[:, None, :] - mics[None, :, :]) ** 2, axis=2) - shift[:, None]
        assert np.all(np.abs(rebuilt - xs) <= 1e-9 * np.abs(xs))


def test_cm_polynomial_in_x4_is_a_parabola_through_a_point_and_its_mirror_image():
    # With x1..x3 fixed, P is quadratic in x4 with leading coefficient
    # -det(C) (C^{-1})_44 = 16 A^2 > 0, A the area of microphones 1-3, and
    # (C^{-1})_44 = -16 A^2 / (288 V^2) < 0. The points at distances x1..x3
    # from microphones 1-3 are a point and its mirror image in their plane,
    # so the roots are the squared distances from microphone 4 to both.
    rng = np.random.default_rng(50)
    for _ in range(20):
        mics = rng.uniform(-1, 1, (4, 3))
        if np.linalg.svd(mics[1:] - mics[0], compute_uv=False)[-1] < 0.2:
            continue
        c = cm_matrix(pairwise_squared_distances(mics))
        normal = np.cross(mics[1] - mics[0], mics[2] - mics[0])
        area = np.linalg.norm(normal) / 2.0
        volume = abs(np.dot(normal, mics[3] - mics[0])) / 6.0
        normal /= np.linalg.norm(normal)
        point = rng.uniform(-4, 4, 3)
        mirror = point - 2.0 * np.dot(point - mics[0], normal) * normal
        x = np.sum((mics[:3] - point) ** 2, axis=1)
        t = np.array([0.0, 10.0, 20.0])
        coeffs = np.polyfit(t, [cm_polynomial(c, [*x, ti]) for ti in t], 2)
        g44 = np.linalg.inv(c)[4, 4]
        assert g44 < 0.0
        assert g44 == pytest.approx(-16.0 * area**2 / (288.0 * volume**2), rel=1e-9)
        assert coeffs[0] == pytest.approx(-np.linalg.det(c) * g44, rel=1e-9)
        assert coeffs[0] == pytest.approx(16.0 * area**2, rel=1e-9)
        want = sorted(np.sum((np.stack([point, mirror]) - mics[3]) ** 2, axis=1))
        assert np.sort(np.roots(coeffs).real) == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_recover_point_examples():
    w = recover_point(MICS, [29.0, 26.0, 24.0, 22.0])
    assert np.allclose(w, [2.0, 3.0, 4.0], atol=1e-9)
    d0 = forward_sq_distances(MICS, MICS[0])
    assert np.allclose(recover_point(MICS, d0), MICS[0], atol=1e-12)
    simplex2 = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    w2 = recover_point(simplex2, forward_sq_distances(simplex2, [5.0, -1.0]))
    assert np.allclose(w2, [5.0, -1.0], atol=1e-9)


def test_recover_point_random_round_trips():
    rng = np.random.default_rng(44)
    for _ in range(150):
        dim = int(rng.integers(2, 4))
        while True:
            basis = rng.uniform(-5, 5, (dim + 1, dim))
            if affine_dimension(basis) == dim:
                s = np.linalg.svd(basis[1:] - basis[0], compute_uv=False)
                if s[-1] > 0.3:
                    break
        w = rng.uniform(-8, 8, dim)
        back = recover_point(basis, forward_sq_distances(basis, w))
        assert np.linalg.norm(back - w) <= 1e-9


def test_recover_point_degenerate_basis_rejected():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DegenerateGeometryError):
        recover_point(flat, [1.0, 1.0, 1.0, 1.0])


def test_recover_point_barycentric_weights_sum_to_one():
    rng = np.random.default_rng(45)
    basis = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]], dtype=float)
    for _ in range(20):
        w = rng.uniform(-3, 3, 3)
        back = recover_point(basis, forward_sq_distances(basis, w))
        # membership in the affine span with weight sum 1 is equivalent to
        # exact recovery here, since the basis spans the whole space
        assert np.allclose(back, w, atol=1e-9)


def test_recover_point_batched_equals_column_by_column():
    rng = np.random.default_rng(49)
    for dim in (2, 3):
        while True:
            basis = rng.uniform(-5, 5, (dim + 1, dim))
            if np.linalg.svd(basis[1:] - basis[0], compute_uv=False)[-1] > 0.3:
                break
        targets = rng.uniform(-8, 8, (6, dim))
        d2d = np.stack([forward_sq_distances(basis, t) for t in targets], axis=1)
        batched = recover_point(basis, d2d)
        assert batched.shape == (dim, 6)
        for j in range(6):
            single = recover_point(basis, d2d[:, j])
            assert np.allclose(batched[:, j], single, rtol=0, atol=1e-12)
        assert np.allclose(batched.T, targets, atol=1e-9)


def test_mutual_distances_single_column():
    c = cm_matrix(pairwise_squared_distances(MICS))
    delta = np.concatenate([[1.0], forward_sq_distances(MICS, [2.0, 3.0, 4.0])])[:, None]
    out = mutual_distances(c, delta)
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0


def test_mutual_distances_two_points():
    c = cm_matrix(pairwise_squared_distances(MICS))
    w1, w2 = np.array([2.0, 3.0, 4.0]), np.array([-1.0, 0.0, 2.0])
    delta = np.stack(
        [
            np.concatenate([[1.0], forward_sq_distances(MICS, w1)]),
            np.concatenate([[1.0], forward_sq_distances(MICS, w2)]),
        ],
        axis=1,
    )
    out = mutual_distances(c, delta)
    assert out[0, 1] == pytest.approx(22.0, abs=1e-9)  # 9 + 9 + 4
    assert np.allclose(out, out.T)
    assert np.array_equal(np.diag(out), np.zeros(2))


def test_mutual_distances_matches_direct_computation():
    rng = np.random.default_rng(46)
    for _ in range(60):
        dim = int(rng.integers(2, 4))
        while True:
            basis = rng.uniform(-4, 4, (dim + 1, dim))
            if affine_dimension(basis) == dim:
                break
        targets = rng.uniform(-6, 6, (5, dim))
        delta = np.vstack(
            [np.ones(5), np.stack([forward_sq_distances(basis, t) for t in targets], axis=1)]
        )
        out = mutual_distances(cm_matrix(pairwise_squared_distances(basis)), delta)
        direct = pairwise_squared_distances(targets)
        scale = max(np.max(direct), 1.0)
        assert np.max(np.abs(out - direct)) <= 1e-8 * scale


def test_mutual_distances_singular_basis_rejected():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    c = cm_matrix(pairwise_squared_distances(flat))
    delta = np.vstack([np.ones(2), np.ones((4, 2))])
    with pytest.raises(DegenerateGeometryError):
        mutual_distances(c, delta)


def test_border_layout():
    m = np.array([[5.0]])
    assert np.array_equal(border(m), [[0, 1], [1, 5]])
