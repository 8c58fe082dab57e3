import warnings

import numpy as np
import pytest
from conftest import random_rotation

from echopath import (
    DegenerateGeometryError,
    MicArray,
    affine_dimension,
    bordered_rank,
    cm_matrix,
    cm_polynomial,
    mutual_distances,
    pairwise_squared_distances,
    recover_point,
)
from echopath import cayley_menger
from echopath.cayley_menger import (
    _cm_polynomial_gradient,
    _cm_ratio_sq,
    border,
    cm_polynomial_batch,
    validate_distance_matrix,
)
from echopath.geometry import _numerical_rank

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
    # At tol = 0.99 the SVD of the square's bordered matrix keeps one value;
    # the rank is 0, not 1 - 2.
    assert bordered_rank(pairwise_squared_distances(square), 0.99) == 0
    assert affine_dimension(square, 0.99) == 1
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


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_bordered_rank_does_not_depend_on_the_units(scale):
    # border(s d) = diag(s, I) border(d) diag(1, I / s) has the rank of
    # border(d), so kilometres, metres and millimetres give one verdict.
    rng = np.random.default_rng(43)
    line = rng.uniform(-3, 3, 3)
    sets = {
        1: [rng.uniform(-3, 3, (2, 3)), np.outer([0.0, 1.0, 2.5], line)],
        2: [rng.uniform(-3, 3, (3, 3)), np.column_stack([rng.uniform(-3, 3, (4, 2)), np.zeros(4)])],
        3: [rng.uniform(-3, 3, (4, 3)), np.vstack([np.zeros(3), np.eye(3)])],
    }
    sets[1].append(np.outer([0.0, 1.0, -2.0, 4.0], line))
    for dim, point_sets in sets.items():
        for pts in point_sets:
            d = pairwise_squared_distances(pts)
            assert bordered_rank(d) == dim
            assert bordered_rank(scale * d) == dim
            assert bordered_rank(scale * d, 1e-3) == dim


RANK_TOLS = (1e-12, 1e-9, 1e-6, 1e-3)


def svd_bordered_rank(d, tol):
    """bordered_rank's definition, always by SVD: border(d / s), s = max |d_ij|."""
    s = np.abs(d).max()
    return _numerical_rank(border(d / s if s > 0.0 else d), tol) - 2


def svd_ratio(d):
    """sigma_min / sigma_max of border(d / s), by SVD."""
    sv = np.linalg.svd(border(d / np.abs(d).max()), compute_uv=False)
    return sv[-1] / sv[0]


def placed(rng, local):
    """local points rotated, scaled by 1e-6 to 1e6 and moved, as the search sees them."""
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    return scale * (local @ random_rotation(rng).T + rng.uniform(-5.0, 5.0, 3))


def thin_simplex(rng, k):
    """k = 3 or 4 random points squashed to aspect 1e-14 to 1: thin triangles,
    near-coplanar tetrahedra and sometimes exactly flat ones."""
    local = rng.standard_normal((k, 3))
    local[:, 2] *= 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-14.0, 0.0)
    if k == 3:
        local[:, 1] *= 10.0 ** rng.uniform(-14.0, 0.0)
        local[:, 2] = 0.0
    elif rng.random() < 0.3:
        local[:, 1] *= 10.0 ** rng.uniform(-14.0, 0.0)  # near a line
    return placed(rng, local)


def test_bordered_rank_certificate_equals_the_svd_on_thin_simplices():
    rng = np.random.default_rng(2801)
    certified = 0
    for _ in range(2000):
        d = pairwise_squared_distances(thin_simplex(rng, int(rng.integers(3, 5))))
        bound = _cm_ratio_sq(d.tolist())
        assert bound <= (svd_ratio(d) + 1e-14) ** 2 * 1.001
        for tol in RANK_TOLS:
            assert bordered_rank(d, tol) == svd_bordered_rank(d, tol)
            certified += bound >= 4.0 * tol * tol
    assert certified > 1000  # the shortcut is taken, not only declined


def tetra_at_ratio(rng, target):
    """Four points whose bordered ratio sigma_min / sigma_max is target within
    1e-3, by bisection on the height of the apex (up to 0.3, where the ratio
    still grows with it)."""
    while True:
        base = np.column_stack([rng.standard_normal((3, 2)), np.zeros(3)])
        apex_xy = rng.standard_normal(2)
        rotation, shift = random_rotation(rng), rng.uniform(-5.0, 5.0, 3)

        def block(log_h):
            local = np.vstack([base, [*apex_xy, 10.0**log_h]])
            return pairwise_squared_distances(local @ rotation.T + shift)

        lo, hi = -9.0, -0.5
        if svd_ratio(block(hi)) > target:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if svd_ratio(block(mid)) < target else (lo, mid)
    d = block(hi)
    assert abs(svd_ratio(d) / target - 1.0) < 1e-3
    return d


@pytest.mark.parametrize("tol", RANK_TOLS)
def test_bordered_rank_certificate_equals_the_svd_near_the_tolerance(tol):
    # Within a few percent of tol the bound, at most the ratio, is below
    # 2 tol, so the SVD decides; from 2 tol up the bound may take over.
    rng = np.random.default_rng(int(-np.log10(tol)))
    for factor in [*rng.uniform(0.95, 1.05, 30), *10.0 ** rng.uniform(0.0, 1.0, 30)]:
        d = tetra_at_ratio(rng, factor * tol)
        if factor < 1.9:
            assert _cm_ratio_sq(d.tolist()) < 4.0 * tol * tol
        assert bordered_rank(d, tol) == svd_bordered_rank(d, tol)
        for other in RANK_TOLS:
            assert bordered_rank(d, other) == svd_bordered_rank(d, other)


def test_bordered_rank_takes_the_svd_for_blocks_that_are_no_distances(monkeypatch):
    # A Gram matrix has a nonzero diagonal and a perturbed block is not
    # symmetric: the closed forms do not hold, so both go to the SVD.
    svd_calls = []
    real = cayley_menger._numerical_rank
    monkeypatch.setattr(
        cayley_menger, "_numerical_rank", lambda m, tol: svd_calls.append(m) or real(m, tol)
    )
    rng = np.random.default_rng(2802)
    for k in (3, 4):
        pts = rng.uniform(-5.0, 5.0, (k, 3))
        gram = pts @ pts.T
        skew = pairwise_squared_distances(pts)
        skew[0, 1] += 1e-3
        for m in (gram, skew):
            assert _cm_ratio_sq(m.tolist()) == 0.0
            for tol in RANK_TOLS:
                svd_calls.clear()
                assert bordered_rank(m, tol) == svd_bordered_rank(m, tol)
                assert len(svd_calls) == 1


def one_and_two_point_blocks(rng):
    """1x1 and 2x2 blocks with the largest tol each certifies: 1/4 for [[0]]
    (bound 1/4), sqrt(1/32) for a zero-diagonal symmetric pair at a finite
    d != 0 (bound 1/8), and none for every other block."""
    pair = 0.125**0.5 / 2.0
    d = [s * 10.0 ** u for s, u in zip(rng.choice([-1.0, 1.0], 20), rng.uniform(-6.0, 6.0, 20))]
    blocks = [([[0.0]], 0.25)] + [([[0.0, x], [x, 0.0]], pair) for x in [*d, 1e-300, -5e307]]
    others = [[[2.0]], [[-1e-9]], [[0.0, 0.0], [0.0, 0.0]]]
    others += [[[x, 1.0], [1.0, 0.0]] for x in (1e-6, -3.0, 1e6)]
    others += [[[0.0, 1.0], [1.0 + 1e-12, 0.0]], [[0.0, 2.0], [-2.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]
    return [(np.array(m), limit) for m, limit in blocks + [(m, 0.0) for m in others]]


@pytest.mark.parametrize("tol", [*RANK_TOLS, 0.2, 0.3])
def test_bordered_rank_certificate_equals_the_svd_on_one_and_two_points(monkeypatch, tol):
    # One point and a pair of distinct points have full rank by a closed
    # form; a coincident pair, a block that is no distance matrix and a tol
    # above the block's certificate take the SVD, as at three and four points.
    svd_calls = []
    real = cayley_menger._numerical_rank
    monkeypatch.setattr(
        cayley_menger, "_numerical_rank", lambda m, tol: svd_calls.append(m) or real(m, tol)
    )
    for m, limit in one_and_two_point_blocks(np.random.default_rng(3002)):
        svd_calls.clear()
        assert bordered_rank(m, tol) == svd_bordered_rank(m, tol)
        assert len(svd_calls) == (tol > limit)
        if tol <= limit:
            assert bordered_rank(m, tol) == len(m) - 1


def test_bordered_rank_rejects_non_finite_entries():
    # No certificate holds for a NaN or infinite entry, and the block is
    # refused before the division that would warn and the SVD that fails.
    nan, inf = np.nan, np.inf
    blocks = [[[nan]], [[inf]], [[0.0, 1.0], [1.0, nan]]]
    blocks += [[[0.0, x], [x, 0.0]] for x in (nan, inf, -inf)]
    blocks += [pairwise_squared_distances(MICS[:3]), pairwise_squared_distances(MICS)]
    blocks[-2][0, 1] = blocks[-2][1, 0] = inf
    blocks[-1][2, 3] = blocks[-1][3, 2] = nan
    for m in blocks:
        for tol in RANK_TOLS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    bordered_rank(np.array(m), tol)


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


def random_mic_array(rng):
    """MicArray of four well-spread, non-coplanar random microphones."""
    while True:
        mics = rng.uniform(-1, 1, (4, 3))
        if np.linalg.svd(mics[1:] - mics[0], compute_uv=False)[-1] > 0.2:
            return MicArray(mics)


def test_cm_polynomial_batch_equals_bordered_determinant():
    rng = np.random.default_rng(47)
    for _ in range(40):
        mics = random_mic_array(rng)
        xs = rng.uniform(0.1, 12.0, (6, 4))
        batch = cm_polynomial_batch(mics, xs)
        reference = np.array([cm_polynomial(mics.c, x) for x in xs])
        assert np.all(np.abs(batch - reference) <= 1e-12 * np.abs(reference))


def test_cm_polynomial_batch_rows_do_not_depend_on_the_batch():
    # A product with many columns rounds a column differently from a product
    # with one; flat arrays make the difference visible in most rows.
    rng = np.random.default_rng(51)
    for _ in range(40):
        local = rng.uniform(-0.5, 0.5, (4, 3))
        local[:, 2] *= 10 ** rng.uniform(-3.0, -1.0)
        mics = MicArray(local)
        xs = rng.uniform(0.1, 30.0, (64, 4))
        one_by_one = np.concatenate([cm_polynomial_batch(mics, x[None]) for x in xs])
        assert cm_polynomial_batch(mics, xs).tobytes() == one_by_one.tobytes()
        one_by_one = np.concatenate([_cm_polynomial_gradient(mics, x[None]) for x in xs])
        assert _cm_polynomial_gradient(mics, xs).tobytes() == one_by_one.tobytes()


def test_cm_polynomial_batch_adds_its_terms_in_order():
    # The reference adds one term at a time in Python; the sums, elementwise,
    # in order, must round exactly as it does.
    rng = np.random.default_rng(52)
    for k in (1, 2, 64, 1000):
        mics = random_mic_array(rng)
        xs = rng.uniform(0.1, 30.0, (k, 4))
        y, g = np.vstack([np.ones(k), xs.T]), mics.c_inv
        gy = sum(g[:, j, None] * y[j] for j in range(5))
        want = -mics.abs_det_c * sum(y[i] * gy[i] for i in range(5))
        assert np.array_equal(cm_polynomial_batch(mics, xs), want)
        assert np.array_equal(_cm_polynomial_gradient(mics, xs), -2.0 * mics.abs_det_c * gy[1:].T)


def test_cm_polynomial_gradient_matches_central_difference():
    rng = np.random.default_rng(48)
    for _ in range(40):
        mics = random_mic_array(rng)
        xs = rng.uniform(0.1, 12.0, (3, 4))
        grad = _cm_polynomial_gradient(mics, xs)
        assert grad.shape == xs.shape
        for x, g in zip(xs, grad):
            for k in range(4):
                step = np.zeros(4)
                step[k] = 1e-3 * x[k]
                fd = cm_polynomial(mics.c, x + step) - cm_polynomial(mics.c, x - step)
                fd /= 2 * step[k]
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
        shift = cm_polynomial_batch(MicArray(mics), xs) / (2.0 * np.linalg.det(c))
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
