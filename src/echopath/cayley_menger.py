"""Distance algebra: Cayley-Menger matrices, bordered rank, point recovery.

A distance matrix here is always a symmetric matrix of *squared* Euclidean
distances with zero diagonal. Bordering such a matrix with a 0/1 row and
column gives the classical Cayley-Menger matrix C, whose rank encodes the
affine dimension of the generating points. Everything else applies C^{-1}
to columns delta = (1, d) of squared distances to the basis points:
delta^T C^{-1} delta holds the squared distances between the targets (its
vanishing diagonal is the echo test), and rows 1..n+1 of C^{-1} delta are
their barycentric coordinates (multilateration). MicArray holds the
vehicle's four microphones with their C, C^{-1} and |det C|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    _EPS,
    DEFAULT_RANK_TOL,
    DegenerateGeometryError,
    _certified_full_rank,
    _numerical_rank,
    affine_dimension,
    pairwise_squared_distances,
)

# How far the leading row of mutual_distances' delta may stray from 1.
_ONES_ROW_TOL = 1e-9


def validate_distance_matrix(d: np.ndarray) -> np.ndarray:
    """Check symmetry, zero diagonal and nonnegativity of a squared-distance matrix."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if np.any(d != d.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValueError("distance matrix must have zero diagonal")
    if np.any(d < 0.0):
        raise ValueError("distance matrix entries must be nonnegative")
    return d


def border(m: np.ndarray) -> np.ndarray:
    """Surround a square matrix with a leading 0/1 row and column."""
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    out = np.ones((k + 1, k + 1))
    out[0, 0] = 0.0
    out[1:, 1:] = m
    return out


def cm_matrix(d: np.ndarray) -> np.ndarray:
    """Cayley-Menger matrix of a squared-distance matrix: its 0/1 bordering.

    For k points the result is (k+1) x (k+1).
    """
    return border(validate_distance_matrix(d))


def bordered_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the bordered matrix minus 2.

    For the squared-distance matrix of a point set this equals the affine
    dimension of the set. m is first divided by its largest |entry| s, which
    leaves the exact rank as it is, border(m / s) = diag(s, I) border(m)
    diag(1, I / s), and makes the verdict independent of the units: rank
    counts singular values of border(m / s) above tol * sigma_max.

    A 1x1 to 4x4 m with zero diagonal that is symmetric (one to four
    points) has full rank, k - 1 for k points, without an SVD when its
    Cayley-Menger determinant bounds sigma_min / sigma_max of border(m / s)
    at 2 tol or above (_cm_ratio_sq), for tol >= 1e-12: the SVD would count
    every value too (geometry._certified_full_rank). Every other m, a
    rank-deficient block such as two coincident points included, takes the
    SVD, and one with a NaN or infinite entry raises ValueError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("bordered_rank expects a square matrix")
    k = m.shape[0]
    if 1 <= k <= 4 and _certified_full_rank(_cm_ratio_sq(m.tolist()), tol):
        return k - 1
    scale = np.maximum.reduce(np.abs(m), None, initial=0.0)
    if not scale < np.inf:
        raise ValueError("bordered_rank expects finite entries")
    return _numerical_rank(border(m / scale if scale > 0.0 else m), tol) - 2


def _cm_ratio_sq(block: list) -> float:
    """A lower bound on (sigma_min / sigma_max)^2 of M = border(block / s),
    s the largest |entry|, for geometry._certified_full_rank; 0.0 or less
    when it shows nothing.

    block is a 1x1 to 4x4 nested list; any block whose diagonal is not zero
    or that is not symmetric (NaN entries included), and any all-zero block
    of two or more points, gives 0.0. The entries are divided by s as
    bordered_rank divides them, so M is the matrix its SVD would see. With
    n = k + 1 for k points, M is n x n, the product of its singular values
    is |det M| and the sum of their squares is F = ||M||_F^2 = 2k + 2 sum
    d_ij^2 (i < j). AM-GM over the n - 2 middle values, at most (F -
    sigma_max^2) / (n - 2) on average, bounds sigma_max^2 times their
    product by the largest t ((F - t) / (n - 2))^((n - 2) / 2), 2 (F /
    n)^(n / 2) at t = 2F / n, so (sigma_min / sigma_max)^2 >= det^2 / (4 (F
    / n)^n). The closed forms, with x, y, z = d12, d13, d23 and a..f = d12,
    d13, d14, d23, d24, d34:
    - one point: M = [[0, 1], [1, 0]], det M = -1 and F = 2, a bound of 1/4;
    - two points: x / s = +-1, det M = 2 x / s = +-2 and F = 6, a bound of
      1/8 (an infinite x gives 0.0: inf / inf is NaN);
    - three points: det M = x^2 + y^2 + z^2 - 2 (xy + yz + zx) = -16 A^2;
    - four points: det M = 2 [af (b + c + d + e - a - f) + be (a + c + d
      + f - b - e) + cd (a + b + e + f - c - d) - abd - ace - bcf - def]
      = 288 V^2.

    Round-off, with eps = 2^-52: the one- and two-point bounds are exact.
    Each monomial of the other closed forms takes at most 4 (three points)
    or 13 (four points) roundings, so the computed det is within 7 eps
    det_abs of det M, det_abs the same expression with every term made
    nonnegative, and |det| - 16 eps det_abs is at most |det M|.
    F, its power and the quotient round within a relative 1e-12, and an
    underflowing product moves by at most 2^-1074, nothing against the
    |det M| of at least 4e-12 that a certificate needs.
    """
    if len(block) == 1:
        return 0.25 if block[0][0] == 0.0 else 0.0
    if len(block) == 2:
        (o0, x), (x_, o1) = block
        return 0.125 if not (o0 or o1) and x == x_ and 0.0 < abs(x) < np.inf else 0.0
    if len(block) == 3:
        (o0, x, y), (x_, o1, z), (y_, z_, o2) = block
        if o0 or o1 or o2 or x != x_ or y != y_ or z != z_:
            return 0.0
        s = max(abs(x), abs(y), abs(z))
        if not s > 0.0:
            return 0.0
        x, y, z = x / s, y / s, z / s
        sq = x * x + y * y + z * z
        det = 2.0 * (x * y + y * z + z * x) - sq
        det_abs = 2.0 * (abs(x * y) + abs(y * z) + abs(z * x)) + sq
        n, frob_sq = 4, 6.0 + 2.0 * sq
    else:
        (o0, a, b, c), (a_, o1, d, e), (b_, d_, o2, f), (c_, e_, f_, o3) = block
        if o0 or o1 or o2 or o3 or a != a_ or b != b_ or c != c_ or d != d_ or e != e_ or f != f_:
            return 0.0
        s = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
        if not s > 0.0:
            return 0.0
        a, b, c, d, e, f = a / s, b / s, c / s, d / s, e / s, f / s
        total = abs(a) + abs(b) + abs(c) + abs(d) + abs(e) + abs(f)
        det = 2.0 * (
            a * f * (b + c + d + e - a - f)
            + b * e * (a + c + d + f - b - e)
            + c * d * (a + b + e + f - c - d)
            - a * b * d
            - a * c * e
            - b * c * f
            - d * e * f
        )
        det_abs = 2.0 * (
            (abs(a * f) + abs(b * e) + abs(c * d)) * total
            + abs(a * b * d)
            + abs(a * c * e)
            + abs(b * c * f)
            + abs(d * e * f)
        )
        n, frob_sq = 5, 8.0 + 2.0 * (a * a + b * b + c * c + d * d + e * e + f * f)
    low = abs(det) - 16.0 * _EPS * det_abs
    return low * abs(low) / (4.0 * (frob_sq / n) ** n)


@dataclass(frozen=True, eq=False)
class MicArray:
    """The vehicle's four microphones, checked once, and their Cayley-Menger matrix.

    local holds the microphone coordinates in the vehicle frame (4 x 3), c the
    5x5 bordered matrix of their squared mutual distances, c_inv = G its
    inverse and abs_det_c |det c|. The distances do not change as the vehicle
    moves, so one value serves a whole scenario; the arrays are read-only
    copies.

    The echo form y^T G y, y = (1, x1, x2, x3, x4) = (u, x4), is also kept in
    vertex form in x4: u^T S u - a (x4 - z)^2 with a = vertex_a = -G_44 > 0
    (non-coplanar microphones), S = vertex_s = G_uu + G_u4 G_u4^T / a and
    z = vertex_z . u, vertex_z = G_u4 / a. form_bound = max(max|G|,
    |G_u4|^2 / a) bounds every |G_ij|, and |G_ij| + |G_i4 G_j4| / a, a bound
    on |S_ij|, by 1.5 form_bound; the round-off pad of the echo windows reads
    it (reconstruction._root_window_grid).
    """

    local: np.ndarray
    c: np.ndarray = field(init=False)
    c_inv: np.ndarray = field(init=False)
    abs_det_c: float = field(init=False)
    vertex_s: np.ndarray = field(init=False)
    vertex_z: np.ndarray = field(init=False)
    vertex_a: float = field(init=False)
    form_bound: float = field(init=False)

    def __post_init__(self):
        local = np.array(self.local, dtype=float)
        if local.shape != (4, 3):
            raise ValueError(f"mic_local must be 4 points in 3-d, got shape {local.shape}")
        if not np.all(np.isfinite(local)):
            raise ValueError("mic_local coordinates must be finite")
        if affine_dimension(local) != 3:
            raise DegenerateGeometryError("mic_local must be non-coplanar")
        c = border(pairwise_squared_distances(local))  # a valid distance matrix by construction
        g = np.linalg.inv(c)
        a, g4 = -float(g[4, 4]), g[:4, 4]
        s, z = g[:4, :4] + np.outer(g4, g4) / a, g4 / a
        arrays = ("local", local), ("c", c), ("c_inv", g), ("vertex_s", s), ("vertex_z", z)
        for name, value in arrays:
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "abs_det_c", abs(float(np.linalg.det(c))))
        object.__setattr__(self, "vertex_a", a)
        object.__setattr__(self, "form_bound", max(float(np.abs(g).max()), float(g4 @ g4) / a))

    def positions(self, delta) -> np.ndarray:
        """Vehicle-frame positions of sources at squared distances delta from the microphones.

        delta[k, j] is the squared distance from microphone k to source j.
        Rows 1-4 of C^{-1} (1, delta_j) are the barycentric coordinates of
        source j with respect to the microphones, so placing all sources is
        one product and needs no solve. Returns one row per source.
        """
        weights = self.c_inv[1:, :1] + self.c_inv[1:, 1:] @ delta
        return weights.T @ self.local


def _mic_array(mics) -> MicArray:
    """mics itself if it is a MicArray, else the MicArray of its coordinates."""
    return mics if isinstance(mics, MicArray) else MicArray(mics)


def _cm_solve(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """C^{-1} delta for a Cayley-Menger matrix c; singular c is degenerate geometry."""
    try:
        return np.linalg.solve(c, delta)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(
            "Cayley-Menger matrix is singular; basis points do not span the space"
        ) from exc


def cm_polynomial(c: np.ndarray, x) -> float:
    """Echo-profile consistency polynomial for four microphones.

    c is the 5x5 Cayley-Menger matrix of the microphones and x four candidate
    squared distances, one per microphone. The value is the determinant of c
    bordered by (1, x1..x4); it vanishes when x is the squared-distance
    profile of an actual point relative to the microphones.
    """
    x, c = np.asarray(x, dtype=float), np.asarray(c, dtype=float)
    if x.shape != (4,):
        raise ValueError("cm_polynomial expects exactly four squared distances")
    if c.shape != (5, 5):
        raise ValueError(f"microphone Cayley-Menger matrix must be 5x5, got {c.shape}")
    y = np.append(1.0, x)[:, None]
    return float(np.linalg.det(np.block([[c, y], [y.T, 0.0]])))


def _echo_form(mics: MicArray, xs) -> tuple[np.ndarray, np.ndarray]:
    """x = xs.T, a row per coordinate, and G y for y = (1, x), G = mics.c_inv,
    summed elementwise, in order, one column of G at a time: G_0 + G_1 x1 +
    ... + G_4 x4. A row rounds alike in any batch (a matrix product does not)."""
    x = np.atleast_2d(np.asarray(xs, dtype=float)).T
    terms = mics.c_inv[:, 1:, None] * x  # G_kj x_j, shape (5, 4, n)
    gy = terms[:, 0] + mics.c_inv[:, :1]
    for j in range(1, 4):
        gy += terms[:, j]
    return x, gy


def cm_polynomial_batch(mics: MicArray, xs: np.ndarray) -> np.ndarray:
    """cm_polynomial over the rows of xs (shape (k, 4)), as a quadratic form.

    mics is the scenario's MicArray, with G = C^{-1} and |det C| = det C = 288 V^2
    (V the microphones' volume). With y = (1, x) the bordered determinant is
    -det(C) y^T G y (Schur complement of C); a row's value ignores other rows.
    y^T G y is summed elementwise, in order, like G y (_echo_form).
    """
    x, gy = _echo_form(mics, xs)
    terms = gy[1:] * x
    form = terms[0] + gy[0]
    for j in range(1, 4):
        form += terms[j]
    return -mics.abs_det_c * form


def _cm_polynomial_gradient(mics: MicArray, xs: np.ndarray) -> np.ndarray:
    """Gradient of cm_polynomial_batch(mics, xs) at each row of xs: -2 det(C) (G y)[1:]."""
    _, gy = _echo_form(mics, xs)
    return -2.0 * mics.abs_det_c * gy[1:].T


def recover_point(basis: np.ndarray, d) -> np.ndarray:
    """Coordinates of points at given squared distances from an affine basis.

    basis holds n+1 points spanning R^n. d holds their n+1 squared distances
    to one unknown point (shape (n+1,)) or to m points, one per column
    (shape (n+1, m)). Rows 1..n+1 of C^{-1} (1, d), with C the basis's
    Cayley-Menger matrix, are barycentric coordinates; the result is their
    combination of the basis points, of shape (n,) or (n, m).
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    d = np.asarray(d, dtype=float)
    n = basis.shape[1]
    if basis.shape[0] != n + 1:
        raise ValueError(f"need {n + 1} basis points in dimension {n}")
    if d.ndim not in (1, 2) or d.shape[0] != n + 1:
        raise ValueError("need one squared distance per basis point")
    if affine_dimension(basis) < n:
        raise DegenerateGeometryError("basis points do not span the space")
    delta = np.concatenate([np.ones((1,) + d.shape[1:]), d])
    return basis.T @ _cm_solve(border(pairwise_squared_distances(basis)), delta)[1:]


def mutual_distances(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Squared distances between points known only by distances to a basis.

    c is the Cayley-Menger matrix of n+1 basis points spanning R^n and each
    column of delta is (1, d_0, ..., d_n) for one target point. Returns
    delta^T c^{-1} delta, symmetrized, with the diagonal forced to zero and
    negative round-off clamped.
    """
    c = np.asarray(c, dtype=float)
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("Cayley-Menger matrix must be square")
    if delta.shape[0] != c.shape[0]:
        raise ValueError(
            f"delta must have {c.shape[0]} rows to match the basis, got {delta.shape[0]}"
        )
    if np.max(np.abs(delta[0] - 1.0), initial=0.0) > _ONES_ROW_TOL:
        raise ValueError("first row of delta must be all ones")
    out = delta.T @ _cm_solve(c, delta)
    out = 0.5 * (out + out.T)
    # Exact arithmetic yields a zero diagonal and nonnegative entries; the
    # deviations seen here are round-off (or measurement noise) and are
    # projected away so downstream code sees a valid distance matrix.
    np.fill_diagonal(out, 0.0)
    np.clip(out, 0.0, None, out=out)
    return out
