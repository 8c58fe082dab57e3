"""Distance algebra: Cayley-Menger matrices, bordered rank, point recovery.

A distance matrix here is always a symmetric matrix of *squared* Euclidean
distances with zero diagonal. Bordering such a matrix with a 0/1 row and
column gives the classical Cayley-Menger matrix C, whose rank encodes the
affine dimension of the generating points. Everything else is one linear
solve against C: for columns delta = (1, d) of squared distances to the
basis points, delta^T C^{-1} delta holds the squared distances between the
targets (its vanishing diagonal is the echo test), and rows 1..n+1 of
C^{-1} delta are their barycentric coordinates (multilateration).
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    DEFAULT_RANK_TOL,
    DegenerateGeometryError,
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
    dimension of the set. Rank uses singular values above tol * sigma_max.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("bordered_rank expects a square matrix")
    return _numerical_rank(border(m), tol) - 2


def _cm_solve(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """C^{-1} delta for a Cayley-Menger matrix c; singular c is degenerate geometry."""
    try:
        return np.linalg.solve(c, delta)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(
            "Cayley-Menger matrix is singular; basis points do not span the space"
        ) from exc


def _echo_columns(c, xs) -> tuple[np.ndarray, np.ndarray]:
    """The microphones' 5x5 matrix c and the columns y = (1, x) of the rows of xs."""
    c = np.asarray(c, dtype=float)
    if c.shape != (5, 5):
        raise ValueError(f"microphone Cayley-Menger matrix must be 5x5, got {c.shape}")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return c, np.vstack([np.ones(len(xs)), xs.T])


def cm_polynomial(c: np.ndarray, x) -> float:
    """Echo-profile consistency polynomial for four microphones.

    c is the 5x5 Cayley-Menger matrix of the microphones and x four candidate
    squared distances, one per microphone. The value is the determinant of c
    bordered by (1, x1..x4); it vanishes when x is the squared-distance
    profile of an actual point relative to the microphones.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("cm_polynomial expects exactly four squared distances")
    c, y = _echo_columns(c, x)
    return float(np.linalg.det(np.block([[c, y], [y.T, 0.0]])))


def cm_polynomial_batch(c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """cm_polynomial over the rows of xs (shape (k, 4)), as a quadratic form.

    With y = (1, x), the bordered determinant equals -det(c) * y^T c^{-1} y
    (Schur complement of c), so one solve against c serves every row.
    """
    c, y = _echo_columns(c, xs)
    return -np.linalg.det(c) * np.einsum("ik,ik->k", y, _cm_solve(c, y))


def _cm_polynomial_gradient(c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Gradient of cm_polynomial in x at each row of xs: -2 det(c) (c^{-1} y)[1:]."""
    c, y = _echo_columns(c, xs)
    return -2.0 * np.linalg.det(c) * _cm_solve(c, y)[1:].T


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
