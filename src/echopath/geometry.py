"""Points, hyperplanes, walls and reflections in R^2 / R^3.

Points are plain numpy arrays of shape (n,). Everything here is a pure
function of its inputs; the value types are frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BOUNDARY_PLANE_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-6
_SAME_PLANE_TOL = 1e-9


class DegenerateGeometryError(ValueError):
    """A geometric configuration is too degenerate for the requested operation."""


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate and convert coordinates to a float point array."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be a 1-d coordinate array, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has dimension {p.shape[0]}, expected {dim}")
    if not np.isfinite(p).all():
        raise ValueError("point coordinates must be finite")
    return p


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Affine hyperplane {x : <normal, x> = offset} with a unit normal.

    The constructor accepts any nonzero normal and rescales (normal, offset)
    jointly, so the stored normal is always unit length.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_point(self.normal)
        norm = float(np.linalg.norm(n))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("hyperplane normal must be nonzero and finite")
        if not np.isfinite(float(self.offset)):
            raise ValueError("hyperplane offset must be finite")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def signed_distance(self, v) -> float:
        """Signed distance from v to the plane (positive on the normal side)."""
        return float(self.normal @ as_point(v, self.dim) - self.offset)

    def same_plane(self, other: "Hyperplane") -> bool:
        """True if both describe the same point set (normals may be opposite)."""
        d = float(self.normal @ other.normal)
        if abs(abs(d) - 1.0) > _SAME_PLANE_TOL:
            return False
        return abs(self.offset - d * other.offset) <= _SAME_PLANE_TOL


@dataclass(frozen=True, eq=False)
class Wall:
    """A planar reflector: a hyperplane plus an optional polygonal boundary.

    Without a boundary the wall is the whole (unbounded) plane. A boundary is
    an ordered list of >= 3 coplanar vertices forming a simple polygon; it is
    only meaningful in dimension 3 and enables per-microphone occlusion tests.
    """

    plane: Hyperplane
    boundary: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.boundary is None:
            return
        b = np.asarray(self.boundary, dtype=float)
        if b.ndim != 2 or b.shape[0] < 3 or b.shape[1] != self.plane.dim:
            raise ValueError(
                "wall boundary must be >= 3 points of the plane's dimension"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("wall boundary coordinates must be finite")
        dists = b @ self.plane.normal - self.plane.offset
        if np.max(np.abs(dists)) > BOUNDARY_PLANE_TOL:
            raise ValueError("wall boundary points must lie on the wall plane")
        if self.plane.dim == 3 and not _is_simple_polygon(b, self.plane.normal):
            raise ValueError("wall boundary must be a simple polygon")
        object.__setattr__(self, "boundary", b)

    @property
    def bounded(self) -> bool:
        return self.boundary is not None


def plane_basis(normal: np.ndarray) -> np.ndarray:
    """Two orthonormal vectors spanning the plane orthogonal to a 3-d normal."""
    n = as_point(normal, 3)
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(n, a)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return np.stack([u, v])


def _segments_intersect(p1, p2, q1, q2) -> bool:
    # Proper 2-d segment intersection (shared endpoints do not count).
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _is_simple_polygon(vertices: np.ndarray, normal: np.ndarray) -> bool:
    pts2 = vertices @ plane_basis(normal).T
    k = len(pts2)
    edges = [(pts2[i], pts2[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                continue  # adjacent edges share a vertex
            if _segments_intersect(*edges[i], *edges[j]):
                return False
    return True


def point_in_polygon(point2: np.ndarray, polygon2: np.ndarray) -> bool:
    """Even-odd test for a 2-d point against a simple polygon."""
    x, y = point2
    inside = False
    k = len(polygon2)
    for i in range(k):
        x1, y1 = polygon2[i]
        x2, y2 = polygon2[(i + 1) % k]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def reflect_point(h: Hyperplane, v) -> np.ndarray:
    """Mirror image of v across the hyperplane h.

    An involution that fixes exactly the points of h.
    """
    p = as_point(v, h.dim)
    return p - 2.0 * (h.normal @ p - h.offset) * h.normal


def mirror_point(w: Wall, speaker) -> np.ndarray:
    """Virtual sound source of a wall: the speaker reflected in the wall plane."""
    return reflect_point(w.plane, speaker)


def _numerical_rank(m: np.ndarray, tol: float) -> int:
    """Number of singular values of m above tol * sigma_max (0 for an empty or zero m)."""
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


_EPS = np.finfo(float).eps
# Below this rank tolerance no verdict skips the SVD (see _certified_full_rank).
_CERTIFY_MIN_TOL = 1e-12


def _certified_full_rank(ratio_sq: float, tol: float) -> bool:
    """True when ratio_sq proves that _numerical_rank(m, tol) counts every
    singular value of m.

    ratio_sq must be a lower bound on (sigma_min / sigma_max)^2 of m up to a
    relative error of 1e-3, and it is certified at 4 tol^2, so sigma_min >=
    1.998 tol sigma_max. LAPACK's SVD returns the singular values of m + E
    with ||E|| <= c eps sigma_max, c a modest function of the size of m, so
    each computed value is within c eps sigma_max of its own (Weyl):
    sigma_min - c eps sigma_max > tol (1 + c eps) sigma_max, at least the
    computed sigma_max times tol, whenever tol (0.998 - c eps) > c eps (the
    product with tol rounds by eps / 2 more). For tol >= 1e-12 = 4500 eps
    that holds for any c below 4000, so the SVD's count is full too and the
    verdict is the same. A NaN ratio_sq or tol, or a tol below 1e-12,
    proves nothing.
    """
    return ratio_sq >= 4.0 * tol * tol and tol >= _CERTIFY_MIN_TOL


def _gram_ratio_sq(x: np.ndarray) -> float:
    """A lower bound on (sigma_3 / sigma_1)^2 of x (p rows, 3 columns), for
    _certified_full_rank; 0.0 or less when it shows nothing.

    G = x^T x has the eigenvalues l1 >= l2 >= l3 = sigma_i^2 and trace T,
    and l1^2 l2 is at most 4 T^3 / 27 (the largest t^2 (T - t), at t =
    2T/3), so l3 / l1 = det G / (l1^2 l2) >= 27 det G / (4 T^3).

    Round-off, with eps = 2^-52: the product's entries are within d =
    0.51 p eps sqrt(G_ii G_jj) <= 0.51 p eps T of G's, in any summation
    order, and every |G_ij| <= T, so det of the computed G is within
    6 ((T + d)^3 - T^3) <= 10 p eps T^3 of det G (six products of three
    entries). Its evaluation adds at most 5 roundings per product, 16 eps
    T^3 over the six, and the computed trace t has T <= (1 + (p + 2) eps) t.
    The floor 16 (p + 2) eps t^3 covers both terms, and the rest of the
    bound rounds within a relative 1e-3 for any p below 1e12. Without the
    floor, flat sets would pass on round-off alone at tol = 1e-12. A trace
    outside [1e-100, 1e100] (NaN or inf included) gives 0.0: inside it no
    product overflows, and underflow moves a product by at most 2^-1074,
    far below the floor.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (g00, g01, g02), (_, g11, g12), (*_, g22) = (x.T @ x).tolist()
    t = g00 + g11 + g22
    if not 1e-100 <= t <= 1e100:
        return 0.0
    det = (
        g00 * (g11 * g22 - g12 * g12)
        - g01 * (g01 * g22 - g12 * g02)
        + g02 * (g01 * g12 - g11 * g02)
    )
    cube = t * t * t
    return 27.0 * (det - 16.0 * (len(x) + 2) * _EPS * cube) / (4.0 * cube)


def affine_dimension(points, tol: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of the affine span of a point set.

    Numerical rank (relative threshold tol) of the differences v_i - v_0.
    In 3-d, at least four points whose differences' Gram matrix bounds
    sigma_3 / sigma_1 at 2 tol or above (_gram_ratio_sq) span the space
    without an SVD, for tol >= 1e-12; the SVD would count all three values
    (_certified_full_rank). Every other set, a flat one included, takes the
    SVD.
    """
    pts = np.array(points, dtype=float, copy=None, ndmin=2)
    if pts.shape[0] < 1:
        raise ValueError("affine_dimension needs at least one point")
    x = pts[1:] - pts[0]
    if x.shape[1:] == (3,) and len(x) >= 3 and _certified_full_rank(_gram_ratio_sq(x), tol):
        return 3
    return _numerical_rank(x, tol)


def linearly_independent_hyperplanes(hs, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True if the hyperplanes' normal vectors are linearly independent."""
    if len(hs) == 0:
        raise ValueError("need at least one hyperplane")
    return _numerical_rank(np.stack([h.normal for h in hs]), tol) == len(hs)


def pairwise_squared_distances(points) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances with zero diagonal."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = squared_distances(pts, pts)
    np.fill_diagonal(d, 0.0)
    return d


def squared_distances(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(m, n) squared distances from rows (m, d) to points (n, d).

    One subtract.outer per coordinate, squared in place; elementwise
    arithmetic rounds alike for any memory layout. In 3-d the terms are added
    as (dx^2 + dz^2) + dy^2, the order of einsum("ijk,ijk->ij") on the
    differences, so the values equal its bit for bit; 2-d addition commutes.
    """
    terms = [np.subtract.outer(r, p) for r, p in zip(rows.T, points.T)]
    for diff in terms:
        diff *= diff
    if len(terms) == 3:
        terms[0] += terms[2]
        terms[0] += terms[1]
        return terms[0]
    return sum(terms[1:], terms[0])
