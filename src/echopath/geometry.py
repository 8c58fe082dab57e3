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
    if not np.all(np.isfinite(p)):
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
    return int(np.sum(s > tol * s[0]))


def affine_dimension(points, tol: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of the affine span of a point set.

    Numerical rank (relative threshold tol) of the differences v_i - v_0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("affine_dimension needs at least one point")
    return _numerical_rank(pts[1:] - pts[0], tol)


def linearly_independent_hyperplanes(hs, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True if the hyperplanes' normal vectors are linearly independent."""
    if len(hs) == 0:
        raise ValueError("need at least one hyperplane")
    return _numerical_rank(np.stack([h.normal for h in hs]), tol) == len(hs)


def pairwise_squared_distances(points) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances with zero diagonal."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d, 0.0)
    return d
