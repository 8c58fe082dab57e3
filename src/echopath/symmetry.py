"""Symmetry breaking by reflection: genericity tests for speaker placement.

A fixed loudspeaker at position v is seen through its reflections in the
walls. Whether those mirror points are free of accidental isometries is a
polynomial condition on v. This module evaluates the individual polynomial
factors of that condition, reports which one vanishes (if any), builds the
classical family of line arrangements for which symmetry breaking is
impossible, and enumerates distance-preserving permutations of small point
sets by brute force.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    _EPS,
    _SAME_PLANE_TOL,
    Hyperplane,
    as_point,
    pairwise_squared_distances,
    reflect_point,
)

DEFAULT_GENERICITY_TOL = 1e-9
_GEOM_TOL = 1e-9
_MAX_AUTOMORPHISM_POINTS = 10
_PAIR_BUDGET = 2_000_000  # f pairs tested at once


class ConcurrentLinesError(ValueError):
    """Three lines of a 2-d arrangement pass through one point."""


@dataclass(frozen=True)
class Arrangement:
    """A finite set of distinct affine hyperplanes in fixed dimension.

    normals and offsets hold the hyperplanes' unit normals (one row each)
    and offsets as read-only arrays.
    """

    hyperplanes: tuple[Hyperplane, ...]
    dimension: int
    normals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hs = tuple(self.hyperplanes)
        if not hs:
            raise ValueError("arrangement needs at least one hyperplane")
        for h in hs:
            if h.dim != self.dimension:
                raise ValueError("all hyperplanes must match the arrangement dimension")
        normals = np.stack([h.normal for h in hs])
        offsets = np.array([h.offset for h in hs])
        # Hyperplane.same_plane on every pair, with the dot products of its
        # 1-d @ (one 1 x d by d x 1 product per pair).
        dots = (normals[:, None, None, :] @ normals[:, :, None])[:, :, 0, 0]
        same = np.abs(np.abs(dots) - 1.0) <= _SAME_PLANE_TOL
        same &= np.abs(offsets[:, None] - dots * offsets) <= _SAME_PLANE_TOL
        dup = np.argwhere(np.triu(same, 1))  # pairs i < j in combinations order
        if dup.size:
            i, j = (int(x) for x in dup[0])
            raise ValueError(f"hyperplanes {i} and {j} describe the same plane")
        normals.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "hyperplanes", hs)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def reflections(self, v) -> np.ndarray:
        """All reflections of v, one row per hyperplane (reflect_point, bit for bit)."""
        p = as_point(v, self.dimension)
        dots = (self.normals[:, None, :] @ p)[:, 0]  # 1 x d products, as reflect_point's
        return p - (2.0 * (dots - self.offsets))[:, None] * self.normals


@dataclass(frozen=True)
class FactorRef:
    """Identifies one vanishing polynomial factor by kind and hyperplane tuple."""

    kind: str  # "g", "h" or "f"
    planes: tuple
    value: float

    def __str__(self) -> str:
        return f"{self.kind}{list(self.planes)!r} = {self.value:.3e}"


@dataclass(frozen=True)
class GenericityReport:
    passed: bool
    failed_factor: FactorRef | None = None

    def __post_init__(self):
        if self.passed != (self.failed_factor is None):
            raise ValueError("passed must hold exactly when no factor failed")


def eval_g(h1: Hyperplane, h2: Hyperplane, h3: Hyperplane, v) -> float:
    """Squared mirror-pair distance of (h1, h3) minus squared reflection
    distance of h2: ||ref1(v) - ref3(v)||^2 - ||ref2(v) - v||^2."""
    p = as_point(v)
    w1 = reflect_point(h1, p)
    w3 = reflect_point(h3, p)
    w2 = reflect_point(h2, p)
    return float(np.sum((w1 - w3) ** 2) - np.sum((w2 - p) ** 2))


def eval_h(h1: Hyperplane, h2: Hyperplane, v) -> float:
    """Difference of squared reflection distances to two distinct planes."""
    if h1.same_plane(h2):
        raise ValueError("eval_h needs two distinct hyperplanes")
    p = as_point(v)
    w1 = reflect_point(h1, p)
    w2 = reflect_point(h2, p)
    return float(np.sum((w1 - p) ** 2) - np.sum((w2 - p) ** 2))


def _line_triples_concurrent(hs) -> tuple[int, int, int] | None:
    """First triple of 2-d lines meeting in one point, or None."""
    k = len(hs)
    for a, b in itertools.combinations(range(k), 2):
        mat = np.stack([hs[a].normal, hs[b].normal])
        if abs(np.linalg.det(mat)) < _GEOM_TOL:
            continue  # parallel pair, no intersection point
        p = np.linalg.solve(mat, np.array([hs[a].offset, hs[b].offset]))
        for c in range(k):
            if c in (a, b):
                continue
            if abs(hs[c].normal @ p - hs[c].offset) <= _GEOM_TOL * (1.0 + np.linalg.norm(p)):
                return tuple(sorted((a, b, c)))
    return None


def genericity_check(
    a: Arrangement,
    v,
    tol: float = DEFAULT_GENERICITY_TOL,
    allow_concurrent: bool = False,
) -> GenericityReport:
    """Decide whether v breaks all reflection symmetries of the arrangement.

    Evaluates every factor of the symmetry-breaking polynomial at v and
    passes only if all of them stay above tol * scale^2, where scale is the
    largest distance from v to one of its reflections. The reported factor is
    the first vanishing one in scan order (g factors, then h, then f). In
    3-d a complete screen on unordered wall triples runs first; the ordered
    f scan runs, and makes the report, only when the screen finds a
    candidate.

    In dimension 2 the guarantee requires that no three lines meet in one
    point; such arrangements are rejected unless allow_concurrent is set, in
    which case the factors are still evaluated (for them, some f factor
    vanishes identically in v).
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    if a.dimension not in (2, 3):
        raise ValueError(f"genericity_check supports dimensions 2 and 3, got {a.dimension}")
    p = as_point(v, a.dimension)
    if a.dimension == 2 and not allow_concurrent:
        triple = _line_triples_concurrent(a.hyperplanes)
        if triple is not None:
            raise ConcurrentLinesError(
                f"lines {triple} meet in one point; the 2-d genericity "
                "guarantee does not apply (pass allow_concurrent=True to "
                "evaluate the factors anyway)"
            )

    refl = a.reflections(p)
    pair_sq = pairwise_squared_distances(refl)  # ||w_a - w_b||^2
    refl_sq = np.sum((refl - p) ** 2, axis=1)  # ||w_a - v||^2
    scale_sq = float(np.max(refl_sq))
    threshold = tol * scale_sq

    # g factors over all ordered triples (a, b, c).
    g_vals = pair_sq[:, None, :] - refl_sq[None, :, None]
    bad = np.argwhere(np.abs(g_vals) <= threshold)
    if bad.size:
        i, j, l = (int(x) for x in bad[0])
        return GenericityReport(False, FactorRef("g", (i, j, l), float(g_vals[i, j, l])))

    # h factors over ordered pairs of distinct planes.
    h_vals = refl_sq[:, None] - refl_sq[None, :]
    h_bad = np.abs(h_vals) <= threshold
    np.fill_diagonal(h_bad, False)
    bad = np.argwhere(h_bad)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        return GenericityReport(False, FactorRef("h", (i, j), float(h_vals[i, j])))

    if a.dimension >= 3:
        if not _f_triples_may_vanish(a.normals, pair_sq, threshold):
            return GenericityReport(True, None)
        return _check_f_triples(a.normals, pair_sq, threshold)
    return _check_f_pairs(a.normals, pair_sq, threshold)


def _first_near_duplicate(keys: np.ndarray, rows: np.ndarray, threshold: float):
    """First (row, col) in row-major order with row in rows, col != row and
    ||keys[row] - keys[col]|| <= threshold, or None.

    A hit is within sqrt(d) * threshold in the sum of its d keys, so a row's
    hits lie in a window of the columns sorted on that sum, padded for
    rounding and for squares that underflow. Windows are tested in row
    order, at most _PAIR_BUDGET pairs at a time.
    """
    total = keys.sum(axis=1)
    order = np.argsort(total)
    ordered, own = total[order], total[rows]
    width = np.sqrt(keys.shape[1]) * threshold
    pad = width + 8 * _EPS * (np.abs(own) + width) + 1e-150
    lo = np.searchsorted(ordered, own - pad)
    counts = np.searchsorted(ordered, own + pad, side="right") - lo
    ends = np.cumsum(counts)  # the pairs of rows[i] are numbered up to ends[i]
    shift = lo - ends + counts  # sorted column of a pair = its number + shift
    start = 0
    while start < rows.size:
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _PAIR_BUDGET, side="right")))
        n = counts[start:stop]
        row_of = np.repeat(rows[start:stop], n)
        cols = order[np.repeat(shift[start:stop], n) + np.arange(base, ends[stop - 1])]
        f = np.zeros(cols.size)
        for key in keys.T:
            f += (key[row_of] - key[cols]) ** 2
        # For one key, sqrt(d * d) == |d| exactly.
        hit = np.flatnonzero((np.sqrt(f, out=f) <= threshold) & (cols != row_of))
        if hit.size:
            row = row_of[hit[0]]
            return int(row), int(cols[hit[row_of[hit] == row]].min())
        start = stop
    return None


def _f_triples_may_vanish(normals: np.ndarray, pair_sq: np.ndarray, threshold: float) -> bool:
    """False only if _check_f_triples passes: a cheap, complete screen on wall sets.

    The key of an ordered triple is a permutation of the mirror-pair
    distances (d_ij, d_il, d_jl) of its walls {i, j, l}; (i, i, j) in any
    order gives (0, d_ij, d_ij) and (i, i, i) gives (0, 0, 0). So the
    screen works on the C(W, 3) unordered triples with sorted keys:
    - two orderings of one triple differ by a non-identity permutation of
      their key, which moves at least two entries: their factor is at
      least 2 g^2, g the least gap of the sorted key;
    - for two different wall sets, pairing sorted with sorted gives the
      least sum of squared differences over all orderings (rearrangement
      inequality), so a hit needs the sorted keys within the threshold.
    Rows are the independent triples. The margin below _GEOM_TOL is far
    above round-off, so every ordering of an independent ordered triple is
    a row here, and the threshold is padded for rounding.
    """
    k = len(normals)
    upper = np.arange(k)[:, None] < np.arange(k)  # wall pairs i < j
    i, j, l = np.nonzero(upper[:, :, None] & upper)  # wall sets, lexicographic
    n1, n2 = normals[:, [1, 2, 0]], normals[:, [2, 0, 1]]
    cross = n1[:, None] * n2 - n2[:, None] * n1  # cross[j, l] = n_j x n_l
    volume = np.einsum("ij,ij->i", normals[i], cross[j, l])
    rows = np.flatnonzero(np.abs(volume) > _GEOM_TOL - 1e-12)
    if rows.size == 0:
        return False
    # Columns: every wall set, then (0, d, d) per wall pair, then (0, 0, 0).
    keys = np.zeros((i.size + k * (k - 1) // 2 + 1, 3))
    keys[: i.size] = np.sort(np.column_stack([pair_sq[i, j], pair_sq[i, l], pair_sq[j, l]]))
    keys[i.size : -1, 1] = keys[i.size : -1, 2] = pair_sq[upper]
    pad = threshold * (1.0 + 1e-9) + 64.0 * _EPS * float(pair_sq.max()) + 1e-150
    if np.diff(keys[rows]).min() <= pad / np.sqrt(2.0):
        return True
    return _first_near_duplicate(keys, rows, pad) is not None


def _check_f_triples(normals, pair_sq: np.ndarray, threshold: float) -> GenericityReport:
    # The mirror-pair distances of each ordered triple with independent normals
    # must differ from those of every other ordered triple. The factor is the
    # sum of three squared differences; its square root is held to the g and h
    # threshold. Triples are in lexicographic order; a repeated index gives
    # determinant zero, so no row.
    k = len(normals)
    triples = np.indices((k, k, k)).reshape(3, -1).T
    rows = np.flatnonzero(np.abs(np.linalg.det(normals[triples])) > _GEOM_TOL)
    keys = pair_sq[triples[:, [0, 0, 1]], triples[:, [1, 2, 2]]]  # (01, 02, 12) distances
    hit = _first_near_duplicate(keys, rows, threshold)
    if hit is None:
        return GenericityReport(True, None)
    row, col = hit
    planes = (tuple(int(x) for x in triples[row]), tuple(int(x) for x in triples[col]))
    value = float(np.sum((keys[row] - keys[col]) ** 2))
    return GenericityReport(False, FactorRef("f", planes, value))


def _check_f_pairs(normals, pair_sq: np.ndarray, threshold: float) -> GenericityReport:
    # 2-d form: the mirror-pair distance of each non-parallel pair must
    # differ from that of every other pair (ordered pairs collapse to sets).
    # Rows are the non-parallel pairs i < j, columns all pairs i <= j, both
    # in lexicographic order; i == j gives determinant zero, so no row.
    pairs = np.stack(np.triu_indices(len(normals)), axis=1)
    rows = np.flatnonzero(np.abs(np.linalg.det(normals[pairs])) > _GEOM_TOL)
    keys = pair_sq[pairs[:, :1], pairs[:, 1:]]  # (s, 1)
    hit = _first_near_duplicate(keys, rows, threshold)
    if hit is None:
        return GenericityReport(True, None)
    row, col = hit
    planes = (tuple(int(x) for x in pairs[row]), tuple(int(x) for x in pairs[col]))
    return GenericityReport(False, FactorRef("f", planes, float(keys[row, 0] - keys[col, 0])))


def dihedral_counterexample(k: int) -> Arrangement:
    """k lines through the origin at angles i*pi/k, i = 0..k-1.

    The reflections of any point in these lines form a regular k-gon, so no
    choice of point breaks the symmetry of this arrangement.
    """
    if k < 3:
        raise ValueError("need at least three lines")
    lines = []
    for i in range(k):
        theta = i * np.pi / k
        lines.append(Hyperplane(np.array([-np.sin(theta), np.cos(theta)]), 0.0))
    return Arrangement(tuple(lines), 2)


def distance_automorphisms(points, tol: float = 1e-9) -> list[tuple[int, ...]]:
    """All permutations of the points preserving every pairwise distance.

    Brute-force search over permutations (pruned on partial assignments),
    limited to 10 points. The identity is always part of the result.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k > _MAX_AUTOMORPHISM_POINTS:
        raise ValueError(f"at most {_MAX_AUTOMORPHISM_POINTS} points supported, got {k}")
    dist = np.sqrt(pairwise_squared_distances(pts))
    found: list[tuple[int, ...]] = []

    def extend(partial: list[int]):
        i = len(partial)
        if i == k:
            found.append(tuple(partial))
            return
        for cand in range(k):
            if cand in partial:
                continue
            if all(abs(dist[cand, partial[j]] - dist[i, j]) <= tol for j in range(i)):
                extend(partial + [cand])

    extend([])
    return found
