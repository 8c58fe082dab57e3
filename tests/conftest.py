import itertools
from pathlib import Path

import numpy as np
import pytest

from echopath import (
    GenericityReport,
    Hyperplane,
    MatchStats,
    Pose,
    Scenario,
    Wall,
    bordered_rank,
    rotation_from_yaw_pitch_roll,
)
from echopath.symmetry import FactorRef

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def box_walls(lx: float, ly: float, lz: float) -> tuple:
    return (
        Wall(Hyperplane([1, 0, 0], 0.0)),
        Wall(Hyperplane([1, 0, 0], lx)),
        Wall(Hyperplane([0, 1, 0], 0.0)),
        Wall(Hyperplane([0, 1, 0], ly)),
        Wall(Hyperplane([0, 0, 1], 0.0)),
        Wall(Hyperplane([0, 0, 1], lz)),
    )


def tetra_mics(edge: float = 0.7) -> np.ndarray:
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    return verts * edge / (2.0 * np.sqrt(2.0))


def demo_path() -> tuple:
    spec = [
        ((2.0, 1.5, 1.0), (0.0, 0.0, 0.0)),
        ((2.5, 2.0, 1.2), (0.4, -0.1, 0.05)),
        ((3.5, 3.0, 1.5), (1.2, 0.2, -0.3)),
        ((4.2, 2.2, 0.8), (-0.8, 0.15, 0.25)),
        ((3.0, 3.8, 1.8), (2.2, -0.25, 0.4)),
        ((2.2, 3.2, 0.9), (-2.0, 0.1, -0.2)),
        ((4.5, 4.0, 2.0), (2.9, 0.35, 0.5)),
        ((3.8, 1.2, 1.4), (-1.5, -0.3, -0.45)),
        ((1.6, 3.9, 2.2), (0.9, 0.45, 0.15)),
        ((4.8, 3.1, 1.1), (-2.7, -0.2, 0.3)),
    ]
    return tuple(Pose(v, rotation_from_yaw_pitch_roll(*ypr)) for v, ypr in spec)


def box_scenario(**overrides) -> Scenario:
    base = dict(
        walls=box_walls(6.0, 5.0, 3.0),
        speaker=[1.1, 2.3, 1.7],
        mic_local=tetra_mics(),
        path=demo_path(),
        noise_sigma=0.0,
        seed=20240601,
        occlusion_enabled=False,
    )
    base.update(overrides)
    return Scenario(**base)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return rotation_from_yaw_pitch_roll(
        rng.uniform(-np.pi, np.pi), rng.uniform(-1.2, 1.2), rng.uniform(-np.pi, np.pi)
    )


def brute_force_match(a, b, r, eq_tol=1e-6, rank_tol=1e-6):
    """Exhaustive submatrix matcher, independent of the backtracking search.

    Enumerates every increasing i-tuple and distinct j-tuple, keeps those
    with entrywise-equal submatrices (within eq_tol) whose selected block has
    bordered rank r-1, and returns the least in lexicographic
    (i1, j1, i2, j2, ...) order, or None.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[0], b.shape[0]
    i_tuples = list(itertools.combinations(range(m), r))
    j_tuples = list(itertools.permutations(range(n), r))
    if not i_tuples or not j_tuples:
        return None
    sub_a = np.array([a[np.ix_(t, t)] for t in i_tuples])
    sub_b = np.array([b[np.ix_(t, t)] for t in j_tuples])
    rank_ok = np.array([bordered_rank(a[np.ix_(t, t)], rank_tol) == r - 1 for t in i_tuples])
    worst = np.abs(sub_a[:, None, :, :] - sub_b[None, :, :, :]).max(axis=(2, 3))
    hits = np.argwhere((worst <= eq_tol) & rank_ok[:, None])
    if hits.size == 0:
        return None

    def interleaved(hit):
        it, jt = i_tuples[hit[0]], j_tuples[hit[1]]
        return tuple(x for pair in zip(it, jt) for x in pair)

    best = min(hits, key=interleaved)
    return tuple(i_tuples[best[0]]), tuple(j_tuples[best[1]])


# Reference: the scalar backtracking search that match_submatrices replaced,
# kept as it was; it does one Python comparison per matrix entry.
def backtracking_match(
    a,
    b,
    r: int,
    eq_tol: float = 1e-6,
    rank_tol: float = 1e-6,
    stats: MatchStats | None = None,
):
    """Find index tuples with equal principal submatrices in two symmetric matrices.

    Searches for strictly increasing i_1..i_r and pairwise distinct j_1..j_r
    such that a[i.,i.] equals b[j.,j.] entrywise within eq_tol and the
    selected a-submatrix has bordered rank r-1 (for distance matrices: the
    selected points span a full simplex). The backtracking explores candidate
    tuples in lexicographic order of (i1, j1, i2, j2, ...), so the returned
    solution is the lexicographically least one; None means no solution
    exists. Indices are 0-based.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[0], b.shape[0]
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("match_submatrices expects square matrices")
    if not 1 <= r <= min(m, n):
        raise ValueError(f"r must be between 1 and min(m, n) = {min(m, n)}")

    # State uses 1-based index tuples i[1..k], j[1..k]; slot r+1 exists so the
    # final successful extension has somewhere to write.
    ii = [0] * (r + 2)
    jj = [0] * (r + 2)
    ii[1] = jj[1] = 1
    k = 1
    rank_cache: dict[tuple, int] = {}

    def conditions_hold() -> bool:
        jk = jj[k]
        if jk == n + 1 or jk in jj[1:k]:
            return False
        ik = ii[k]
        for nu in range(1, k + 1):
            if stats is not None:
                stats.comparisons += 1
            if abs(a[ik - 1, ii[nu] - 1] - b[jk - 1, jj[nu] - 1]) > eq_tol:
                return False
        sel = tuple(x - 1 for x in ii[1 : k + 1])
        rank = rank_cache.get(sel)
        if rank is None:
            rank = bordered_rank(a[np.ix_(sel, sel)], rank_tol)
            rank_cache[sel] = rank
            if stats is not None:
                stats.rank_checks += 1
        return rank == k - 1

    while k <= r:
        if conditions_hold():
            ii[k + 1] = ii[k] + 1
            jj[k + 1] = 1
            k += 1
        elif jj[k] < n:
            jj[k] += 1
        elif ii[k] < m - r + k:
            ii[k] += 1
            jj[k] = 1
        elif k > 1:
            jj[k - 1] += 1
            k -= 1
        else:
            return None
    return tuple(x - 1 for x in ii[1 : r + 1]), tuple(x - 1 for x in jj[1 : r + 1])


# Reference: the chunked f-factor scan that symmetry._check_f_sets
# replaced, kept as it was; it compares every independent ordered wall triple
# with all W^3 ordered triples.
def _ordered_triples(k: int) -> np.ndarray:
    idx = np.indices((k, k, k)).reshape(3, -1).T
    return idx  # lexicographic order


def _independent_triple_mask(normals: np.ndarray, triples: np.ndarray) -> np.ndarray:
    # Unit normals: the triple is independent exactly when its 3x3 determinant
    # is away from zero (repeated indices give determinant zero for free).
    mats = normals[triples]  # (s, 3, 3)
    return np.abs(np.linalg.det(mats)) > 1e-9


def chunked_check_f_triples(hs, pair_sq: np.ndarray, threshold: float) -> GenericityReport:
    # For each ordered triple with independent normals, the three mirror-pair
    # distances must differ from those of every other ordered triple. The
    # factor is a sum of three squared differences; its square root is held
    # to the same squared-distance threshold as the g and h factors.
    k = len(hs)
    normals = np.stack([h.normal for h in hs])
    triples = _ordered_triples(k)  # (s, 3)
    indep_idx = np.flatnonzero(_independent_triple_mask(normals, triples))
    if indep_idx.size == 0:
        return GenericityReport(True, None)
    pair_vec = np.stack(
        [
            pair_sq[triples[:, 0], triples[:, 1]],
            pair_sq[triples[:, 0], triples[:, 2]],
            pair_sq[triples[:, 1], triples[:, 2]],
        ],
        axis=1,
    )  # (s, 3)
    s = len(triples)
    chunk = max(1, 2_000_000 // s)
    for start in range(0, indep_idx.size, chunk):
        rows = indep_idx[start : start + chunk]
        diffs = pair_vec[rows][:, None, :] - pair_vec[None, :, :]
        f_vals = np.sum(diffs**2, axis=2)  # (chunk, s)
        f_vals[np.arange(rows.size), rows] = np.inf  # each tuple vs itself
        if np.sqrt(f_vals.min()) <= threshold:
            # Rows and columns are in scan order, so the first hit in
            # row-major order is the first vanishing factor.
            ti, oj = divmod(int(np.argmax(np.sqrt(f_vals) <= threshold)), s)
            return GenericityReport(
                False,
                FactorRef(
                    "f",
                    (tuple(int(x) for x in triples[rows[ti]]), tuple(int(x) for x in triples[oj])),
                    float(f_vals[ti, oj]),
                ),
            )
    return GenericityReport(True, None)


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR
