"""Self-location from sorted echoes and a registry of known sound sources.

One locate step consumes the echo sets of a single emission and runs:

1. echo matching: combine one squared distance per microphone into columns
   that are consistent with a common sound source (the consistency test is
   the vanishing of the microphones' Cayley-Menger polynomial);
2. source geometry: squared distances between the detected sources, computed
   from the echo columns alone (microphone mutual distances are pose
   invariant, so the local coordinates suffice);
3. a rank test: fewer than four detected sources, or coplanar ones, cannot
   anchor a pose, so the step fails;
4. bootstrap or matching: the first usable emission freezes the vehicle
   frame and stores the detected sources in it; later emissions match four
   detected sources against the registry by submatrix search;
5. self-location: multilaterate the microphones from the four matched
   reference points and factor the result into orientation and position;
6. knowledge update: express all detected sources in the frozen frame and
   register the ones not seen before.

Any internal failure is reported as a FAIL result with a diagnostic tag and
leaves the registry untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cayley_menger import (
    _cm_polynomial_gradient,
    bordered_rank,
    cm_matrix,
    cm_polynomial_batch,
    mutual_distances,
    recover_point,
)
from .geometry import (
    DegenerateGeometryError,
    affine_dimension,
    pairwise_squared_distances,
)
from .simulator import EchoSet, Pose


class PoseInconsistencyError(RuntimeError):
    """Recovered orientation is far from orthogonal (bad match or noise overload)."""


@dataclass(frozen=True, eq=False)
class MicArray:
    """The vehicle's four microphones, checked once, and their Cayley-Menger matrix.

    local holds the microphone coordinates in the vehicle frame (4 x 3) and
    c the 5x5 bordered matrix of their squared mutual distances. Those
    distances do not change as the vehicle moves, so one value serves a whole
    run. Both arrays are read-only copies, so c cannot go stale.
    """

    local: np.ndarray
    c: np.ndarray = field(init=False)

    def __post_init__(self):
        local = np.array(self.local, dtype=float)
        if local.shape != (4, 3):
            raise ValueError(f"mic_local must be 4 points in 3-d, got shape {local.shape}")
        if not np.all(np.isfinite(local)):
            raise ValueError("mic_local coordinates must be finite")
        if affine_dimension(local) != 3:
            raise DegenerateGeometryError("mic_local must be non-coplanar")
        c = cm_matrix(pairwise_squared_distances(local))
        local.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "c", c)


def _mic_array(mics) -> MicArray:
    """mics itself if it is a MicArray, else the MicArray of its coordinates."""
    return mics if isinstance(mics, MicArray) else MicArray(mics)


@dataclass(eq=False)
class SourceRegistry:
    """Known sound-source positions, all in the frozen coordinate frame."""

    sources: list = field(default_factory=list)

    @property
    def frame_frozen(self) -> bool:
        """True once bootstrap has stored the sources that fix the frame."""
        return bool(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def as_array(self) -> np.ndarray:
        if not self.sources:
            return np.zeros((0, 3))
        return np.stack(self.sources)


@dataclass(frozen=True, eq=False)
class EchoAssignment:
    """Columns of per-microphone squared distances, one per detected source."""

    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        if d.ndim != 2 or d.shape[0] != 4:
            raise ValueError(f"assignment must be 4 x m, got shape {d.shape}")
        object.__setattr__(self, "delta", d)

    @property
    def n_sources(self) -> int:
        return self.delta.shape[1]


@dataclass(frozen=True, eq=False)
class LocateResult:
    status: str  # "success" or "fail"
    pose: Pose | None = None
    new_sources: tuple | None = None
    fail_reason: str | None = None

    def __post_init__(self):
        if self.status not in ("success", "fail"):
            raise ValueError("status must be 'success' or 'fail'")
        if self.status == "fail" and (self.pose is not None or self.new_sources is not None):
            raise ValueError("failed results carry no pose and no new sources")


@dataclass
class MatchStats:
    """Operation counts of one submatrix search (for complexity experiments).

    comparisons counts matrix entries compared, m * n for each vectorized
    test of an (m, n) candidate mask: one test of the diagonals and one for
    each pair the search tries. rank_checks counts bordered-rank
    computations, one per distinct row prefix i_1..i_k that reached a
    candidate column.
    """

    comparisons: int = 0
    rank_checks: int = 0


def _polynomial_noise_std(c: np.ndarray, grid: np.ndarray, sigma: float) -> np.ndarray:
    """Predicted std of the consistency polynomial under travel-distance noise.

    Linearizes the polynomial in each squared distance (analytic gradient)
    and propagates independent per-entry noise of std 2*sqrt(x)*sigma + sigma^2.
    """
    entry_std = 2.0 * np.sqrt(grid) * sigma + sigma**2
    return np.sqrt(np.sum((_cm_polynomial_gradient(c, grid) * entry_std) ** 2, axis=1))


# Under noise the echo-root test is widened by this many predicted noise stds.
_NOISE_MARGIN = 8.0

# Microphone pairs (i, j), i < j, in the order _pair_pruned_grid joins them,
# and the 16 corners of a 4-d box as low/high choices per axis.
_MIC_I, _MIC_J = np.triu_indices(4, 1)
_BOX_CORNERS = np.array(list(itertools.product((False, True), repeat=4)))


def _pair_pruned_grid(c, sets, root_tol, noise_sigma) -> np.ndarray:
    """Rows of the product grid of sets that can pass echo_match's test, in order.

    For y = (1, x) write c^{-1} y = (mu, lam) and p = sum lam_i m_i. Then
    x_i = ||p - m_i||^2 + q/2 with q = -P(x)/det(c). A column passes only if
    |P(x)| is at most its threshold, and no threshold in the box
    prod [min S_i, max S_i] exceeds t_max, so every x_i of a passing column
    lies within kappa = t_max / (2 |det c|) of a true squared distance. For
    r_i = sqrt(x_i) the triangle inequality of p, m_i and m_j then gives
    |r_i - r_j| <= ||m_i - m_j|| + kappa (1/r_i + 1/r_j). Each microphone
    pair prunes its two echo sets with that bound, kappa doubled as round-off
    headroom; a nonpositive entry bounds nothing and is kept.
    """
    # One row per microphone, padded with NaN, which fails every comparison.
    x = np.full((4, max(len(s) for s in sets)), np.nan)
    for k, s in enumerate(sets):
        x[k, : len(s)] = s
    lo, hi = np.fmin.reduce(x, axis=1), np.fmax.reduce(x, axis=1)
    x_max = max(float(hi.max()), 0.0)
    t_max = root_tol * x_max**3
    if noise_sigma > 0.0:
        # The noise std is at most the largest entry std times the gradient
        # norm; the gradient is affine in x, so its norm peaks at a corner.
        grad = _cm_polynomial_gradient(c, np.where(_BOX_CORNERS, hi, lo))
        entry_std = 2.0 * np.sqrt(x_max) * noise_sigma + noise_sigma**2
        t_max += _NOISE_MARGIN * entry_std * np.max(np.linalg.norm(grad, axis=1))
    kappa = t_max / abs(np.linalg.det(c))  # twice t_max / (2 |det c|)

    r = np.sqrt(np.clip(x, 0.0, None))
    slack = np.divide(kappa, r, out=np.full_like(r, np.inf), where=x > 0.0)
    d_mics = c[1:, 1:]  # the microphones' squared mutual distances
    ok = np.abs(r[_MIC_I, :, None] - r[_MIC_J, None, :]) <= (
        np.sqrt(d_mics[_MIC_I, _MIC_J])[:, None, None]
        + slack[_MIC_I, :, None]
        + slack[_MIC_J, None, :]
    )  # ok[pair, a, b]: entry a of set i and entry b of set j pass
    ok01, ok02, ok03, ok12, ok13, ok23 = ok
    # Extend the surviving index pairs (i0, i1) by one microphone at a time.
    i0, i1 = np.nonzero(ok01)
    keep, i2 = np.nonzero(ok02[i0] & ok12[i1])
    i0, i1 = i0[keep], i1[keep]
    keep, i3 = np.nonzero(ok03[i0] & ok13[i1] & ok23[i2])
    return np.stack([x[0, i0[keep]], x[1, i1[keep]], x[2, i2[keep]], x[3, i3]], axis=1)


def echo_match(
    mics,
    e: EchoSet,
    root_tol: float = 1e-9,
    noise_sigma: float = 0.0,
) -> EchoAssignment:
    """Assign echoes to common sources by testing the cross combinations.

    A column (d1, d2, d3, d4) from the product of the four echo sets is kept
    when the Cayley-Menger polynomial of the microphones vanishes on it,
    relative to root_tol times (max d_i)^3. Duplicate columns are merged.

    With noise_sigma > 0 the root test is additionally widened per tuple by
    eight times the polynomial's predicted noise std, so true columns
    survive measurement noise. Combinations that merely come close to
    consistency under noise are kept as well; such ghost columns are expected
    to be discarded later by failing to match known sources.

    Only columns that pass a pairwise triangle bound are tested; the bound
    holds for every column the test accepts (see _pair_pruned_grid), so the
    result equals that of testing the full grid.

    mics is a MicArray or the microphones' local coordinates.
    """
    c = _mic_array(mics).c
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError("noise_sigma must be nonnegative and finite")
    sets = [np.asarray(s, dtype=float) for s in e.d_sets]
    if any(s.size == 0 for s in sets):
        return EchoAssignment(np.zeros((4, 0)))
    grid = _pair_pruned_grid(c, sets, root_tol, noise_sigma)
    vals = cm_polynomial_batch(c, grid)
    threshold = root_tol * np.max(grid, axis=1) ** 3
    if noise_sigma > 0.0:
        threshold = threshold + _NOISE_MARGIN * _polynomial_noise_std(c, grid, noise_sigma)
    cols = grid[np.abs(vals) <= threshold]
    if cols.shape[0] == 0:
        return EchoAssignment(np.zeros((4, 0)))
    cols = np.unique(cols, axis=0)
    return EchoAssignment(np.ascontiguousarray(cols.T))


def detected_distance_matrix(mics, a: EchoAssignment) -> np.ndarray:
    """Squared distances between the detected sources.

    Built from the echo columns and the (pose-invariant) microphone mutual
    distances only; no world positions are needed. mics is a MicArray or the
    microphones' local coordinates.
    """
    m = a.n_sources
    delta_bar = np.vstack([np.ones((1, m)), a.delta])
    return mutual_distances(_mic_array(mics).c, delta_bar)


def match_submatrices(
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
    selected points span a full simplex). The depth-first search explores
    candidate tuples in lexicographic order of (i1, j1, i2, j2, ...), so the
    returned solution is the lexicographically least one; None means no
    solution exists. Indices are 0-based.

    Each search node holds a boolean mask over (a-row, b-row) pairs that
    agree with every pair chosen so far; choosing a pair narrows it with one
    vectorized comparison (see _extend_match).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("match_submatrices expects square matrices")
    m, n = a.shape[0], b.shape[0]
    if not 1 <= r <= min(m, n):
        raise ValueError(f"r must be between 1 and min(m, n) = {min(m, n)}")
    mask = abs(a.diagonal()[:, None] - b.diagonal()) <= eq_tol
    if stats is not None:
        stats.comparisons += mask.size
    return _extend_match(a, b, r, eq_tol, rank_tol, stats, mask, (), (), {})


def _extend_match(a, b, r, eq_tol, rank_tol, stats, mask, ii, jj, rank_cache):
    """Least completion of the chosen pairs (ii, jj) to r pairs, or None.

    mask[i, j] holds when pairing a-row i with b-row j agrees within eq_tol
    on the diagonal and with every chosen pair, and j is not chosen yet. The
    next pair takes rows i > ii[-1] that leave enough rows for the remaining
    pairs, each with its columns in increasing order. This is a module-level
    function, not a nested closure, so no reference cycle keeps a and b alive
    after the search returns.
    """
    k = len(ii)
    lo = ii[-1] + 1 if ii else 0
    rows = mask[lo : a.shape[0] - r + k + 1].any(axis=1).nonzero()[0] + lo
    for i in rows.tolist():
        sel = (*ii, i)
        rank = rank_cache.get(sel)
        if rank is None:
            rank = rank_cache[sel] = bordered_rank(a[np.ix_(sel, sel)], rank_tol)
            if stats is not None:
                stats.rank_checks += 1
        if rank != k:
            continue
        cols = mask[i].nonzero()[0].tolist()
        if k + 1 == r:
            return sel, (*jj, cols[0])
        for j in cols:
            # A later pair (row, col) must match a[row, i] with b[col, j].
            narrowed = mask & (abs(a[:, i, None] - b[:, j]) <= eq_tol)
            narrowed[:, j] = False
            if stats is not None:
                stats.comparisons += narrowed.size
            found = _extend_match(
                a, b, r, eq_tol, rank_tol, stats, narrowed, sel, (*jj, j), rank_cache
            )
            if found is not None:
                return found
    return None


def self_locate(mic_local, b, delta_cols, ortho_tol: float = 1e-6) -> Pose:
    """Pose of the vehicle from four matched reference points.

    b holds the four reference points (rows, frozen frame) and delta_cols the
    squared microphone-to-reference distances with delta_cols[k, j] the
    distance from microphone k to reference j. Multilaterating each
    microphone from the references and factoring against the local microphone
    coordinates yields (A | v); A must come out orthogonal, anything else
    means the match was wrong or noise dominates. mic_local is a MicArray or
    the microphones' local coordinates.
    """
    mic_local = _mic_array(mic_local).local
    b = np.asarray(b, dtype=float)
    delta_cols = np.asarray(delta_cols, dtype=float)
    if b.shape != (4, 3) or delta_cols.shape != (4, 4):
        raise ValueError("self_locate expects 4x3 points and a 4x4 distance block")
    mics_world = recover_point(b, delta_cols.T)  # columns are the microphone positions
    m = np.vstack([mic_local.T, np.ones((1, 4))])  # nonsingular: the mics span 3-d
    av = np.linalg.solve(m.T, mics_world.T).T
    rot, v = av[:, :3], av[:, 3]
    defect = float(np.max(np.abs(rot.T @ rot - np.eye(3))))
    if not defect <= ortho_tol:  # a non-finite defect fails too
        raise PoseInconsistencyError(
            f"recovered orientation deviates from orthogonal by {defect:.3e}"
        )
    return Pose(v, rot, ortho_tol=max(ortho_tol, 1e-9))


def pose_to_euler(a) -> tuple[float, float, float]:
    """Yaw, pitch and roll angles of an orientation matrix (Z-Y-X convention).

    At the gimbal singularity |a31| = 1 the roll is fixed to zero and the
    returned yaw is one representative of the one-parameter family.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("expected a 3x3 orientation matrix")
    if abs(a[2, 0]) >= 1.0 - 1e-12:
        pitch = -np.sign(a[2, 0]) * np.pi / 2.0
        roll = 0.0
        yaw = float(np.arctan2(-a[0, 1], a[1, 1]))
    else:
        yaw = float(np.arctan2(a[1, 0], a[0, 0]))
        pitch = float(-np.arcsin(np.clip(a[2, 0], -1.0, 1.0)))
        roll = float(np.arctan2(a[2, 1], a[2, 2]))
    return yaw, float(pitch), roll


def update_sources(b, delta, registry: SourceRegistry, dedup_eps: float = 1e-3) -> list:
    """Express detected sources via reference points and register unseen ones.

    delta[j, k] is the squared distance from reference point b_j to detected
    source k. Sources closer than dedup_eps to a registered one (or to an
    earlier new source) are treated as already known. Returns the list of
    newly added points; the registry is extended in place.
    """
    b = np.asarray(b, dtype=float)
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    if b.shape != (4, 3) or delta.shape[0] != 4:
        raise ValueError("update_sources expects 4 reference points and 4 x m distances")
    points = recover_point(b, delta).T
    known = registry.as_array()
    gaps = np.linalg.norm(points[:, None, :] - known[None, :, :], axis=2)  # (m, n)
    far = np.all(gaps > dedup_eps, axis=1)
    new = []
    for t in points[far]:
        if not new or np.all(np.linalg.norm(np.stack(new) - t, axis=1) > dedup_eps):
            new.append(t)
    registry.sources.extend(new)
    return new


def locate_step(
    state: SourceRegistry,
    mic_local,
    e: EchoSet,
    noise_sigma: float = 0.0,
) -> LocateResult:
    """Run one full locate step against the registry (which it may extend).

    The first call with at least four non-coplanar detected sources seeds the
    registry in the vehicle frame of that moment and returns success without
    a pose; later calls return the pose in that frozen frame. On failure the
    registry is left exactly as it was.

    Every threshold follows from noise_sigma, the std of the travel-distance
    noise. At zero they are tight enough for exact arithmetic. Under noise
    they are calibrated for meter-scale rooms: the echo-root test is widened
    per column (see echo_match), matching and rank tolerances are wide enough
    for noise-perturbed source geometry, the dedup radius lies above the
    per-source position scatter, and a loose orthogonality gate still rejects
    false matches.

    mic_local is a MicArray or the microphones' local coordinates; a run
    passes one MicArray to every step. A bad microphone array or noise level
    raises ValueError rather than returning a FAIL.
    """
    noisy = noise_sigma > 0.0
    eq_tol = max(1e-6, 1000.0 * noise_sigma)
    rank_tol = 1e-3 if noisy else 1e-6
    dedup_eps = max(1e-3, 100.0 * noise_sigma)
    ortho_tol = 0.25 if noisy else 1e-6
    mics = _mic_array(mic_local)
    try:
        assignment = echo_match(mics, e, noise_sigma=noise_sigma)
        d_detected = detected_distance_matrix(mics, assignment)
        if bordered_rank(d_detected, rank_tol) < 3:
            return LocateResult("fail", fail_reason="coplanar_sources")
        if len(state) == 0:
            new = update_sources(mics.local, assignment.delta, state, dedup_eps)
            return LocateResult("success", pose=None, new_sources=tuple(new))
        known = state.as_array()
        d_known = pairwise_squared_distances(known)
        found = match_submatrices(d_detected, d_known, 4, eq_tol, rank_tol)
        if found is None:
            return LocateResult("fail", fail_reason="no_match")
        i_idx, j_idx = found
        refs = known[list(j_idx)]
        pose = self_locate(mics, refs, assignment.delta[:, list(i_idx)], ortho_tol)
        new = update_sources(refs, d_detected[list(i_idx), :], state, dedup_eps)
        return LocateResult("success", pose=pose, new_sources=tuple(new))
    except (DegenerateGeometryError, PoseInconsistencyError) as exc:
        return LocateResult("fail", fail_reason=f"{type(exc).__name__}: {exc}")
