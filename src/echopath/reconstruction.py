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

    local holds the microphone coordinates in the vehicle frame (4 x 3), c the
    5x5 bordered matrix of their squared mutual distances, c_inv its inverse
    and abs_det_c |det c|. The distances do not change as the vehicle moves,
    so one value serves a whole run; the arrays are read-only copies.
    """

    local: np.ndarray
    c: np.ndarray = field(init=False)
    c_inv: np.ndarray = field(init=False)
    abs_det_c: float = field(init=False)

    def __post_init__(self):
        local = np.array(self.local, dtype=float)
        if local.shape != (4, 3):
            raise ValueError(f"mic_local must be 4 points in 3-d, got shape {local.shape}")
        if not np.all(np.isfinite(local)):
            raise ValueError("mic_local coordinates must be finite")
        if affine_dimension(local) != 3:
            raise DegenerateGeometryError("mic_local must be non-coplanar")
        c = cm_matrix(pairwise_squared_distances(local))
        for name, value in (("local", local), ("c", c), ("c_inv", np.linalg.inv(c))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "abs_det_c", abs(float(np.linalg.det(c))))


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


def _root_window_grid(mics: MicArray, sets, root_tol, noise_sigma) -> np.ndarray:
    """Rows of the product grid of sets that can pass echo_match's test.

    With y = (1, x) and G = C^{-1} the test bounds |y^T G y| by its threshold
    over |det C|. For fixed (x1, x2, x3) the form is e - a (x4 - z)^2 with
    a = -G_44 > 0 (non-coplanar microphones), so accepted x4 lie in two
    windows around its roots. tau bounds the scaled threshold on [min S4,
    max S4]: max(x)^3 and the entry std of x4 peak at max S4, and the
    gradient -2 det C G y is affine in x4, so its entries peak at an end.
    Rounding adds 16 eps (a z^2 + tau + y^T (|G| + |G||C||G|) y at max S4),
    for the vertex form and windows, the threshold, and the form here and in
    the test's solve, whose backward error is about eps |G y|^T |C| |G y|.
    """
    g, s4, x3 = mics.c_inv, np.sort(sets[3]), sets[2]
    y = np.stack(np.broadcast_arrays(1.0, sets[0][:, None], sets[1], 0.0, s4[-1]), axis=-1)
    y = y.reshape(-1, 5)  # rows (1, x1, x2, 0, max S4), one per (x1, x2) pair

    def form(m):  # y^T m y over the triples, as (x1, x2) pairs by x3
        my = y @ m
        return np.sum(y * my, axis=1)[:, None] + x3 * (2.0 * my[:, 3:4] + m[3, 3] * x3)

    a = -g[4, 4]
    gy = y @ g  # G y per pair, less its x3 part
    z = s4[-1] + (gy[:, 4:] + g[4, 3] * x3) / a  # where (G y)_4, half the x4 slope, is 0
    e = form(g) + a * (s4[-1] - z) ** 2  # the form is e - a (x4 - z)^2
    tau = root_tol * np.maximum(np.max(y[:, 1:], axis=1)[:, None], x3) ** 3 / mics.abs_det_c
    if noise_sigma > 0.0:
        high = gy[:, 1:, None] + g[1:, 3, None] * x3  # rows 1-4 of G y at x4 = max S4
        w = np.maximum(np.abs(high), np.abs(high - g[1:, 4, None] * (s4[-1] - s4[0])))
        for row, x in zip(w.transpose(1, 0, 2), (y[:, 1:2], y[:, 2:3], x3, s4[-1])):
            row *= 2.0 * np.sqrt(x) * noise_sigma + noise_sigma**2  # the entry std
        tau += 2.0 * _NOISE_MARGIN * np.sqrt(np.sum(w**2, axis=1))
    abs_g = np.abs(g)
    rounding = form(abs_g + abs_g @ np.abs(mics.c) @ abs_g) + a * z**2 + tau
    tau += 16.0 * np.finfo(float).eps * rounding
    # Only triples whose form reaches -tau in [min S4, max S4] have candidates.
    t = np.flatnonzero(e + tau >= a * (np.clip(z, s4[0], s4[-1]) - z) ** 2)
    z, e, tau = z.ravel()[t], e.ravel()[t], tau.ravel()[t]
    near, far = np.sqrt(np.maximum(e - tau, 0.0) / a), np.sqrt((e + tau) / a)
    lo = np.searchsorted(s4, np.concatenate([z - far, z + near]))
    hi = np.searchsorted(s4, np.concatenate([z - near, z + far]), side="right")
    lo[t.size :] = np.maximum(lo[t.size :], hi[: t.size])  # an entry in both is taken once
    count = hi - lo
    triple = np.repeat(np.concatenate([t, t]), count)
    entry = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    pair, k3 = np.divmod(triple, x3.size)
    return np.column_stack([y[pair, 1:3], x3[k3], s4[entry]])


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

    The polynomial is quadratic in d4, so for each (d1, d2, d3) only the d4
    in two windows around its roots are tested. The windows hold every d4
    the test accepts, at any noise level (see _root_window_grid), so the
    result equals that of testing the full grid.

    mics is a MicArray or the microphones' local coordinates.
    """
    mics = _mic_array(mics)
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError("noise_sigma must be nonnegative and finite")
    sets = [np.asarray(s, dtype=float) for s in e.d_sets]
    if any(s.size == 0 for s in sets):
        return EchoAssignment(np.zeros((4, 0)))
    grid = _root_window_grid(mics, sets, root_tol, noise_sigma)
    vals = cm_polynomial_batch(mics.c, grid)
    threshold = root_tol * np.max(grid, axis=1) ** 3
    if noise_sigma > 0.0:
        threshold = threshold + _NOISE_MARGIN * _polynomial_noise_std(mics.c, grid, noise_sigma)
    cols = np.unique(grid[np.abs(vals) <= threshold], axis=0)
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
