"""Self-location from sorted echoes and a registry of known sound sources.

One locate step consumes the echo sets of a single emission and runs:

1. echo matching: combine one squared distance per microphone into columns
   that are consistent with a common sound source (the consistency test is
   the vanishing of the microphones' Cayley-Menger polynomial);
2. placement: put the detected sources in the vehicle frame, once, from the
   microphones' Cayley-Menger matrix;
3. a rank test on the placed points: fewer than four detected sources, or
   coplanar ones, cannot anchor a pose, so the step fails;
4. bootstrap or matching: the first usable emission freezes the vehicle
   frame and stores the detected sources in it; later emissions match four
   detected sources against the registry by submatrix search on the squared
   distances between the placed points;
5. self-location: fit the orientation and position that map the four
   matched sources onto their references;
6. knowledge update: map all detected sources into the frozen frame with
   that pose and register the ones not seen before.

Any internal failure is reported as a FAIL result with a diagnostic tag and
leaves the registry untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley_menger import (
    MicArray,
    _cm_polynomial_gradient,
    _mic_array,
    bordered_rank,
    cm_polynomial_batch,
    mutual_distances,
)
from .geometry import (
    DegenerateGeometryError,
    affine_dimension,
    pairwise_squared_distances,
)
from .simulator import _IDENTITY, EchoSet, Pose


class PoseInconsistencyError(RuntimeError):
    """Recovered orientation is far from orthogonal (bad match or noise overload)."""


@dataclass(eq=False)
class SourceRegistry:
    """Known sound-source positions, all in the frozen coordinate frame.

    Besides the tuple of sources the registry keeps them as the rows of an
    (n, 3) array and keeps their squared-distance matrix. Sources are only
    ever appended, so extend() computes the rows of the new points against
    all points and leaves the rest of the matrix as it is. extend() is the
    one way to add sources; as_array() and distance_matrix() return
    read-only views.
    """

    sources: tuple = ()

    def __post_init__(self):
        initial, self.sources = self.sources, ()
        self._points, self._d = np.zeros((0, 3)), np.zeros((0, 0))
        self.extend(initial)

    @property
    def frame_frozen(self) -> bool:
        """True once bootstrap has stored the sources that fix the frame."""
        return bool(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def extend(self, points) -> None:
        """Register points (3-vectors) and their rows of the distance matrix.

        The new rows use the formula of pairwise_squared_distances, so the
        matrix equals that of all points bit for bit. The buffers grow by
        doubling, so adding k points costs O(k n) amortized.
        """
        new = np.array(points, dtype=float).reshape(-1, 3)
        n, m = len(self.sources), len(new)
        if m == 0:
            return
        if n + m > len(self._points):
            cap = 2 * (n + m)
            points_buf, d_buf = np.empty((cap, 3)), np.empty((cap, cap))
            points_buf[:n], d_buf[:n, :n] = self._points[:n], self._d[:n, :n]
            self._points, self._d = points_buf, d_buf
        self._points[n : n + m] = new
        diff = new[:, None, :] - self._points[None, : n + m, :]
        rows = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(rows[:, n:], 0.0)
        self._d[n : n + m, : n + m] = rows
        self._d[:n, n : n + m] = rows[:, :n].T
        new.flags.writeable = False
        self.sources += tuple(new)

    def as_array(self) -> np.ndarray:
        """The sources as the rows of a read-only (n, 3) array."""
        return _read_only(self._points[: len(self.sources)])

    def distance_matrix(self) -> np.ndarray:
        """Read-only (n, n) matrix of squared distances between the sources."""
        n = len(self.sources)
        return _read_only(self._d[:n, :n])


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


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


def _polynomial_noise_std(mics: MicArray, grid: np.ndarray, sigma: float) -> np.ndarray:
    """Predicted std of the consistency polynomial under travel-distance noise.

    Linearizes the polynomial in each squared distance (analytic gradient)
    and propagates independent per-entry noise of std 2*sqrt(x)*sigma + sigma^2.
    """
    entry_std = 2.0 * np.sqrt(grid) * sigma + sigma**2
    return np.sqrt(np.sum((_cm_polynomial_gradient(mics, grid) * entry_std) ** 2, axis=1))


# Under noise the echo-root test is widened by this many predicted noise stds.
_NOISE_MARGIN = 8.0
# Adds x3 to row 2 of (x1, x2, 0, max S4), the entries of rows 1-4 of G y.
_X3_ROW = np.array([[0.0], [0.0], [1.0], [0.0]])
_EPS = np.finfo(float).eps


def _root_window_grid(mics: MicArray, sets, root_tol, noise_sigma) -> np.ndarray:
    """Rows of the product grid of sets that can pass echo_match's test.

    With y = (1, x) and G = C^{-1} the test bounds |y^T G y| by its threshold
    over |det C|. For fixed (x1, x2, x3) the form is e - a (x4 - z)^2 with
    a = -G_44 > 0 (non-coplanar microphones), so accepted x4 lie in two
    windows around its roots. tau bounds the scaled threshold on [min S4,
    max S4]: max(x)^3 and the entry std of x4 peak at max S4, and the
    gradient -2 det C G y is affine in x4, so its entries peak at an end.
    Rounding adds 16 eps (a z^2 + tau + y^T |G| y at max S4), for the vertex
    form and windows, the threshold, and the form here and in the test, which
    both read the MicArray's G. Every entry of y is positive, so y^T |G| y is
    at most max|G| (sum y)^2, which the pad takes in its place.
    """
    g, s4, x3 = mics.c_inv, np.sort(sets[3]), sets[2]
    y = np.empty((sets[0].size, sets[1].size, 5))
    y[...] = (1.0, 0.0, 0.0, 0.0, s4[-1])
    y[:, :, 1], y[:, :, 2] = sets[0][:, None], sets[1]
    y = y.reshape(-1, 5)  # rows (1, x1, x2, 0, max S4), one per (x1, x2) pair
    a = -g[4, 4]
    gy = y @ g  # G y per pair, less its x3 part
    z = s4[-1] + (gy[:, 4:] + g[4, 3] * x3) / a  # where (G y)_4, half the x4 slope, is 0
    # y^T G y over the triples, as (x1, x2) pairs by x3, is e - a (x4 - z)^2.
    e = np.einsum("ij,ij->i", y, gy)[:, None] + x3 * (2.0 * gy[:, 3:4] + g[3, 3] * x3)
    e += a * (s4[-1] - z) ** 2
    # max(x)^3 is the cube of the larger of a pair's maximum and x3.
    tau = (root_tol / mics.abs_det_c) * np.maximum(y[:, 1:].max(axis=1, keepdims=True), x3) ** 3
    if noise_sigma > 0.0:
        high = gy[:, 1:, None] + g[1:, 3, None] * x3  # rows 1-4 of G y at x4 = max S4
        w = np.maximum(np.abs(high), np.abs(high - g[1:, 4, None] * (s4[-1] - s4[0])))
        x = y[:, 1:, None] + _X3_ROW * x3  # the entries (x1, x2, x3, max S4) of those rows
        w *= 2.0 * np.sqrt(x) * noise_sigma + noise_sigma**2  # the entry std
        tau += 2.0 * _NOISE_MARGIN * np.sqrt(np.sum(w**2, axis=1))
    y_sum = y.sum(axis=1, keepdims=True) + x3
    tau += 16.0 * _EPS * (np.abs(g).max() * y_sum**2 + a * z**2 + tau)
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
    vals = cm_polynomial_batch(mics, grid)
    threshold = root_tol * np.max(grid, axis=1) ** 3
    if noise_sigma > 0.0:
        threshold = threshold + _NOISE_MARGIN * _polynomial_noise_std(mics, grid, noise_sigma)
    cols = grid[np.abs(vals) <= threshold]
    cols = cols[np.lexsort(cols.T[::-1])]  # rows in lexicographic order
    distinct = np.ones(len(cols), dtype=bool)
    distinct[1:] = np.any(cols[1:] != cols[:-1], axis=1)
    return EchoAssignment(np.ascontiguousarray(cols[distinct].T))


def detected_distance_matrix(mics, a: EchoAssignment) -> np.ndarray:
    """Squared distances between the detected sources, by one solve against C.

    Needs only the echo columns and the microphones' distances; mics is a
    MicArray or their local coordinates. Off the diagonal the result is
    pairwise_squared_distances(mics.positions(a.delta)) + (r_i + r_j) / 2,
    clamped at 0, with r_i = y_i^T C^{-1} y_i the echo form that echo_match
    only bounds (0 for consistent columns). No caller in the package: it
    stays public, and bench/run.py traces it by name.
    """
    return mutual_distances(_mic_array(mics).c, np.vstack([np.ones((1, a.n_sources)), a.delta]))


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
            if k == 0 and rank_tol < 0.38:
                # bordered_rank scales a_ii to 0 or +-1, and [[0, 1], [1, t]]
                # with |t| <= 1 has singular values s and 1/s with s <= 1.62,
                # so 1/s > 0.38 s > rank_tol * s: rank 2 - 2 = 0 = k.
                rank = 0
            elif k == 1 and rank_tol < 0.38 and a[ii[0], ii[0]] == 0.0 == a[i, i]:
                # A zero-diagonal pair block scales to [[0, s], [s, 0]] with
                # s = +-1, bordered [[0, 1, 1], [1, 0, s], [1, s, 0]] with
                # eigenvalues 2, -1, -1 (s = 1) or -2, 1, 1 (s = -1): singular
                # values 2, 1, 1 and 1 > 0.38 * 2, so rank 3 - 2 = 1. With d = 0
                # the block stays 0, bordered of rank 2: rank 0 (the SVD's third
                # value is round-off, 6e-17 of 1.4, so it agrees for any
                # rank_tol above 1e-16).
                rank = int(a[ii[0], i] != 0.0)
            else:
                idx = np.array(sel)
                rank = bordered_rank(a[idx[:, None], idx], rank_tol)
            rank_cache[sel] = rank
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


# Four points are flat to round-off when their affine_dimension at this
# relative rank tolerance is below 3.
_FLAT_TOL = 1e-12


def self_locate(mic_local, b, delta_cols, ortho_tol: float = 1e-6) -> Pose:
    """Pose of the vehicle from four matched reference points.

    b holds the four reference points (rows, frozen frame) and delta_cols the
    squared microphone-to-reference distances with delta_cols[k, j] the
    distance from microphone k to reference j. The references are placed in
    the vehicle frame (MicArray.positions), and one 4x4 solve gives the
    affine map (A | v) that takes them onto b. A must come out orthogonal;
    anything else means the match was wrong or noise dominates. An exactly
    singular fit raises DegenerateGeometryError, and so does a failed gate
    on references that are flat to round-off both as given and as placed
    (coplanar, collinear or coincident): their pose is not determined. When
    only one side is flat, no rigid motion maps one onto the other, and
    PoseInconsistencyError stands. The flatness test runs on failed fits
    only, so a located step does not pay for it. mic_local is a MicArray or
    the microphones' local coordinates.
    """
    mics = _mic_array(mic_local)
    b = np.asarray(b, dtype=float)
    delta_cols = np.asarray(delta_cols, dtype=float)
    if b.shape != (4, 3) or delta_cols.shape != (4, 4):
        raise ValueError("self_locate expects 4x3 points and a 4x4 distance block")
    if not np.isfinite(delta_cols).all():
        raise PoseInconsistencyError("reference distances must be finite")
    local = np.ones((4, 4))
    local[:, :3] = mics.positions(delta_cols)  # row j: (p_j, 1), with A p_j + v = b_j
    try:
        av = np.linalg.solve(local, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError("reference points do not span the space") from exc
    rot, v = av[:3].T, av[3]
    defect = float(abs(rot.T @ rot - _IDENTITY).max())
    if not defect <= ortho_tol:  # a non-finite defect fails too
        flat = affine_dimension(local[:, :3], _FLAT_TOL) < 3
        if flat and affine_dimension(b, _FLAT_TOL) < 3:
            raise DegenerateGeometryError("reference points do not span the space")
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


def update_sources(points, registry: SourceRegistry, dedup_eps: float = 1e-3) -> list:
    """Register the points (rows, frozen frame) that are not seen before.

    A point closer than dedup_eps to a registered source (or to an earlier
    new point) is treated as already known. Returns the list of newly added
    points; the registry is extended in place.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("update_sources expects points as the rows of an (m, 3) array")
    known = registry.as_array()
    gaps = np.linalg.norm(points[:, None, :] - known[None, :, :], axis=2)  # (m, n)
    far = points[np.all(gaps > dedup_eps, axis=1)]
    if not len(far):
        return []
    # Greedy pass: a far point is new unless it is close to an earlier new one.
    # A point with no earlier close point is new, so only the others loop.
    apart = pairwise_squared_distances(far) > dedup_eps**2
    np.fill_diagonal(apart, True)
    if not apart.all():
        close = np.tril(~apart)  # close[t, k]: k < t and within dedup_eps
        kept = np.ones(len(far), dtype=bool)
        for t in np.flatnonzero(close.any(axis=1)).tolist():
            kept[t] = not (close[t] & kept).any()
        far = far[kept]
    new = list(far)
    registry.extend(new)
    return new


def locate_step(
    state: SourceRegistry,
    mic_local,
    e: EchoSet,
    noise_sigma: float = 0.0,
) -> LocateResult:
    """Run one full locate step against the registry (which it may extend).

    The detected sources are placed once in the vehicle frame of the
    emission (MicArray.positions). The first call with at least four
    non-coplanar detected sources registers them as they are, which freezes
    that frame, and returns success without a pose. Later calls match the
    placed points' squared distances against the registry's, fit the pose on
    four matched sources (self_locate), return it in the frozen frame and
    map every detected source through it before registering the unseen ones.
    No solve against C. On failure the registry is left exactly as it was.

    Every threshold follows from noise_sigma, the std of the travel-distance
    noise. At zero they are tight enough for exact arithmetic. Under noise
    the echo-root test is widened per column (see echo_match), matching and
    rank tolerances are wide enough for noise-perturbed source geometry, the
    dedup radius lies above the per-source position scatter, and a loose
    orthogonality gate still rejects false matches. The rank tests are
    scale-free (see affine_dimension and bordered_rank); the distance-equality
    tolerance (m^2) and the dedup radius (m) are absolute, calibrated for
    rooms of a few metres.

    mic_local is a MicArray or the microphones' local coordinates; a run
    passes its scenario's MicArray to every step. A bad microphone array or
    noise level raises ValueError rather than returning a FAIL.
    """
    noisy = noise_sigma > 0.0
    eq_tol = max(1e-6, 1000.0 * noise_sigma)
    rank_tol = 1e-3 if noisy else 1e-6
    dedup_eps = max(1e-3, 100.0 * noise_sigma)
    ortho_tol = 0.25 if noisy else 1e-6
    mics = _mic_array(mic_local)
    try:
        assignment = echo_match(mics, e, noise_sigma=noise_sigma)
        points = mics.positions(assignment.delta)  # the vehicle frame
        if len(points) < 4 or affine_dimension(points, rank_tol) < 3:
            return LocateResult("fail", fail_reason="coplanar_sources")
        if len(state) == 0:
            new = update_sources(points, state, dedup_eps)
            return LocateResult("success", pose=None, new_sources=tuple(new))
        d_detected = pairwise_squared_distances(points)  # the registry's formula
        found = match_submatrices(d_detected, state.distance_matrix(), 4, eq_tol, rank_tol)
        if found is None:
            return LocateResult("fail", fail_reason="no_match")
        i_idx, j_idx = found
        refs = state.as_array()[list(j_idx)]
        pose = self_locate(mics, refs, assignment.delta[:, list(i_idx)], ortho_tol)
        new = update_sources(points @ pose.A.T + pose.v, state, dedup_eps)
        return LocateResult("success", pose=pose, new_sources=tuple(new))
    except (DegenerateGeometryError, PoseInconsistencyError) as exc:
        return LocateResult("fail", fail_reason=f"{type(exc).__name__}: {exc}")
