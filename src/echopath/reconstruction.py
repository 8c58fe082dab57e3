"""Self-location from sorted echoes and a registry of known sound sources.

One locate step consumes the echo sets of a single emission and runs:

1. echo matching: combine one squared distance per microphone into columns
   that are consistent with a common sound source (the consistency test is
   the vanishing of the microphones' Cayley-Menger polynomial);
2. placement: put the detected sources in the vehicle frame, once, from the
   microphones' Cayley-Menger matrix;
3. a rank test on the placed points: fewer than four detected sources, or
   coplanar ones, cannot anchor a pose, so the step fails;
4. bootstrap or matching: the first emission whose detected sources,
   deduplicated, are still four or more and not coplanar freezes the vehicle
   frame and stores those sources in it; later emissions match four
   detected sources against the registry by submatrix search on the squared
   distances between the placed points;
5. self-location: fit the orientation and position that map the four
   matched sources, as placed in step 2, onto their references;
6. knowledge update: map all detected sources into the frozen frame with
   that pose and register the ones not seen before, deduplicated on one
   pass of squared distances whose rows the registry stores.

Any internal failure is reported as a FAIL result with a diagnostic tag and
leaves the registry untouched.
"""

from __future__ import annotations

import math
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
    _EPS,
    DegenerateGeometryError,
    _real_array,
    affine_dimension,
    pairwise_squared_distances,
    squared_distances,
)
from .simulator import EchoSet, Pose


class PoseInconsistencyError(RuntimeError):
    """Recovered orientation is no rotation (bad match, mirror image or noise overload)."""


class SourceRegistry:
    """Known sound-source positions, all in the frozen coordinate frame.

    The registry keeps its n sources once, as the rows of an (n, 3) array,
    and keeps their squared-distance matrix. Sources are only ever appended,
    with the rows of the new points against all points, and the rest of the
    matrix stays as it is. extend() and update_sources() both write through
    one private append; as_array() and distance_matrix() return read-only
    views.
    """

    def __init__(self, sources=()):
        self._n = 0
        self._points, self._d = np.zeros((0, 3)), np.zeros((0, 0))
        self.extend(sources)

    @property
    def sources(self) -> tuple:
        """The sources as a tuple of read-only 3-vectors (rows of as_array())."""
        return tuple(self.as_array())

    @property
    def frame_frozen(self) -> bool:
        """True once bootstrap has stored the sources that fix the frame."""
        return self._n > 0

    def __len__(self) -> int:
        return self._n

    def extend(self, points) -> None:
        """Register points (see _as_points) and their rows of the distance matrix.

        The points are copied, and their rows use the formula of
        pairwise_squared_distances, so the matrix equals that of all points
        bit for bit.
        """
        new = _as_points(points)
        self._append(new, squared_distances(new, np.concatenate([self.as_array(), new])))

    def _append(self, new: np.ndarray, rows: np.ndarray) -> None:
        """Own the points new (m, 3) and their rows (m, n + m) of the
        matrix. The buffers grow by doubling: O(m n) amortized."""
        n, m = self._n, len(new)
        if m == 0:
            return
        if n + m > len(self._points):
            cap = 2 * (n + m)
            points_buf, d_buf = np.empty((cap, 3)), np.empty((cap, cap))
            points_buf[:n], d_buf[:n, :n] = self._points[:n], self._d[:n, :n]
            self._points, self._d = points_buf, d_buf
        self._points[n : n + m] = new
        np.fill_diagonal(rows[:, n:], 0.0)
        self._d[n : n + m, : n + m] = rows
        self._d[:n, n : n + m] = rows[:, :n].T
        new.flags.writeable = False  # update_sources returns these rows
        self._n = n + m

    def as_array(self) -> np.ndarray:
        """The sources as the rows of a read-only (n, 3) array."""
        return _read_only(self._points[: self._n])

    def distance_matrix(self) -> np.ndarray:
        """Read-only (n, n) matrix of squared distances between the sources."""
        return _read_only(self._d[: self._n, : self._n])


def _as_points(points) -> np.ndarray:
    """A copy of points as the rows of an (m, 3) array of floats.

    points is a 3-vector (one row), the rows of an (m, 3) array or a sequence
    of 3-vectors, or empty (no rows). Any other shape, a coordinate that is
    not a finite number included, raises ValueError.
    """
    rows = np.array(_real_array(points, "source coordinates"))
    if rows.ndim == 1 and rows.size in (0, 3):
        rows = rows.reshape(-1, 3)
    if rows.ndim != 2 or rows.shape[1] != 3 or not np.isfinite(rows).all():
        raise ValueError("sources must be finite 3-vectors or the rows of an (m, 3) array")
    return rows


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
    each pair the search tries. rank_checks counts the search's
    bordered_rank calls, one each time a row prefix i_1..i_k with a
    candidate column is tested: a prefix reached under several choices of
    earlier columns is tested once under each.
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


def _echo_vertex(mics: MicArray, sets, root_tol: float, noise_sigma: float):
    """The echo form over the (x1, x2, x3) triples of sets, in vertex form.

    Returns e = u^T S u, u = (1, x1, x2, x3), as an (n1 n2, n3) array (a
    row per (x1, x2) pair, a column per x3: the triples in lexicographic
    order); zp, the pairs' part of z, so that z = zp + vertex_z[3] x3 at
    each triple; the window threshold tau, one float for all of sets, and
    the round-off pad (see _root_window_grid). sets must be sorted: tau and
    the pad read only their end entries, as Python floats.
    """
    (s00, s01, s02, s03), (_, s11, s12, s13), (*_, s22, s23), (*_, s33) = mics.vertex_s.tolist()
    z0, z1, z2, _ = mics.vertex_z.tolist()
    s1, s2, x3, _ = sets
    # The terms of x1, of x2 and of the pair, then the polynomial in x3.
    pairs = (s00 + s1 * (2.0 * s01 + s11 * s1))[:, None] + s2 * (2.0 * s02 + s22 * s2)
    pairs += (2.0 * s12 * s1)[:, None] * s2
    e = ((2.0 * s03 + 2.0 * s13 * s1)[:, None] + 2.0 * s23 * s2).reshape(-1, 1) + s33 * x3
    e *= x3
    e += pairs.reshape(-1, 1)
    zp = ((z0 + z1 * s1)[:, None] + z2 * s2).ravel()
    low, top = [s.item(0) for s in sets], [s.item(-1) for s in sets]
    tau, std_max = (root_tol / mics.abs_det_c) * max(top) ** 3, 0.0
    if noise_sigma > 0.0:
        std = [2.0 * math.sqrt(x) * noise_sigma + noise_sigma**2 for x in top]
        square = 0.0
        for (g0, *row), std_k in zip(mics.c_inv[1:].tolist(), std):
            # Row k of G y is largest over the box (up) with x_j at top where
            # G_kj >= 0 and at low elsewhere, and least (down) the other way.
            up = down = 0.0
            for g, lo, hi in zip(row, low, top):
                if g >= 0.0:
                    up += g * hi
                    down += g * lo
                else:
                    up += g * lo
                    down += g * hi
            reach = max(g0 + up, -(g0 + down)) * std_k
            square += reach * reach
        tau += 2.0 * _NOISE_MARGIN * math.sqrt(square)
        std_max = max(std)
    y_sum = 1.0 + sum(top)
    pad = mics.form_bound * y_sum * (y_sum + 2.0 * _NOISE_MARGIN * std_max)
    return e, zp, tau, 64.0 * _EPS * (pad + tau)


def _root_window_grid(mics: MicArray, sets, root_tol, noise_sigma) -> np.ndarray:
    """Rows of the product grid of sets that can pass echo_match's test.

    sets are sorted and distinct, so the rows, in lexicographic order, are
    too. With y = (1, x) = (u, x4), u = (1, x1, x2, x3), and G = C^{-1}, the
    test bounds |y^T G y| by its threshold over |det C|. In MicArray's vertex
    form y^T G y = e - a (x4 - z)^2, a > 0, with the peak e and z fixed by
    the triple (x1, x2, x3) (_echo_vertex). tau, one float, is at least every
    threshold the test applies: root_tol max(x)^3 / |det C| with max(x) over
    all four sets, and under noise the noise term at the corners of the box
    the sets span (rows 1-4 of G y are affine in x, and the entry std of set
    k peaks at max Sk). Only triples with e >= -tau - pad can have rows in
    the window, as a (x4 - z)^2 rounds to no less than 0; their rows are
    kept when |e - a (x4 - z)^2| <= tau + pad, for every x4 of the set.

    The pad bounds the round-off of both evaluations to first order, with
    eps = 2^-52, m = mics.form_bound and Y = 1 + the sum of the four sets'
    maxima, which bounds sum(y) as every entry is positive:
    - cm_polynomial_batch sums five products in sequence, twice: its value
      over -|det C| is within 5 eps y^T |G| y <= 5 eps m Y^2 of y^T G y;
    - vertex_s rounds within 1.5 eps (|G_ij| + |G_i4 G_j4| / a) <= 3 eps m
      per entry, and each term of e takes at most 7 roundings, 3.5 eps of
      |S_ij| u_i u_j <= 1.5 m u_i u_j: e is within 10 eps m Y^2 of u^T S u;
    - each term of z takes at most 5 roundings, vertex_z's included, so z is
      within 2.5 eps r of its value, r = max|G_u4| sum(u) / a >= |z|; with
      the 4 roundings of e - a (x4 - z)^2 this moves the value by at most
      7.5 eps a (max S4 + r)^2 + 0.5 eps |e| <= 16 eps m Y^2, as a <= m and
      a r^2 <= m sum(u)^2;
    - the test's threshold and tau each round within 7.5 eps of their value;
    - under noise the test's gradient and tau's corner sums, each five
      products with a row of G, round within 4 eps m Y per entry, and every
      entry std is at most the largest of the four, std_max, so the noise
      terms differ by at most 256 eps m Y std_max.
    The pad, 64 eps (m Y (Y + 2 _NOISE_MARGIN std_max) + tau), is at least
    twice the sum, 31 eps m Y^2 + 15 eps tau + 256 eps m Y std_max.
    """
    s1, s2, x3, s4 = sets
    e, zp, tau, pad = _echo_vertex(mics, sets, root_tol, noise_sigma)
    tau = tau + pad
    t = (e >= -tau).ravel().nonzero()[0]  # the form peaks at e
    pair, k3 = np.divmod(t, x3.size)
    # e - a (x4 - z)^2 on the triples left, a row each.
    v = s4 - (zp[pair] + mics.vertex_z[3] * x3[k3])[:, None]
    v *= v
    v *= mics.vertex_a
    np.subtract(e.ravel()[t, None], v, out=v)
    row, k4 = np.divmod((np.abs(v, out=v) <= tau).ravel().nonzero()[0], s4.size)
    k1, k2 = np.divmod(pair[row], s2.size)
    grid = np.empty((4, row.size))  # a column per row: echo_match's grid.T[:, kept] is contiguous
    grid[0], grid[1], grid[2], grid[3] = s1[k1], s2[k2], x3[k3[row]], s4[k4]
    return grid.T


def echo_match(
    mics,
    e: EchoSet,
    root_tol: float = 1e-9,
    noise_sigma: float = 0.0,
) -> EchoAssignment:
    """Assign echoes to common sources by testing the cross combinations.

    A column (d1, d2, d3, d4) from the product of the four echo sets is kept
    when the Cayley-Menger polynomial of the microphones vanishes on it,
    relative to root_tol times (max d_i)^3. The sets must be sorted with
    distinct entries, as an EchoSet's are; any other e is read as
    EchoSet(e.d_sets) first, which merges repeated entries. The columns come
    out distinct and in lexicographic order. root_tol must be nonnegative and
    finite; at 0 a column is kept only when its polynomial rounds to 0. An
    emission whose root_tol (max d_i)^3, over all four sets, is not a finite
    float keeps no column: its thresholds would reach inf and accept the
    whole grid.

    With noise_sigma > 0 the root test is additionally widened per column by
    eight times the polynomial's predicted noise std, so true columns
    survive measurement noise. Combinations that merely come close to
    consistency under noise are kept as well; such ghost columns are expected
    to be discarded later by failing to match known sources.

    The polynomial is quadratic in d4, -|det C| (e - a (d4 - z)^2) in the
    MicArray's vertex form, with e and z fixed by (d1, d2, d3). Triples whose
    peak e falls below one bound on every row's threshold have no candidates;
    for the others every d4 is checked against that bound in vertex form,
    padded for round-off, and only the rows that pass are tested. They hold
    every column the test accepts, at any noise level (see _root_window_grid),
    so the result equals that of testing the full grid.

    mics is a MicArray or the microphones' local coordinates.
    """
    mics = _mic_array(mics)
    if not 0.0 <= root_tol < np.inf:
        raise ValueError("root_tol must be nonnegative and finite")
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError("noise_sigma must be nonnegative and finite")
    if not isinstance(e, EchoSet):
        e = EchoSet(e.d_sets)
    sets = [np.asarray(s, dtype=float) for s in e.d_sets]
    try:  # Python's power raises OverflowError where NumPy's row thresholds overflow
        empty = any(s.size == 0 for s in sets) or not (
            root_tol * max(s.item(-1) for s in sets) ** 3 < math.inf
        )
    except OverflowError:
        empty = True
    if empty:
        return EchoAssignment(np.zeros((4, 0)))
    grid = _root_window_grid(mics, sets, root_tol, noise_sigma)
    vals = cm_polynomial_batch(mics, grid)
    threshold = root_tol * grid.max(axis=1) ** 3
    if noise_sigma > 0.0:
        threshold = threshold + _NOISE_MARGIN * _polynomial_noise_std(mics, grid, noise_sigma)
    return EchoAssignment(grid.T[:, np.abs(vals) <= threshold])


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
    solution exists, as when r exceeds either size. Indices are 0-based.

    Each search node holds a boolean mask over (a-row, b-row) pairs that
    agree with every pair chosen so far; choosing a pair narrows it with one
    vectorized comparison (see _extend_match). The counts go to stats, when
    given (see MatchStats).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("match_submatrices expects square matrices")
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > min(a.shape[0], b.shape[0]):
        return None
    stats = MatchStats() if stats is None else stats
    mask = abs(a.diagonal()[:, None] - b.diagonal()) <= eq_tol
    stats.comparisons += mask.size
    return _extend_match(a, b, r, eq_tol, rank_tol, stats, mask, (), ())


def _extend_match(a, b, r, eq_tol, rank_tol, stats, mask, ii, jj):
    """Least completion of the chosen pairs (ii, jj) to r pairs, or None.

    mask[i, j] holds when pairing a-row i with b-row j agrees within eq_tol
    on the diagonal and with every chosen pair, and j is not chosen yet. The
    next pair takes rows i > ii[-1] that leave enough rows for the remaining
    pairs, each with its columns in increasing order, and row i only when
    one bordered_rank call finds that ii + (i,) spans a full simplex. This
    is a module-level function, not a nested closure, so no reference cycle
    keeps a and b alive after the search returns.
    """
    k = len(ii)
    lo = ii[-1] + 1 if ii else 0
    rows = mask[lo : a.shape[0] - r + k + 1].any(axis=1).nonzero()[0] + lo
    for i in rows.tolist():
        sel = (*ii, i)
        stats.rank_checks += 1
        if bordered_rank(a.take(sel, 0).take(sel, 1), rank_tol) != k:
            continue
        cols = mask[i].nonzero()[0].tolist()
        if k + 1 == r:
            return sel, (*jj, cols[0])
        for j in cols:
            # A later pair (row, col) must match a[row, i] with b[col, j].
            narrowed = mask & (abs(a[:, i, None] - b[:, j]) <= eq_tol)
            narrowed[:, j] = False
            stats.comparisons += narrowed.size
            found = _extend_match(a, b, r, eq_tol, rank_tol, stats, narrowed, sel, (*jj, j))
            if found is not None:
                return found
    return None


# Four points are flat to round-off when their affine_dimension at this
# relative rank tolerance is below 3.
_FLAT_TOL = 1e-12


def self_locate(points, b, ortho_tol: float = 1e-6) -> Pose:
    """Pose of the vehicle from four matched sources and their references.

    points holds the four sources as placed in the vehicle frame (rows, as
    MicArray.positions returns them) and b their four reference points
    (rows, frozen frame). One 4x4 solve gives the affine map (A | v) that
    takes points onto b, and Pose(v, A, ortho_tol) must accept A as a
    rotation; a reflection or a non-orthogonal A means the match was wrong
    or noise dominates, and PoseInconsistencyError carries Pose's message.
    An exactly singular fit raises DegenerateGeometryError, and so does a
    rejected fit on points and references that are both flat to round-off
    (coplanar, collinear or coincident): their pose is not determined. When
    only one side is flat, no rigid motion maps one onto the other. The
    flatness test runs on rejected fits only, so a located step skips it.
    """
    points = np.asarray(points, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape != (4, 3) or points.shape != (4, 3):
        raise ValueError("self_locate expects 4x3 points and 4x3 references")
    if not np.isfinite(points).all():
        raise PoseInconsistencyError("placed points must be finite")
    local = np.ones((4, 4))
    local[:, :3] = points  # row j: (p_j, 1), with A p_j + v = b_j
    try:
        av = np.linalg.solve(local, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError("reference points do not span the space") from exc
    try:
        return Pose(av[3], av[:3].T, ortho_tol)
    except ValueError as exc:
        flat = affine_dimension(local[:, :3], _FLAT_TOL) < 3
        if flat and affine_dimension(b, _FLAT_TOL) < 3:
            raise DegenerateGeometryError("reference points do not span the space") from exc
        raise PoseInconsistencyError(str(exc)) from exc


def update_sources(points, registry: SourceRegistry, dedup_eps: float = 1e-3) -> list:
    """Register the points (rows, frozen frame) that are not seen before.

    A point within squared distance dedup_eps**2 of a registered source (or
    of an earlier new point) is already known. One pass of the registry's
    formula gives these squared distances; the kept points' rows are what the
    registry stores. Returns the list of newly added points; the registry is
    extended in place. points are read as extend() reads them (_as_points).
    """
    points = _as_points(points)
    n = len(registry)
    d = squared_distances(points, np.concatenate([registry.as_array(), points]))
    apart = d > dedup_eps**2  # (m, n + m)
    far = apart[:, :n].all(axis=1).nonzero()[0]
    if not far.size:
        return []
    # Greedy pass: a far point is new unless it is close to an earlier new one.
    # A point with no earlier close point is new, so only the others loop.
    among = apart[far[:, None], n + far]
    np.fill_diagonal(among, True)
    if not among.all():
        close = np.tril(~among)  # close[t, k]: k < t and within dedup_eps
        kept = np.ones(far.size, dtype=bool)
        for t in close.any(axis=1).nonzero()[0].tolist():
            kept[t] = not (close[t] & kept).any()
        far = far[kept]
    new = points[far]
    registry._append(new, d[far[:, None], np.concatenate([np.arange(n), n + far])])
    return list(new)


def locate_step(
    state: SourceRegistry,
    mic_local,
    e: EchoSet,
    noise_sigma: float = 0.0,
) -> LocateResult:
    """Run one full locate step against the registry (which it may extend).

    The detected sources are placed once in the vehicle frame of the
    emission (MicArray.positions). The first call deduplicates them as
    update_sources does; if at least four non-coplanar sources remain, it
    registers them, which freezes that frame, and returns success without a
    pose, else it FAILs and the next call tries again. Later calls match the
    placed points' squared distances against the registry's, fit the pose on
    the four matched placed points (self_locate), return it in the frozen
    frame and map every detected source through it before registering the
    unseen ones (update_sources). Each source is placed once, and no solve
    runs against C. A fit that is no rotation, a mirror image included,
    FAILs; on failure the registry is left exactly as it was.

    Every threshold follows from noise_sigma, the std of the travel-distance
    noise. At zero they are tight enough for exact arithmetic. Under noise
    the echo-root test is widened per column (see echo_match), matching and
    rank tolerances are wide enough for noise-perturbed source geometry, the
    dedup radius lies above the per-source position scatter, and Pose's
    orthogonality tolerance is loose (its det A > 0 test has no tolerance).
    The rank tests are scale-free (see affine_dimension and bordered_rank);
    the distance-equality tolerance (m^2) and the dedup radius (m) are
    absolute, calibrated for rooms of a few metres.

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
            # Deduplicated, the sources must still be four and span a frame.
            new = update_sources(points, SourceRegistry(), dedup_eps)
            if len(new) < 4 or affine_dimension(new, rank_tol) < 3:
                return LocateResult("fail", fail_reason="coplanar_sources")
            state.extend(new)
            return LocateResult("success", pose=None, new_sources=tuple(new))
        d_detected = pairwise_squared_distances(points)  # the registry's formula
        found = match_submatrices(d_detected, state.distance_matrix(), 4, eq_tol, rank_tol)
        if found is None:
            return LocateResult("fail", fail_reason="no_match")
        i_idx, j_idx = found
        refs = state.as_array()[list(j_idx)]
        pose = self_locate(points[list(i_idx)], refs, ortho_tol)
        new = update_sources(points @ pose.A.T + pose.v, state, dedup_eps)
        return LocateResult("success", pose=pose, new_sources=tuple(new))
    except (DegenerateGeometryError, PoseInconsistencyError) as exc:
        return LocateResult("fail", fail_reason=f"{type(exc).__name__}: {exc}")
