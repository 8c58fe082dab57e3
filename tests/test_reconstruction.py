import copy
import gc
import weakref

import numpy as np
import pytest
from conftest import (
    backtracking_match,
    box_scenario,
    box_walls,
    brute_force_match,
    demo_path,
    tetra_mics,
)

from echopath import (
    DegenerateGeometryError,
    EchoSet,
    Hyperplane,
    MatchStats,
    Pose,
    PoseInconsistencyError,
    Scenario,
    SourceRegistry,
    Wall,
    detected_distance_matrix,
    echo_match,
    generate_echoes,
    ground_truth_sources,
    locate_step,
    match_submatrices,
    pairwise_squared_distances,
    pose_to_euler,
    recover_point,
    rotation_from_yaw_pitch_roll,
    self_locate,
    update_sources,
    world_microphones,
)
from echopath import reconstruction
from echopath.cayley_menger import _cm_polynomial_gradient, cm_matrix, cm_polynomial_batch
from echopath.cli import to_frozen_frame

MICS = tetra_mics()


def true_profiles(scn, pose):
    mics = world_microphones(scn, pose)
    return np.array(
        [[np.sum((s - m) ** 2) for m in mics] for s in ground_truth_sources(scn, pose)]
    )


def columns_match_profiles(delta, profiles, tol=1e-9):
    if delta.shape[1] != len(profiles):
        return False
    got = sorted(map(tuple, delta.T))
    want = sorted(map(tuple, profiles))
    return all(
        max(abs(g - w) for g, w in zip(gc, wc)) <= tol for gc, wc in zip(got, want)
    )


def test_echo_match_single_source():
    scn = Scenario(
        walls=(Wall(Hyperplane([0, 0, 1], -5.0)),),  # far wall, still one mirror
        speaker=[0.3, -0.2, 1.4],
        mic_local=MICS,
        path=(Pose([0, 0, 0], np.eye(3)),),
        occlusion_enabled=False,
    )
    pose = scn.path[0]
    echoes = generate_echoes(scn, pose)
    assignment = echo_match(scn.mic_local, echoes, 1e-9)
    profiles = true_profiles(scn, pose)
    assert assignment.n_sources == 2
    assert columns_match_profiles(assignment.delta, profiles)


def test_echo_match_recovers_all_box_sources():
    scn = box_scenario()
    pose = scn.path[2]
    assignment = echo_match(scn.mic_local, generate_echoes(scn, pose, 2), 1e-9)
    assert assignment.n_sources == 7
    assert columns_match_profiles(assignment.delta, true_profiles(scn, pose))


def test_echo_match_two_sources_brute_force_over_tuples():
    scn = Scenario(
        walls=(Wall(Hyperplane([0, 0, 1], 0.0)),),
        speaker=[0.4, 0.7, 1.3],
        mic_local=MICS,
        path=(Pose([0.2, -0.1, 1.1], rotation_from_yaw_pitch_roll(0.3, 0.1, -0.2)),),
        occlusion_enabled=False,
    )
    pose = scn.path[0]
    echoes = generate_echoes(scn, pose)
    sets = [np.asarray(s) for s in echoes.d_sets]
    assert all(len(s) == 2 for s in sets)
    assignment = echo_match(scn.mic_local, echoes, 1e-9)
    # oracle: all 16 tuples, exactly the two true ones below threshold
    from echopath import cm_matrix, cm_polynomial

    c = cm_matrix(pairwise_squared_distances(scn.mic_local))
    passing = []
    for i0 in sets[0]:
        for i1 in sets[1]:
            for i2 in sets[2]:
                for i3 in sets[3]:
                    x = np.array([i0, i1, i2, i3])
                    if abs(cm_polynomial(c, x)) <= 1e-9 * np.max(x) ** 3:
                        passing.append(x)
    assert len(passing) == 2
    assert assignment.n_sources == 2
    assert columns_match_profiles(assignment.delta, true_profiles(scn, pose))


def test_echo_match_empty_set_gives_empty_assignment():
    deaf_mic = EchoSet(((), (1.0,), (1.0,), (1.0,)))
    assert echo_match(MICS, deaf_mic, 1e-9).n_sources == 0
    inconsistent = EchoSet(((1.0,), (1.0,), (1.0,), (1.0,)))
    assert echo_match(MICS, inconsistent, 1e-9).n_sources == 0


def test_echo_match_requires_noncoplanar_mics():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DegenerateGeometryError):
        echo_match(flat, EchoSet(((1.0,), (1.0,), (1.0,), (1.0,))), 1e-9)


def full_grid_echo_match(mics, e, root_tol, noise_sigma=0.0, noise_margin=8.0):
    """Reference: the echo test on every column of the product grid."""
    sets = [np.asarray(s, dtype=float) for s in e.d_sets]
    if any(s.size == 0 for s in sets):
        return np.zeros((4, 0))
    grid = np.stack(np.meshgrid(*sets, indexing="ij"), axis=-1).reshape(-1, 4)
    c = cm_matrix(pairwise_squared_distances(mics))
    threshold = root_tol * np.max(grid, axis=1) ** 3
    if noise_sigma > 0.0:
        entry_std = 2.0 * np.sqrt(grid) * noise_sigma + noise_sigma**2
        grad = _cm_polynomial_gradient(c, grid)
        threshold = threshold + noise_margin * np.sqrt(np.sum((grad * entry_std) ** 2, axis=1))
    cols = grid[np.abs(cm_polynomial_batch(c, grid)) <= threshold]
    if cols.shape[0] == 0:
        return np.zeros((4, 0))
    return np.unique(cols, axis=0).T


def random_mics(rng):
    while True:
        mics = rng.uniform(-0.5, 0.5, (4, 3))
        if np.linalg.svd(mics[1:] - mics[0], compute_uv=False)[-1] > 0.1:
            return mics


def noisy_echo_sets(rng, mics, n_sources, n_spurious, sigma):
    """Squared travel distances of random sources with noise, plus spurious echoes.

    Every other source lies on the line through two microphones, where the
    triangle inequality of that pair is tight and noise alone breaks it.
    """
    sources = rng.uniform(-4.0, 4.0, (n_sources, 3))
    for s in sources[::2]:
        i, j = rng.choice(4, 2, replace=False)
        s[:] = mics[j] + rng.uniform(0.5, 4.0) * (mics[j] - mics[i])
    dist = np.linalg.norm(sources[:, None, :] - mics[None, :, :], axis=2)
    dist = dist + sigma * rng.standard_normal(dist.shape)
    sets = []
    for k in range(4):
        spurious = rng.uniform(0.2, 6.0, n_spurious)
        sets.append(tuple(np.concatenate([dist[:, k], spurious]) ** 2))
    return EchoSet(tuple(sets))


@pytest.mark.parametrize("sigma", [0.0, 1e-4, 1e-3])
def test_echo_match_equals_full_grid_oracle(sigma):
    rng = np.random.default_rng(int(sigma * 1e6) + 61)
    for _ in range(12):
        mics = random_mics(rng)
        e = noisy_echo_sets(rng, mics, rng.integers(1, 7), rng.integers(0, 5), sigma)
        got = echo_match(mics, e, 1e-9, sigma).delta
        want = full_grid_echo_match(mics, e, 1e-9, sigma, 8.0)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_echo_match_equals_full_grid_oracle_when_nothing_passes():
    rng = np.random.default_rng(62)
    mics = random_mics(rng)
    e = EchoSet(tuple(tuple(rng.uniform(1.0, 30.0, 6)) for _ in range(4)))
    assert full_grid_echo_match(mics, e, 1e-9).shape == (4, 0)
    assert echo_match(mics, e, 1e-9).delta.shape == (4, 0)


def test_echo_match_keeps_a_near_ghost_column_just_inside_root_tol():
    # Shifting every entry of a true profile by the same delta moves only the
    # quadratic form (P = -2 delta det C), not the point it describes. A
    # source on the line through microphones 0 and 1 makes their triangle
    # tight, and a negative shift pushes sqrt(x0) - sqrt(x1) past the
    # microphones' distance: only the bound's slack can keep this column.
    rng = np.random.default_rng(63)
    root_tol = 1e-6
    for _ in range(10):
        mics = random_mics(rng)
        c = cm_matrix(pairwise_squared_distances(mics))
        source = mics[1] + rng.uniform(1.0, 3.0) * (mics[1] - mics[0])
        profile = np.sum((mics - source) ** 2, axis=1)
        x_max = np.max(profile)
        for inside, factor in ((True, 0.9), (False, 1.1)):
            delta = -factor * root_tol * x_max**3 / (2.0 * abs(np.linalg.det(c)))
            column = profile + delta
            spurious = rng.uniform(0.5, np.sqrt(x_max), (4, 3)) ** 2
            e = EchoSet(tuple(tuple(np.append(sp, x)) for sp, x in zip(spurious, column)))
            got = echo_match(mics, e, root_tol).delta
            assert np.array_equal(got, full_grid_echo_match(mics, e, root_tol))
            assert any(np.array_equal(col, column) for col in got.T) == inside


def test_echo_match_keeps_a_noisy_near_ghost_column_just_inside_the_threshold():
    # The shift of the test above moves P by -2 delta det C and leaves its
    # gradient as it is, so under noise a few fixed-point steps place the
    # column at a chosen fraction of its own threshold.
    rng = np.random.default_rng(64)
    root_tol, sigma = 1e-9, 1e-3
    for _ in range(10):
        mics = random_mics(rng)
        c = cm_matrix(pairwise_squared_distances(mics))
        source = mics[1] + rng.uniform(1.0, 3.0) * (mics[1] - mics[0])
        profile = np.sum((mics - source) ** 2, axis=1)
        grad = _cm_polynomial_gradient(c, profile)[0]
        for inside, factor in ((True, 0.9), (False, 1.1)):
            delta = 0.0
            for _ in range(30):
                column = profile + delta
                entry_std = 2.0 * np.sqrt(column) * sigma + sigma**2
                threshold = root_tol * np.max(column) ** 3 + 8.0 * np.linalg.norm(grad * entry_std)
                delta = factor * threshold / (2.0 * abs(np.linalg.det(c)))
            column = profile + delta
            spurious = rng.uniform(0.5, np.sqrt(np.max(column)), (4, 3)) ** 2
            e = EchoSet(tuple(tuple(np.append(sp, x)) for sp, x in zip(spurious, column)))
            got = echo_match(mics, e, root_tol, sigma).delta
            assert np.array_equal(got, full_grid_echo_match(mics, e, root_tol, sigma))
            assert any(np.array_equal(col, column) for col in got.T) == inside


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_echo_match_equals_full_grid_oracle_at_round_off_tolerance(sigma):
    # At root_tol 1e-15 true noiseless columns pass by little more than the
    # round-off of P, which the candidate windows must cover.
    rng = np.random.default_rng(66)
    for _ in range(40):
        mics = random_mics(rng)
        e = noisy_echo_sets(rng, mics, rng.integers(1, 7), rng.integers(0, 5), sigma)
        got = echo_match(mics, e, 1e-15, sigma).delta
        assert np.array_equal(got, full_grid_echo_match(mics, e, 1e-15, sigma))


@pytest.fixture
def polynomial_rows(monkeypatch):
    """Row counts of every cm_polynomial_batch call echo_match makes."""
    rows = []
    real = reconstruction.cm_polynomial_batch

    def counted(c, xs):
        rows.append(len(xs))
        return real(c, xs)

    monkeypatch.setattr(reconstruction, "cm_polynomial_batch", counted)
    return rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("root_tol", [1e-9, 1e-15])
def test_echo_match_on_degenerate_sets_equals_oracle(sigma, root_tol, polynomial_rows):
    rng = np.random.default_rng(67)
    for _ in range(5):
        mics = random_mics(rng)
        # The circumcentre has one squared distance to all four microphones;
        # a point in the plane of microphones 1-3 is its own mirror image, so
        # its two x4 roots coincide.
        circumcentre = np.linalg.solve(
            2.0 * (mics[1:] - mics[0]), np.sum(mics[1:] ** 2 - mics[0] ** 2, axis=1)
        )
        in_plane = mics[0] + rng.uniform(1.0, 3.0, 2) @ (mics[1:3] - mics[0])
        for source in (circumcentre, in_plane, rng.uniform(-4.0, 4.0, 3)):
            profile = np.sum((mics - source) ** 2, axis=1)
            shared = rng.uniform(0.5, 20.0, 2)  # in every set
            cases = [
                [(x,) for x in profile],  # one column
                [(x, *shared) for x in profile[:3]] + [(profile[3],)],  # one x4
                [(x, *shared) for x in profile],
                [tuple(shared)] * 4,
            ]
            for sets in cases:
                e = EchoSet(tuple(sets))
                del polynomial_rows[:]
                got = echo_match(mics, e, root_tol, sigma).delta
                assert np.array_equal(got, full_grid_echo_match(mics, e, root_tol, sigma))
                # The two windows around a double root take their entries once.
                assert sum(polynomial_rows) <= np.prod([len(s) for s in e.d_sets])


def test_echo_match_tests_under_a_tenth_of_the_grid_under_noise(polynomial_rows):
    rng = np.random.default_rng(65)
    grid = 0
    for _ in range(20):
        mics = random_mics(rng)
        e = noisy_echo_sets(rng, mics, 6, 4, 1e-3)
        echo_match(mics, e, 1e-9, 1e-3)
        grid += np.prod([len(s) for s in e.d_sets])
    assert sum(polynomial_rows) < 0.1 * grid


def test_detected_distance_matrix_single_source():
    scn = box_scenario()
    assignment = echo_match(scn.mic_local, generate_echoes(scn, scn.path[0]), 1e-9)
    one = assignment.delta[:, :1]
    from echopath import EchoAssignment

    out = detected_distance_matrix(scn.mic_local, EchoAssignment(one))
    assert out.shape == (1, 1) and out[0, 0] == 0.0


def test_detected_distance_matrix_known_separation():
    # two synthetic sources at (2,3,4) and (-1,0,2) seen from a rigidly
    # placed array: squared separation must come out as 22
    rng = np.random.default_rng(3)
    rot = rotation_from_yaw_pitch_roll(0.7, -0.3, 0.2)
    v = np.array([0.5, -1.0, 0.3])
    mics_world = MICS @ rot.T + v
    sources = np.array([[2.0, 3.0, 4.0], [-1.0, 0.0, 2.0]])
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics_world])
    from echopath import EchoAssignment

    out = detected_distance_matrix(MICS, EchoAssignment(delta))
    assert out[0, 1] == pytest.approx(22.0, abs=1e-9)


def test_detected_distance_matrix_matches_ground_truth():
    scn = box_scenario()
    pose = scn.path[5]
    assignment = echo_match(scn.mic_local, generate_echoes(scn, pose, 5), 1e-9)
    out = detected_distance_matrix(scn.mic_local, assignment)
    profiles = true_profiles(scn, pose)
    order = [
        int(np.argmin(np.linalg.norm(assignment.delta.T - p, axis=1))) for p in profiles
    ]
    direct = pairwise_squared_distances(np.stack(ground_truth_sources(scn, pose)))
    reordered = out[np.ix_(order, order)]
    assert np.max(np.abs(reordered - direct)) <= 1e-8 * max(1.0, direct.max())


def test_match_submatrices_identity():
    pts = np.vstack([np.zeros(3), np.eye(3)])
    d = pairwise_squared_distances(pts)
    assert match_submatrices(d, d, 4) == ((0, 1, 2, 3), (0, 1, 2, 3))


def test_match_submatrices_tracks_permutation():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3, 3, (4, 3))
    while bordered_rank_of(pts) != 3:
        pts = rng.uniform(-3, 3, (4, 3))
    d = pairwise_squared_distances(pts)
    perm = np.array([2, 0, 3, 1])
    permuted = d[np.ix_(perm, perm)]
    got = match_submatrices(d, permuted, 4)
    # row i of d corresponds to the position of i in the permuted matrix
    expected_j = tuple(int(np.where(perm == i)[0][0]) for i in range(4))
    assert got == ((0, 1, 2, 3), expected_j)


def bordered_rank_of(pts):
    from echopath import bordered_rank

    return bordered_rank(pairwise_squared_distances(pts))


def test_match_submatrices_coplanar_block_fails_rank():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    d = pairwise_squared_distances(flat)
    assert match_submatrices(d, d, 4) is None


def test_match_submatrices_no_solution():
    rng = np.random.default_rng(5)
    a = pairwise_squared_distances(rng.uniform(-3, 3, (6, 3)))
    b = pairwise_squared_distances(rng.uniform(-3, 3, (7, 3)))
    assert match_submatrices(a, b, 4) is None


def test_match_submatrices_equals_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(60):
        m = int(rng.integers(4, 9))
        n = int(rng.integers(4, 9))
        pts_b = rng.uniform(-5, 5, (n, 3))
        if trial % 2 == 0:
            sub = rng.choice(n, size=4, replace=False)
            rot = rotation_from_yaw_pitch_roll(*rng.uniform(-2, 2, 3))
            planted = pts_b[sub] @ rot.T + rng.uniform(-2, 2, 3)
            pts_a = np.vstack([planted, rng.uniform(-5, 5, (m - 4, 3))])
            pts_a = pts_a[rng.permutation(m)]
        else:
            pts_a = rng.uniform(-5, 5, (m, 3))
        a = pairwise_squared_distances(pts_a)
        b = pairwise_squared_distances(pts_b)
        assert match_submatrices(a, b, 4) == brute_force_match(a, b, 4)


def test_match_submatrices_small_r():
    pts = np.vstack([np.zeros(3), np.eye(3)])
    d = pairwise_squared_distances(pts)
    assert match_submatrices(d, d, 1) == ((0,), (0,))
    got = match_submatrices(d, d, 2)
    assert got == brute_force_match(d, d, 2)


def test_match_submatrices_counts_comparisons():
    rng = np.random.default_rng(7)
    a = pairwise_squared_distances(rng.uniform(-3, 3, (6, 3)))
    b = pairwise_squared_distances(rng.uniform(-3, 3, (6, 3)))
    stats = MatchStats()
    match_submatrices(a, b, 4, stats=stats)
    assert stats.comparisons > 0
    assert stats.rank_checks > 0


def test_match_submatrices_counts_one_mask_per_tried_pair():
    # The root mask and the masks narrowed by (0, 0), (1, 1) and (2, 2) are
    # 4 x 4 each; the last pair needs no mask. One rank check per prefix.
    d = pairwise_squared_distances(np.vstack([np.zeros(3), np.eye(3)]))
    stats = MatchStats()
    assert match_submatrices(d, d, 4, stats=stats) == ((0, 1, 2, 3), (0, 1, 2, 3))
    assert stats == MatchStats(comparisons=4 * 16, rank_checks=4)


def test_match_submatrices_argument_validation():
    d = np.zeros((3, 3))
    with pytest.raises(ValueError):
        match_submatrices(d, d, 0)
    with pytest.raises(ValueError):
        match_submatrices(d, d, 4)
    with pytest.raises(ValueError):
        match_submatrices(np.float64(0.0), d, 1)
    with pytest.raises(ValueError):
        match_submatrices(d, np.float64(0.0), 1)


def search_instance(rng, r, eq_tol, lattice, planted):
    """Distance matrices too large for brute force, with or without a planted match.

    Lattice points give many tied distances; the a-matrix is perturbed by up
    to eq_tol, so some entries sit near the tolerance.
    """
    m = int(rng.integers(r, 31))
    n = int(rng.integers(r, 151))

    def draw(k):
        return rng.integers(0, 3, (k, 3)).astype(float) if lattice else rng.uniform(-3, 3, (k, 3))

    pts_a, pts_b = draw(m), draw(n)
    if planted:
        k = min(m, n, r + 2)
        rot = rotation_from_yaw_pitch_roll(*rng.uniform(-2, 2, 3))
        pts_a[rng.choice(m, k, replace=False)] = pts_b[rng.choice(n, k, replace=False)] @ rot.T
    noise = rng.uniform(-eq_tol, eq_tol, (m, m))
    a = pairwise_squared_distances(pts_a) + (noise + noise.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a, pairwise_squared_distances(pts_b)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("eq_tol", [1e-6, 1e-3, 5e-2])
def test_match_submatrices_equals_backtracking_on_large_instances(r, eq_tol):
    rng = np.random.default_rng([r, int(1e6 * eq_tol)])
    for trial in range(6):
        lattice, planted = trial % 2 == 0, trial % 3 != 2
        a, b = search_instance(rng, r, eq_tol, lattice, planted)
        assert match_submatrices(a, b, r, eq_tol) == backtracking_match(a, b, r, eq_tol)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_match_submatrices_equals_backtracking_with_nonzero_diagonal(r):
    # Symmetric matrices of small integers: the diagonal takes part in the
    # match, many entries tie, and some selected blocks are rank deficient.
    rng = np.random.default_rng(40 + r)
    for _ in range(10):
        m, n = int(rng.integers(r, 13)), int(rng.integers(r, 41))
        a = rng.integers(0, 4, (m, m)).astype(float)
        b = rng.integers(0, 4, (n, n)).astype(float)
        a, b = np.triu(a) + np.triu(a, 1).T, np.triu(b) + np.triu(b, 1).T
        assert match_submatrices(a, b, r) == backtracking_match(a, b, r)
        assert match_submatrices(a, b, r, 1.0) == backtracking_match(a, b, r, 1.0)


def test_match_submatrices_releases_its_arguments():
    # With the cyclic collector off, a reference cycle inside the search
    # would keep b alive after the call returns.
    rng = np.random.default_rng(8)
    a = pairwise_squared_distances(rng.uniform(-3, 3, (10, 3)))
    b = pairwise_squared_distances(rng.uniform(-3, 3, (30, 3)))
    gc.disable()
    try:
        ref = weakref.ref(b)
        match_submatrices(a, b, 4)
        del b
        assert ref() is None
    finally:
        gc.enable()


def test_self_locate_identity_pose():
    scn = box_scenario()
    pose = Pose(np.zeros(3), np.eye(3))
    # speaker, one mirror per axis: a non-coplanar reference quadruple
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    got = self_locate(scn.mic_local, sources, delta)
    assert np.allclose(got.v, 0.0, atol=1e-9)
    assert np.allclose(got.A, np.eye(3), atol=1e-9)


def test_self_locate_translation():
    scn = box_scenario()
    pose = Pose([1.0, 2.0, 3.0], np.eye(3))
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    got = self_locate(scn.mic_local, sources, delta)
    assert np.allclose(got.v, [1.0, 2.0, 3.0], atol=1e-9)
    assert np.allclose(got.A, np.eye(3), atol=1e-9)


def test_self_locate_yaw_and_translation():
    scn = box_scenario()
    rot = rotation_from_yaw_pitch_roll(np.pi / 2, 0.0, 0.0)
    pose = Pose([2.5, 1.0, 1.5], rot)
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 2, 4, 6]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    got = self_locate(scn.mic_local, sources, delta)
    assert np.allclose(got.A, rot, atol=1e-8)
    assert np.allclose(got.v, pose.v, atol=1e-8)


def test_self_locate_rejects_coplanar_references():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DegenerateGeometryError):
        self_locate(MICS, flat, np.ones((4, 4)))


def test_self_locate_flags_inconsistent_distances():
    scn = box_scenario()
    pose = Pose([1.0, 2.0, 1.0], np.eye(3))
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    delta[2, 1] += 5.0  # corrupt one squared distance
    with pytest.raises(PoseInconsistencyError):
        self_locate(scn.mic_local, sources, delta, ortho_tol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_self_locate_flags_non_finite_orientation(bad):
    scn = box_scenario()
    pose = Pose([1.0, 2.0, 1.0], np.eye(3))
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    delta[2, 1] = bad
    with pytest.raises(PoseInconsistencyError):
        self_locate(scn.mic_local, sources, delta, ortho_tol=0.25)


def test_pose_to_euler_basics():
    assert pose_to_euler(np.eye(3)) == (0.0, 0.0, 0.0)
    yaw90 = rotation_from_yaw_pitch_roll(np.pi / 2, 0.0, 0.0)
    y, p, r = pose_to_euler(yaw90)
    assert y == pytest.approx(np.pi / 2)
    assert p == pytest.approx(0.0)
    assert r == pytest.approx(0.0)


def test_pose_to_euler_gimbal():
    up = rotation_from_yaw_pitch_roll(0.4, np.pi / 2, 0.0)
    assert up[2, 0] == pytest.approx(-1.0)
    y, p, r = pose_to_euler(up)
    assert p == pytest.approx(np.pi / 2)
    assert r == 0.0


def test_pose_to_euler_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(50):
        angles = (
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-np.pi, np.pi),
        )
        a = rotation_from_yaw_pitch_roll(*angles)
        back = rotation_from_yaw_pitch_roll(*pose_to_euler(a))
        assert np.allclose(back, a, atol=1e-12)


def test_update_sources_dedup():
    registry = SourceRegistry()
    b = np.vstack([np.zeros(3), np.eye(3)])
    target = np.array([0.5, 0.25, 2.0])
    delta = np.array([[np.sum((target - p) ** 2)] for p in b])
    added = update_sources(b, delta, registry)
    assert len(added) == 1 and np.allclose(added[0], target, atol=1e-9)
    again = update_sources(b, delta, registry)
    assert again == []
    assert len(registry) == 1


def test_update_sources_first_call_uses_vehicle_frame():
    scn = box_scenario()
    pose = scn.path[1]
    registry = SourceRegistry()
    assignment = echo_match(scn.mic_local, generate_echoes(scn, pose, 1), 1e-9)
    update_sources(scn.mic_local, assignment.delta, registry)
    stored = registry.as_array()
    world = np.stack(ground_truth_sources(scn, pose))
    frozen = (world - pose.v) @ pose.A  # world -> vehicle coordinates
    for s in stored:
        assert min(np.linalg.norm(s - f) for f in frozen) <= 1e-8


def test_update_sources_matches_sequential_reference_on_near_duplicates():
    rng = np.random.default_rng(64)
    eps = 0.05
    b = np.vstack([np.zeros(3), np.eye(3)])
    for _ in range(20):
        registry = SourceRegistry([rng.uniform(-2, 2, 3) for _ in range(rng.integers(0, 6))])
        anchors = [*registry.sources, rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)]
        # Each target lies 0.5 or 1.5 eps from an anchor (a registered source
        # or a fresh point), so new points nearly duplicate both the
        # registry and each other.
        targets = []
        for _ in range(12):
            step = rng.standard_normal(3)
            scale = eps * rng.choice([0.5, 1.5])
            targets.append(anchors[rng.integers(len(anchors))] + scale * step / np.linalg.norm(step))
        targets += anchors[-2:]
        rng.shuffle(targets)
        delta = np.array([[np.sum((t - p) ** 2) for t in targets] for p in b])

        known = list(registry.sources)
        expected = []
        for t in recover_point(b, delta).T:
            if all(np.linalg.norm(t - s) > eps for s in known):
                known.append(t)
                expected.append(t)
        before = len(registry)
        added = update_sources(b, delta, registry, eps)
        assert len(added) == len(expected)
        assert all(np.array_equal(a, w) for a, w in zip(added, expected))
        assert len(registry) == before + len(expected)
        assert all(np.array_equal(a, s) for a, s in zip(added, registry.sources[before:]))


def test_locate_step_three_sources_fail_coplanar():
    scn = Scenario(
        walls=(Wall(Hyperplane([1, 0, 0], 0.0)), Wall(Hyperplane([0, 1, 0], 0.0))),
        speaker=[1.5, 2.5, 1.0],
        mic_local=MICS,
        path=(Pose([2.0, 2.0, 1.0], np.eye(3)),),
        occlusion_enabled=False,
    )
    registry = SourceRegistry()
    result = locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[0]))
    assert result.status == "fail"
    assert result.fail_reason == "coplanar_sources"
    assert result.pose is None and result.new_sources is None
    assert len(registry) == 0


def test_locate_step_vertical_walls_fail_coplanar():
    # five detected sources all at the speaker's height: coplanar
    walls = (
        Wall(Hyperplane([1, 0, 0], 0.0)),
        Wall(Hyperplane([1, 0, 0], 6.0)),
        Wall(Hyperplane([0, 1, 0], 0.0)),
        Wall(Hyperplane([0, 1, 0], 5.0)),
    )
    scn = box_scenario(walls=walls)
    registry = SourceRegistry()
    result = locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[0]))
    assert result.status == "fail"
    assert result.fail_reason == "coplanar_sources"


def test_locate_step_bootstrap_then_pose():
    scn = box_scenario()
    registry = SourceRegistry()
    first = locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[0], 0))
    assert first.status == "success"
    assert first.pose is None
    assert len(first.new_sources) == 7
    assert registry.frame_frozen
    second = locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[1], 1))
    assert second.status == "success"
    truth = to_frozen_frame(scn.path[0], scn.path[1])
    assert np.linalg.norm(second.pose.v - truth.v) <= 1e-6
    assert np.max(np.abs(second.pose.A - truth.A)) <= 1e-6
    assert second.new_sources == ()
    assert len(registry) == 7


def test_locate_step_fail_leaves_registry_bit_identical():
    scn = box_scenario()
    registry = SourceRegistry()
    locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[0], 0))
    snapshot = copy.deepcopy(registry)

    # unmatched geometry: echoes from a different room cannot match
    other = box_scenario(walls=box_walls(9.0, 7.0, 4.0), speaker=[2.6, 3.9, 2.1])
    result = locate_step(registry, scn.mic_local, generate_echoes(other, other.path[3], 3))
    assert result.status == "fail"
    assert result.fail_reason == "no_match"
    assert len(registry) == len(snapshot)
    for got, want in zip(registry.sources, snapshot.sources):
        assert np.array_equal(got, want)
    assert registry.frame_frozen == snapshot.frame_frozen


def test_locate_step_requires_noncoplanar_mics():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        locate_step(SourceRegistry(), flat, EchoSet(((1.0,), (1.0,), (1.0,), (1.0,))))


def test_full_path_replay_adds_no_sources():
    scn = box_scenario()
    registry = SourceRegistry()
    for idx, pose in enumerate(scn.path[:3]):
        locate_step(registry, scn.mic_local, generate_echoes(scn, pose, idx))
    size = len(registry)
    result = locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[2], 2))
    assert result.status == "success"
    assert result.new_sources == ()
    assert len(registry) == size


def test_noisy_run_succeeds_with_small_errors():
    poses = demo_path()[:6]
    scn = Scenario(
        walls=box_walls(6.0, 5.0, 3.0),
        speaker=[1.1, 2.3, 1.7],
        mic_local=tetra_mics(1.0),
        path=poses,
        noise_sigma=1e-3,
        seed=9,
        occlusion_enabled=False,
    )
    from echopath import run

    records, metrics = run(scn)
    assert all(r.status != "fail" for r in records)
    errors = [r.position_error for r in records if r.status == "success"]
    assert len(errors) == len(poses) - 1
    assert all(0.0 < e < 0.1 for e in errors)
    assert metrics.fail_count == 0


def test_run_passes_noise_level_to_locate_step():
    scn = Scenario(
        walls=box_walls(6.0, 5.0, 3.0),
        speaker=[1.1, 2.3, 1.7],
        mic_local=tetra_mics(1.0),
        path=demo_path()[:6],
        noise_sigma=1e-3,
        seed=9,
        occlusion_enabled=False,
    )
    from echopath import run

    records, _ = run(scn)
    registry = SourceRegistry()
    for idx, (record, pose) in enumerate(zip(records, scn.path)):
        echoes = generate_echoes(scn, pose, idx)
        result = locate_step(registry, scn.mic_local, echoes, noise_sigma=scn.noise_sigma)
        if result.status == "fail":
            assert record.status == "fail"
        elif result.pose is None:
            assert record.status == "bootstrap"
        else:
            assert record.status == "success"
            assert np.array_equal(record.est_pose.v, result.pose.v)
            assert np.array_equal(record.est_pose.A, result.pose.A)
    assert sum(r.status == "success" for r in records) == len(records) - 1
