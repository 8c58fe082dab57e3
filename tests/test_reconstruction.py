import copy
import gc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    backtracking_match,
    box_scenario,
    box_walls,
    brute_force_match,
    demo_path,
    random_rotation,
    tetra_mics,
)

from echopath import (
    DegenerateGeometryError,
    EchoSet,
    Hyperplane,
    MatchStats,
    MicArray,
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
from echopath import cayley_menger, geometry, reconstruction
from echopath.cayley_menger import (
    _cm_polynomial_gradient,
    border,
    bordered_rank,
    cm_matrix,
    cm_polynomial_batch,
)
from echopath.geometry import _numerical_rank
from echopath.pipeline import to_frozen_frame

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
    mic_array = MicArray(mics)
    threshold = root_tol * np.max(grid, axis=1) ** 3
    if noise_sigma > 0.0:
        entry_std = 2.0 * np.sqrt(grid) * noise_sigma + noise_sigma**2
        grad = _cm_polynomial_gradient(mic_array, grid)
        threshold = threshold + noise_margin * np.sqrt(np.sum((grad * entry_std) ** 2, axis=1))
    cols = grid[np.abs(cm_polynomial_batch(mic_array, grid)) <= threshold]
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
        mic_array = MicArray(mics)
        source = mics[1] + rng.uniform(1.0, 3.0) * (mics[1] - mics[0])
        profile = np.sum((mics - source) ** 2, axis=1)
        grad = _cm_polynomial_gradient(mic_array, profile)[0]
        for inside, factor in ((True, 0.9), (False, 1.1)):
            delta = 0.0
            for _ in range(30):
                column = profile + delta
                entry_std = 2.0 * np.sqrt(column) * sigma + sigma**2
                threshold = root_tol * np.max(column) ** 3 + 8.0 * np.linalg.norm(grad * entry_std)
                delta = factor * threshold / (2.0 * mic_array.abs_det_c)
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


def test_echo_match_equals_full_grid_oracle_on_flat_arrays():
    # Flat arrays at root_tol 1e-19 to 1e-13 put some |P| within round-off of
    # the threshold, so the test must give a row the same value in the
    # window's candidates as in the full grid.
    rng = np.random.default_rng(70)
    for i in range(200):
        mics = rng.uniform(-0.5, 0.5, (4, 3))
        mics[:, 2] *= 10 ** rng.uniform(-2.0, 0.0)
        sigma = (0.0, 1e-4, 1e-3, 1e-2)[i % 4]
        e = noisy_echo_sets(rng, mics, rng.integers(1, 7), rng.integers(0, 5), sigma)
        root_tol = 10 ** rng.uniform(-19.0, -13.0)
        got = echo_match(mics, e, root_tol, sigma).delta
        assert np.array_equal(got, full_grid_echo_match(mics, e, root_tol, sigma))


@pytest.fixture
def polynomial_rows(monkeypatch):
    """Row counts of every cm_polynomial_batch call echo_match makes."""
    rows = []
    real = reconstruction.cm_polynomial_batch

    def counted(mics, xs):
        rows.append(len(xs))
        return real(mics, xs)

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


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_echo_match_merges_repeated_rows_as_the_oracle_does(sigma, monkeypatch):
    # EchoSet merges equal entries, so a plain object carries the repeats: one
    # set lists each value twice, in shuffled order. echo_match reads it as an
    # EchoSet, so the rows it tests are distinct and in lexicographic order.
    grids = []
    real = reconstruction.cm_polynomial_batch

    def recorded(mics, xs):
        grids.append(xs)
        return real(mics, xs)

    monkeypatch.setattr(reconstruction, "cm_polynomial_batch", recorded)
    rng = np.random.default_rng(68)
    for k in range(4):
        mics = random_mics(rng)
        sets = list(noisy_echo_sets(rng, mics, 4, 3, sigma).d_sets)
        sets[k] = tuple(rng.permutation(sets[k] * 2))
        e = SimpleNamespace(d_sets=tuple(sets))
        del grids[:]
        got = echo_match(mics, e, 1e-9, sigma).delta
        want = full_grid_echo_match(mics, e, 1e-9, sigma)
        assert len(grids) == 1 and np.array_equal(np.unique(grids[0], axis=0), grids[0])
        assert got.shape == want.shape and got.shape[1] >= 4
        assert np.array_equal(got, want)
    mics = random_mics(rng)
    sets = list(noisy_echo_sets(rng, mics, 4, 3, sigma).d_sets)
    sets[2] = (*sets[2], 0.0)
    with pytest.raises(ValueError, match="positive"):
        echo_match(mics, SimpleNamespace(d_sets=tuple(sets)), 1e-9, sigma)


def test_echo_match_tests_under_a_tenth_of_the_grid_under_noise(polynomial_rows):
    rng = np.random.default_rng(65)
    grid = 0
    for _ in range(20):
        mics = random_mics(rng)
        e = noisy_echo_sets(rng, mics, 6, 4, 1e-3)
        echo_match(mics, e, 1e-9, 1e-3)
        grid += np.prod([len(s) for s in e.d_sets])
    assert sum(polynomial_rows) < 0.1 * grid


def test_echo_match_tests_under_a_thousandth_of_the_grid_without_noise(polynomial_rows):
    rng = np.random.default_rng(69)
    grid = 0
    for _ in range(20):
        mics = random_mics(rng)
        e = noisy_echo_sets(rng, mics, 14, 0, 0.0)
        assert echo_match(mics, e, 1e-9).n_sources >= 14
        grid += np.prod([len(s) for s in e.d_sets])
    assert sum(polynomial_rows) < 1e-3 * grid


def mirror_in_plane(point, plane):
    """point reflected in the plane through the three rows of plane."""
    normal = np.cross(plane[1] - plane[0], plane[2] - plane[0])
    normal /= np.linalg.norm(normal)
    return point - 2.0 * ((point - plane[0]) @ normal) * normal


def test_echo_window_pad_bounds_its_rounding_gap():
    # The window evaluates the form as e - a (x4 - z)^2, the test as
    # cm_polynomial_batch; the pad must cover their gap on every grid row. The
    # fourth set holds both roots of each source (its own x4 and that of its
    # mirror image in the plane of the first three microphones) and entries
    # an ulp and a relative 1e-12 away, on round and flat arrays. At root_tol
    # 0 without noise the pad is the round-off term alone.
    rng = np.random.default_rng(71)
    worst = 0.0
    for i in range(40):
        mics = random_mics(rng)
        if i % 2:
            mics[:, 2] *= 1e-2
        mic_array = MicArray(mics)
        sources = rng.uniform(-4.0, 4.0, (3, 3))
        profiles = np.sum((sources[:, None, :] - mics) ** 2, axis=2)
        roots = [profiles[:, 3]]
        roots.append([np.sum((mirror_in_plane(p, mics[:3]) - mics[3]) ** 2) for p in sources])
        roots = np.concatenate(roots)
        near = [roots * (1.0 + k * 1e-12) for k in (-1.0, 1.0)]
        near += [np.nextafter(roots, k * np.inf) for k in (-1.0, 1.0)]
        s4 = np.sort(np.concatenate([roots, *near]))
        s1, s2, x3 = (np.sort(profiles[:, k]) for k in range(3))
        e, zp, _, pad = reconstruction._echo_vertex(mic_array, (s1, s2, x3, s4), 0.0, 0.0)
        z = zp[:, None] + mic_array.vertex_z[3] * x3
        window = e[..., None] - mic_array.vertex_a * (s4 - z[..., None]) ** 2
        grid = np.stack(np.meshgrid(s1, s2, x3, s4, indexing="ij"), axis=-1)
        form = cm_polynomial_batch(mic_array, grid.reshape(-1, 4)) / -mic_array.abs_det_c
        gap = np.abs(form - window.ravel()).max()
        assert gap <= pad
        worst = max(worst, gap / pad)
    assert worst > 0.0


def test_echo_window_threshold_bounds_the_noise_term_on_every_row():
    # Under noise the window takes one threshold, tau, for all rows: the
    # noise term at the corners of the box of the four sets. On the full
    # grid the test's own noise term, in the units of tau, must stay within
    # tau + pad, on round and flat arrays.
    rng = np.random.default_rng(72)
    for i in range(200):
        mics = random_mics(rng)
        if i % 2:
            mics[:, 2] *= 1e-2
        mic_array = MicArray(mics)
        sigma = 10 ** rng.uniform(-4.0, -2.0)
        e = noisy_echo_sets(rng, mics, rng.integers(1, 7), rng.integers(0, 5), sigma)
        sets = [np.asarray(s) for s in e.d_sets]
        _, _, tau, pad = reconstruction._echo_vertex(mic_array, sets, 0.0, sigma)
        assert type(tau) is float
        grid = np.stack(np.meshgrid(*sets, indexing="ij"), axis=-1).reshape(-1, 4)
        noise = reconstruction._polynomial_noise_std(mic_array, grid, sigma)
        assert np.all(reconstruction._NOISE_MARGIN * noise / mic_array.abs_det_c <= tau + pad)


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


def test_detected_distance_matrix_is_the_placed_one_plus_the_echo_forms():
    # Off the diagonal the solve gives y_i^T C^-1 y_j, which is the squared
    # distance of the placed points plus (r_i + r_j) / 2, r_i = y_i^T C^-1 y_i,
    # clamped at zero. Noise leaves r_i nonzero, so the two matrices differ.
    scn = noisy_box_run_scenario()
    mics = scn.mics
    a = echo_match(mics, generate_echoes(scn, scn.path[3], 3), noise_sigma=scn.noise_sigma)
    y = np.vstack([np.ones((1, a.n_sources)), a.delta])
    r = np.einsum("ij,ij->j", y, mics.c_inv @ y)
    placed = pairwise_squared_distances(mics.positions(a.delta))
    expected = np.maximum(placed + (r[:, None] + r[None, :]) / 2.0, 0.0)
    got = detected_distance_matrix(mics, a)
    off = ~np.eye(a.n_sources, dtype=bool)
    assert a.n_sources >= 4 and np.abs(r).max() > 1e-3
    assert np.abs(got - expected)[off].max() <= 1e-12 * np.abs(got).max()
    assert np.abs(got - placed)[off].max() > 1e-3


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
    assert match_submatrices(d, d, 4) is None  # r above both sizes: no solution
    with pytest.raises(ValueError):
        match_submatrices(np.float64(0.0), d, 1)
    with pytest.raises(ValueError):
        match_submatrices(d, np.float64(0.0), 1)


def test_match_submatrices_is_none_when_r_exceeds_either_matrix():
    # The same points on both sides, so a match exists once both have four.
    pts = np.random.default_rng(9).uniform(-3, 3, (6, 3))
    six, three = pairwise_squared_distances(pts), pairwise_squared_distances(pts[:3])
    assert match_submatrices(six, six, 4) == brute_force_match(six, six, 4) is not None
    for a, b in ((six, three), (three, six)):
        stats = MatchStats()
        assert match_submatrices(a, b, 4, stats=stats) is None
        assert brute_force_match(a, b, 4) is None
        assert stats == MatchStats()  # nothing searched


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


@pytest.mark.parametrize("rank_tol", [1e-6, 1e-3, 0.5])
def test_match_submatrices_one_row_rank_agrees_with_svd(rank_tol):
    # Scaled, one row's bordered block is [[0, 1], [1, t]] with t in {0, +-1},
    # of singular values s and 1/s with s <= 1.62: a rank_tol above 0.38
    # rejects the row, a large diagonal entry no longer does.
    rng = np.random.default_rng(int(-np.log10(rank_tol)))
    diagonal = [0.0, 0.5, 3.0, 40.0, 2e3, 5e4]
    for _ in range(10):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 21))
        a = rng.integers(0, 4, (m, m)).astype(float)
        b = rng.integers(0, 4, (n, n)).astype(float)
        a, b = np.triu(a) + np.triu(a, 1).T, np.triu(b) + np.triu(b, 1).T
        np.fill_diagonal(a, rng.choice(diagonal, m))
        np.fill_diagonal(b, rng.choice(diagonal, n))
        for r in (1, 2):
            want = backtracking_match(a, b, r, 1.0, rank_tol)
            assert match_submatrices(a, b, r, 1.0, rank_tol) == want


@pytest.mark.parametrize("rank_tol", [1e-6, 1e-3, 0.3])
def test_match_submatrices_two_row_rank_agrees_with_svd(rank_tol):
    # A pair of zero-diagonal rows has bordered rank 1 when its off-diagonal
    # entry is nonzero, else 0; the search decides it without an SVD.
    rng = np.random.default_rng(int(-np.log10(rank_tol)) + 20)
    for d in [0.0, 1e-300, 1e-9, 0.5, 3.0, 7e8, -2.0, *rng.uniform(-50.0, 50.0, 20)]:
        assert bordered_rank(np.array([[0.0, d], [d, 0.0]]), rank_tol) == int(d != 0.0)
    for _ in range(20):
        m, n = int(rng.integers(3, 9)), int(rng.integers(3, 21))
        a = rng.integers(0, 3, (m, m)).astype(float)  # off-diagonal zeros included
        b = rng.integers(0, 3, (n, n)).astype(float)
        a, b = np.triu(a, 1) + np.triu(a, 1).T, np.triu(b, 1) + np.triu(b, 1).T
        for r in (2, 3):
            assert match_submatrices(a, b, r, 1.0, rank_tol) == backtracking_match(
                a, b, r, 1.0, rank_tol
            )


def degenerate_instance(rng, r):
    """Distance matrices of points that include coincident and collinear ones.

    The a-points are drawn from general points, lattice points on one line
    (equal multiples coincide) and repeats of earlier points; the b-points
    hold them all, shuffled, among general points, so a match exists when
    some r of them span a simplex.
    """
    line = rng.uniform(-3.0, 3.0, 3)
    pts = [rng.uniform(-3.0, 3.0, 3)]
    for _ in range(int(rng.integers(r, 9)) - 1):
        kind = rng.integers(3)
        if kind == 0:
            pts.append(rng.uniform(-3.0, 3.0, 3))
        elif kind == 1:
            pts.append(float(rng.integers(0, 3)) * line)
        else:
            pts.append(pts[int(rng.integers(len(pts)))])
    pts_a = np.array(pts)
    pts_b = np.vstack([pts_a, rng.uniform(-3.0, 3.0, (int(rng.integers(0, 6)), 3))])
    return pairwise_squared_distances(pts_a), pairwise_squared_distances(rng.permutation(pts_b))


@pytest.mark.parametrize("rank_tol", [1e-20, 1e-17, 1e-12, 1e-6, 1e-3, 0.3])
def test_match_submatrices_equals_backtracking_on_coincident_and_collinear_points(rank_tol):
    # Every prefix verdict is bordered_rank's: two coincident points border
    # to a block of SVD rank 1 below a rank_tol of about 4e-17 (its third
    # singular value is round-off, 5.6e-17 of 1.41) and of rank 0 above.
    zeros = np.zeros((3, 3))
    want = backtracking_match(zeros, zeros, 2, 1e-6, rank_tol)
    assert match_submatrices(zeros, zeros, 2, 1e-6, rank_tol) == want
    rng = np.random.default_rng(3001)
    for _ in range(40):
        for r in (2, 3, 4):
            a, b = degenerate_instance(rng, r)
            want = backtracking_match(a, b, r, 1e-6, rank_tol)
            assert match_submatrices(a, b, r, 1e-6, rank_tol) == want


def test_search_asks_bordered_rank_once_per_rank_check(monkeypatch):
    # A noisy step of the box: one bordered_rank call per prefix the search
    # tests, one- and two-row prefixes included, and none besides.
    sigma = 1e-3
    scn = box_scenario(noise_sigma=sigma, seed=3)
    mics = MicArray(scn.mic_local)
    registry = SourceRegistry()
    assert locate_step(registry, mics, generate_echoes(scn, scn.path[0], 0), sigma).status == "success"
    echoes = generate_echoes(scn, scn.path[1], 1)
    points = mics.positions(echo_match(mics, echoes, noise_sigma=sigma).delta)
    sizes = []
    real = reconstruction.bordered_rank
    monkeypatch.setattr(
        reconstruction, "bordered_rank", lambda m, tol: sizes.append(len(m)) or real(m, tol)
    )
    stats = MatchStats()
    d = pairwise_squared_distances(points)
    found = match_submatrices(d, registry.distance_matrix(), 4, 1000.0 * sigma, 1e-3, stats)
    assert found is not None
    assert len(sizes) == stats.rank_checks
    assert {1, 2, 3, 4} <= set(sizes)


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
    got = self_locate(MicArray(scn.mic_local).positions(delta), sources)
    assert np.allclose(got.v, 0.0, atol=1e-9)
    assert np.allclose(got.A, np.eye(3), atol=1e-9)


def test_self_locate_translation():
    scn = box_scenario()
    pose = Pose([1.0, 2.0, 3.0], np.eye(3))
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    got = self_locate(MicArray(scn.mic_local).positions(delta), sources)
    assert np.allclose(got.v, [1.0, 2.0, 3.0], atol=1e-9)
    assert np.allclose(got.A, np.eye(3), atol=1e-9)


def test_self_locate_yaw_and_translation():
    scn = box_scenario()
    rot = rotation_from_yaw_pitch_roll(np.pi / 2, 0.0, 0.0)
    pose = Pose([2.5, 1.0, 1.5], rot)
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 2, 4, 6]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    got = self_locate(MicArray(scn.mic_local).positions(delta), sources)
    assert np.allclose(got.A, rot, atol=1e-8)
    assert np.allclose(got.v, pose.v, atol=1e-8)


def multilaterated_pose(mic_local, b, delta_cols):
    """(A, v) by multilaterating the microphones from the references.

    The oracle of self_locate: recover_point places each microphone in the
    frozen frame and one solve factors the result against mic_local.
    """
    mics_world = recover_point(b, np.asarray(delta_cols).T)
    m = np.vstack([np.asarray(mic_local).T, np.ones((1, 4))])
    av = np.linalg.solve(m.T, mics_world.T).T
    return av[:, :3], av[:, 3]


def test_self_locate_equals_the_multilateration_oracle_on_exact_data():
    rng = np.random.default_rng(42)
    mics = MicArray(MICS)
    for _ in range(200):
        pose = Pose(rng.uniform(-3.0, 3.0, 3), random_rotation(rng))
        # Well-spread references: a jittered tetrahedron of edge about 4 m.
        refs = tetra_mics(4.0) @ random_rotation(rng).T + rng.uniform(-0.5, 0.5, (4, 3))
        world = MICS @ pose.A.T + pose.v
        delta = pairwise_squared_distances(np.vstack([world, refs]))[:4, 4:]
        got = self_locate(mics.positions(delta), refs)
        rot, v = multilaterated_pose(MICS, refs, delta)
        assert np.max(np.abs(got.A - rot)) <= 1e-12
        assert np.max(np.abs(got.v - v)) <= 1e-12
        assert np.max(np.abs(got.A - pose.A)) <= 1e-12
        assert np.max(np.abs(got.v - pose.v)) <= 1e-12


def test_self_locate_rejects_coplanar_references():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DegenerateGeometryError):
        self_locate(MicArray(MICS).positions(np.ones((4, 4))), flat)
    # Two references at the same distances from every microphone coincide in
    # the vehicle frame, so the fit is singular.
    refs = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 2.0, 2.0]])
    delta = pairwise_squared_distances(np.vstack([MICS, refs]))[:4, 4:]
    delta[:, 3] = delta[:, 2]
    with pytest.raises(DegenerateGeometryError):
        self_locate(MicArray(MICS).positions(delta), refs)


def test_self_locate_flags_consistent_coplanar_references_as_degenerate():
    # Four references on a random plane, at their true distances: placed with
    # round-off, the fit is nearly but not exactly singular, and its
    # orientation is far from orthogonal; the geometry is at fault, not the match.
    rng = np.random.default_rng(17)
    mics = MicArray(MICS)
    for _ in range(5):
        pose = Pose(rng.uniform(-3.0, 3.0, 3), random_rotation(rng))
        normal = rng.normal(size=3)
        plane = np.linalg.svd(normal[None])[2][1:]  # two directions in the plane
        refs = rng.uniform(-4.0, 4.0, (4, 2)) @ plane + rng.uniform(-3.0, 3.0) * normal
        world = MICS @ pose.A.T + pose.v
        delta = pairwise_squared_distances(np.vstack([world, refs]))[:4, 4:]
        for ortho_tol in (1e-6, 0.25):
            with pytest.raises(DegenerateGeometryError):
                self_locate(mics.positions(delta), refs, ortho_tol)


def test_self_locate_flags_one_flat_side_as_inconsistent():
    # No rigid motion maps a flat set onto a tetrahedron or back, so a flat
    # side alone is a wrong match, as locate_step reports it under noise.
    refs = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 2.0, 2.0]])
    delta = pairwise_squared_distances(np.vstack([MICS, refs]))[:4, 4:]
    collinear = delta.copy()
    collinear[:3, 2:] = collinear[:3, 1:2]  # columns 1-3 differ in x4 only: a line
    with pytest.raises(PoseInconsistencyError):
        self_locate(MicArray(MICS).positions(collinear), refs, 0.25)
    flat = refs.copy()
    flat[3] = flat[0] + flat[1] - flat[2]
    with pytest.raises(PoseInconsistencyError):
        self_locate(MicArray(MICS).positions(delta), flat, 0.25)


def test_self_locate_flags_inconsistent_distances():
    scn = box_scenario()
    pose = Pose([1.0, 2.0, 1.0], np.eye(3))
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    delta[2, 1] += 5.0  # corrupt one squared distance
    with pytest.raises(PoseInconsistencyError):
        self_locate(MicArray(scn.mic_local).positions(delta), sources, ortho_tol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_self_locate_flags_non_finite_orientation(bad):
    # pytest turns a RuntimeWarning into an error, so none may be raised.
    scn = box_scenario()
    pose = Pose([1.0, 2.0, 1.0], np.eye(3))
    sources = np.stack(ground_truth_sources(scn, pose))[[0, 1, 3, 5]]
    mics = world_microphones(scn, pose)
    delta = np.array([[np.sum((s - m) ** 2) for s in sources] for m in mics])
    points = MicArray(scn.mic_local).positions(delta)
    points[1, 2] = bad
    with pytest.raises(PoseInconsistencyError):
        self_locate(points, sources, ortho_tol=0.25)


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
    added = update_sources(recover_point(b, delta).T, registry)
    assert len(added) == 1 and np.allclose(added[0], target, atol=1e-9)
    again = update_sources(recover_point(b, delta).T, registry)
    assert again == []
    assert len(registry) == 1


def test_update_sources_first_call_uses_vehicle_frame():
    scn = box_scenario()
    pose = scn.path[1]
    registry = SourceRegistry()
    assignment = echo_match(scn.mic_local, generate_echoes(scn, pose, 1), 1e-9)
    update_sources(recover_point(scn.mic_local, assignment.delta).T, registry)
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
        added = update_sources(recover_point(b, delta).T, registry, eps)
        assert len(added) == len(expected)
        assert all(np.array_equal(a, w) for a, w in zip(added, expected))
        assert len(registry) == before + len(expected)
        assert all(np.array_equal(a, s) for a, s in zip(added, registry.sources[before:]))


def test_update_sources_matches_sequential_reference_on_clusters_among_many_points():
    rng = np.random.default_rng(65)
    eps = 0.05
    for n_clusters in (0, 1, 4, 9):
        registry = SourceRegistry([rng.uniform(-3, 3, 3) for _ in range(10)])
        # Spread points, each at least 4 eps from every other, then clusters:
        # 3-5 points 1.5 eps from a centre, or in order on a line 0.8 eps
        # apart, where the third point is close only to a dropped one and new.
        points = rng.uniform(-3, 3, (60, 3))
        spread = [points[0]]
        for q in points[1:]:
            if min(np.linalg.norm(q - r) for r in spread) > 4 * eps:
                spread.append(q)
        clusters = []
        for c, centre in enumerate(rng.uniform(-3, 3, (n_clusters, 3))):
            step = rng.standard_normal((int(rng.integers(3, 6)), 3))
            if c % 2:
                step = np.arange(len(step))[:, None] * step[0]
                clusters += list(centre + 0.8 * eps * step / np.linalg.norm(step[1]))
            else:
                clusters += list(centre + 1.5 * eps * step / np.linalg.norm(step, axis=1)[:, None])
        targets = np.array(spread + clusters)

        known = list(registry.sources)
        expected = []
        for t in targets:
            if all(np.linalg.norm(t - s) > eps for s in known):
                known.append(t)
                expected.append(t)
        added = update_sources(targets, registry, eps)
        assert len(added) == len(expected)
        assert all(np.array_equal(a, w) for a, w in zip(added, expected))


def _assert_registry_matrix_is_a_rebuild(registry):
    points = registry.as_array()
    assert np.array_equal(points, np.array(registry.sources).reshape(-1, 3))
    assert np.array_equal(registry.distance_matrix(), pairwise_squared_distances(points))


def test_registry_matrix_equals_rebuild_over_random_appends():
    rng = np.random.default_rng(71)
    eps = 1e-3
    b = np.vstack([np.zeros(3), np.eye(3)])
    for _ in range(100):
        registry = SourceRegistry()
        for _ in range(rng.integers(1, 10)):
            targets = list(rng.uniform(-6, 6, (rng.integers(0, 8), 3)))
            # Some targets lie 0.5 or 1.5 dedup_eps from a registered source:
            # the first are dropped, the second registered next to it.
            for _ in range(rng.integers(0, 4) if len(registry) else 0):
                step = rng.standard_normal(3)
                scale = eps * rng.choice([0.5, 1.5])
                near = registry.sources[rng.integers(len(registry))]
                targets.append(near + scale * step / np.linalg.norm(step))
            if not targets:
                continue
            delta = np.array([[np.sum((t - p) ** 2) for t in targets] for p in b])
            update_sources(recover_point(b, delta).T, registry, eps)
            _assert_registry_matrix_is_a_rebuild(registry)


def test_registry_built_from_an_initial_list():
    rng = np.random.default_rng(72)
    initial = [rng.uniform(-3, 3, 3) for _ in range(9)]
    registry = SourceRegistry(initial)
    assert len(registry) == 9 and registry.frame_frozen
    assert all(np.array_equal(s, p) for s, p in zip(registry.sources, initial))
    _assert_registry_matrix_is_a_rebuild(registry)
    registry.extend(rng.uniform(-3, 3, (4, 3)))
    _assert_registry_matrix_is_a_rebuild(registry)
    empty = SourceRegistry()
    assert empty.as_array().shape == (0, 3) and empty.distance_matrix().shape == (0, 0)


def test_registry_equals_a_rebuild_for_transposed_points():
    # Transposed (F-ordered) rows are copied to C order, so the matrix is the
    # rebuild's bit for bit, built at once or appended.
    rng = np.random.default_rng(73)
    for _ in range(50):
        points = rng.uniform(-6.0, 6.0, (3, int(rng.integers(2, 30)))).T
        _assert_registry_matrix_is_a_rebuild(SourceRegistry(sources=points))
        registry = SourceRegistry(rng.uniform(-6.0, 6.0, (5, 3)))
        registry.extend(points)
        _assert_registry_matrix_is_a_rebuild(registry)


def test_update_sources_on_a_large_registry_takes_transposed_points():
    rng = np.random.default_rng(66)
    eps = 0.05
    registry = SourceRegistry(rng.uniform(-6.0, 6.0, (120, 3)))
    for _ in range(10):
        # Targets 0.5 or 1.5 eps from registered sources, and fresh ones.
        step = rng.standard_normal((8, 3))
        step *= eps * rng.choice([0.5, 1.5], (8, 1)) / np.linalg.norm(step, axis=1)[:, None]
        near = registry.as_array()[rng.integers(len(registry), size=8)] + step
        targets = np.vstack([near, rng.uniform(-6.0, 6.0, (6, 3))])
        rng.shuffle(targets)

        known = list(registry.sources)
        expected = []
        for t in targets:
            if all(np.linalg.norm(t - s) > eps for s in known):
                known.append(t)
                expected.append(t)
        added = update_sources(targets.T.copy().T, registry, eps)  # F-ordered rows
        assert len(added) == len(expected)
        assert all(np.array_equal(a, w) for a, w in zip(added, expected))
        _assert_registry_matrix_is_a_rebuild(registry)
    assert len(registry) > 130


def test_registry_accepts_points_only():
    assert len(SourceRegistry()) == len(SourceRegistry([])) == 0
    assert len(SourceRegistry([np.zeros(3), np.ones(3)])) == 2
    assert len(SourceRegistry([1.0, 2.0, 3.0])) == 1
    assert len(SourceRegistry(np.zeros((0, 3)))) == 0
    bad = {
        "pairs": [[1, 2], [3, 4], [5, 6]],
        "nan": [[np.nan, 0, 0]],
        "inf": [[0, np.inf, 0]],
        "scalar": 5.0,
        "four-vector": [1.0, 2.0, 3.0, 4.0],
        "stacked": np.zeros((2, 1, 3)),
        "ragged": [[1.0, 2.0, 3.0], [4.0, 5.0]],
        "text": ["a", "b", "c"],
        "object": object(),
    }
    for name, points in bad.items():
        with pytest.raises(ValueError):
            SourceRegistry(points)
        for registry in (SourceRegistry(), SourceRegistry([[7.0, 8.0, 9.0]])):
            before = registry.as_array().copy()
            with pytest.raises(ValueError):
                registry.extend(points)
            with pytest.raises(ValueError):
                update_sources(points, registry)
            assert np.array_equal(registry.as_array(), before), name
            _assert_registry_matrix_is_a_rebuild(registry)


def test_registry_arrays_are_read_only():
    registry = SourceRegistry([np.zeros(3), np.ones(3)])
    for view in (registry.as_array(), registry.distance_matrix(), registry.sources[0]):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 5.0
    with pytest.raises(AttributeError):
        registry.sources.append(np.ones(3))
    _assert_registry_matrix_is_a_rebuild(registry)


def test_failed_steps_leave_registry_points_and_matrix_unchanged():
    scn = noisy_box_run_scenario()
    registry, fails = SourceRegistry(), 0
    for idx, pose in enumerate(scn.path):
        snapshot = copy.deepcopy(registry)
        echoes = generate_echoes(scn, pose, idx)
        result = locate_step(registry, scn.mic_local, echoes, noise_sigma=scn.noise_sigma)
        if result.status == "fail":
            fails += 1
            assert len(registry.sources) == len(snapshot.sources)
            for got, want in zip(registry.sources, snapshot.sources):
                assert np.array_equal(got, want)
            assert np.array_equal(registry.as_array(), snapshot.as_array())
            assert np.array_equal(registry.distance_matrix(), snapshot.distance_matrix())
        _assert_registry_matrix_is_a_rebuild(registry)
    assert fails > 0 and len(registry) > 100


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


def test_locate_step_on_three_known_sources_fails_no_match():
    scn = box_scenario()
    echoes = generate_echoes(scn, scn.path[0])
    full = SourceRegistry()
    assert locate_step(full, scn.mics, echoes).status == "success"
    registry = SourceRegistry(full.as_array()[:3])
    points, matrix = registry.as_array().copy(), registry.distance_matrix().copy()
    result = locate_step(registry, scn.mics, echoes)
    assert result.status == "fail" and result.fail_reason == "no_match"
    assert np.array_equal(registry.as_array(), points)
    assert np.array_equal(registry.distance_matrix(), matrix)


def test_bootstrap_fails_when_deduplication_leaves_three_sources():
    # The speaker sits 0.4 mm from the wall x = 0, so it and its mirror point
    # (0.8 mm apart) merge within the 1 mm dedup radius: four sources are
    # detected, three would be registered, and no later step could match.
    from echopath import run

    walls = [Wall(Hyperplane(normal, 0.0)) for normal in -np.eye(3)]
    path = [Pose([2.0 + 0.1 * i, 2.0, 1.5], np.eye(3)) for i in range(4)]
    scn = Scenario(walls, [0.0004, 1.0, 1.0], MICS, path, occlusion_enabled=False)
    placed = scn.mics.positions(echo_match(scn.mics, generate_echoes(scn, path[0])).delta)
    assert len(placed) == 4
    records, metrics = run(scn)
    assert [r.status for r in records] == ["fail"] * 4
    assert {r.fail_reason for r in records} == {"coplanar_sources"}
    assert all(r.n_sources_known == 0 for r in records)
    assert metrics.fail_count == 4 and metrics.bootstrap_step_index is None


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


def _exact_echoes(k):
    """Echo sets holding the exact squared distances of k random points."""
    points = np.random.default_rng(k).uniform(-3.0, 3.0, (k, 3))
    return EchoSet(tuple(pairwise_squared_distances(np.vstack([MICS, points]))[:4, 4:]))


FEW_SOURCES = {
    "deaf_mic": (EchoSet(((1.0, 2.0), (), (1.5,), (2.5,))), 0),
    "inconsistent": (EchoSet(((1.0,), (4.0,), (9.0,), (100.0,))), 0),
    "one": (_exact_echoes(1), 1),
    "two": (_exact_echoes(2), 2),
    "three": (_exact_echoes(3), 3),
}


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("bootstrapped", [False, True])
@pytest.mark.parametrize("echoes, n_sources", FEW_SOURCES.values(), ids=FEW_SOURCES.keys())
def test_fewer_than_four_sources_fail_coplanar(echoes, n_sources, bootstrapped, sigma):
    registry = SourceRegistry()
    if bootstrapped:
        scn = box_scenario()
        locate_step(registry, MICS, generate_echoes(scn, scn.path[0], 0))
    snapshot = copy.deepcopy(registry)
    assert echo_match(MICS, echoes).n_sources == n_sources
    assert echo_match(MICS, echoes, noise_sigma=sigma).n_sources < 4  # ghosts under noise
    result = locate_step(registry, MICS, echoes, sigma)
    assert (result.status, result.fail_reason) == ("fail", "coplanar_sources")
    assert len(registry) == len(snapshot) == (7 if bootstrapped else 0)
    assert np.array_equal(registry.as_array(), snapshot.as_array())
    assert np.array_equal(registry.distance_matrix(), snapshot.distance_matrix())


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_echoes_whose_cube_overflows_fail_without_raising(sigma):
    # (1e200)^3 overflows: the echo window's bound is inf, not an OverflowError.
    echoes = EchoSet(tuple((1e200 * (1.0 + k),) for k in range(4)))
    for registry in (SourceRegistry(), SourceRegistry(np.eye(4, 3))):
        points = registry.as_array().copy()
        with np.errstate(over="ignore", invalid="ignore"):
            result = locate_step(registry, MICS, echoes, sigma)
        assert (result.status, result.fail_reason) == ("fail", "coplanar_sources")
        assert np.array_equal(registry.as_array(), points)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_echoes_whose_threshold_overflows_fail_without_a_warning(sigma):
    # Scaled by 1e150, the box's first emission has squared distances near
    # 1e152 and root_tol max(x)^3 overflows: no column has a finite
    # threshold, so none is kept and the bootstrap FAILs.
    scn = box_scenario()
    echoes = generate_echoes(scn, scn.path[0], 0)
    huge = EchoSet(tuple(tuple(1e150 * x for x in s) for s in echoes.d_sets))
    registry = SourceRegistry()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert echo_match(scn.mic_local, huge, noise_sigma=sigma).n_sources == 0
        result = locate_step(registry, scn.mic_local, huge, sigma)
    assert (result.status, result.fail_reason) == ("fail", "coplanar_sources")
    assert len(registry) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="echo_match's threshold root_tol max(x)^3 outgrows the echo form's spread "
    "over wrong combinations (about max(x)^2): at 1e8 every one of the 2,401 grid "
    "columns is kept and the bootstrap registers them all",
)
def test_far_echoes_fail_the_bootstrap():
    # The box's first emission with every squared distance times 1e8 (up to
    # 8.5e9 m^2, about 92 km) has no consistent sources to register.
    scn = box_scenario()
    echoes = generate_echoes(scn, scn.path[0], 0)
    far = EchoSet(tuple(tuple(1e8 * x for x in s) for s in echoes.d_sets))
    outcomes = []
    for sigma in (0.0, 1e-3):
        registry = SourceRegistry()
        result = locate_step(registry, scn.mic_local, far, sigma)
        outcomes.append((result.status, len(registry)))
    assert outcomes == [("fail", 0), ("fail", 0)]


def test_a_located_noiseless_step_takes_no_svd(monkeypatch):
    # Step 4 of the box's path meets no collinear prefix in its search, so
    # every rank test of the step has full rank and a closed-form bound
    # decides it: the placed points' Gram matrix and the prefixes'
    # Cayley-Menger determinants.
    scn = box_scenario()
    mics = MicArray(scn.mic_local)
    registry = SourceRegistry()
    assert locate_step(registry, mics, generate_echoes(scn, scn.path[0], 0)).status == "success"
    echoes = generate_echoes(scn, scn.path[4], 4)
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: svd_calls.append(m) or svd(m, **kw))
    result = locate_step(registry, mics, echoes)
    assert result.status == "success" and result.pose is not None
    assert svd_calls == []


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


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_foreign_emissions_fail_and_leave_the_registry_alone(sigma):
    # After each step of the box run, the same pose's emission in another
    # room (criterion 8's) is fed to the same registry: it FAILs no_match,
    # and the registry keeps its sources, its count and its frame.
    scn = box_scenario(noise_sigma=sigma, seed=9)
    other = box_scenario(
        walls=box_walls(9.0, 7.0, 4.0), speaker=[2.6, 3.9, 2.1], noise_sigma=sigma, seed=9
    )
    registry, reasons = SourceRegistry(), []
    for idx, pose in enumerate(scn.path):
        locate_step(registry, scn.mic_local, generate_echoes(scn, pose, idx), sigma)
        if idx == 0:
            continue
        n, points, frozen = len(registry), registry.as_array().copy(), registry.frame_frozen
        foreign = generate_echoes(other, other.path[idx], idx)
        result = locate_step(registry, scn.mic_local, foreign, sigma)
        reasons.append((result.status, result.fail_reason))
        assert len(registry) == n and registry.frame_frozen == frozen
        assert np.array_equal(registry.as_array(), points)
    assert reasons == [("fail", "no_match")] * 9


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


def noisy_box_run_scenario() -> Scenario:
    """32 random poses in a 6 x 5 x 3 m box at sigma = 1 mm.

    Ghost sources grow the registry to 153 sources; steps 16, 18, 26 and 31
    fail, the last two because their fit is a reflection.
    """
    rng = np.random.default_rng(1)
    path = tuple(
        Pose(rng.uniform([1.2, 1.2, 0.9], [4.8, 3.8, 2.1]), random_rotation(rng))
        for _ in range(32)
    )
    return Scenario(
        walls=box_walls(6.0, 5.0, 3.0),
        speaker=[1.1, 2.3, 1.7],
        mic_local=tetra_mics(1.0),
        path=path,
        noise_sigma=1e-3,
        seed=0,
        occlusion_enabled=False,
    )


def test_noisy_run_is_the_same_without_rank_certificates(monkeypatch):
    # Every certified rank verdict is the SVD's: declining them all leaves
    # each record bit for bit as it was.
    from echopath import run

    def fields(record):
        poses = [p for p in (record.est_pose, record.true_pose) if p is not None]
        return (
            record.step_index,
            record.status,
            record.fail_reason,
            record.n_sources_known,
            record.n_sources_new,
            record.position_error,
            record.orientation_error,
            b"".join(p.v.tobytes() + p.A.tobytes() for p in poses),
        )

    scn = noisy_box_run_scenario()
    certified, _ = run(scn)
    declined = []

    def decline(ratio_sq, tol):
        declined.append(ratio_sq >= 4.0 * tol * tol)
        return False

    for module in (geometry, cayley_menger):
        monkeypatch.setattr(module, "_certified_full_rank", decline)
    plain, _ = run(scn)
    assert sum(declined) > 100  # verdicts the bound would have taken
    assert [fields(r) for r in certified] == [fields(r) for r in plain]


def test_noisy_run_is_the_same_with_a_rebuilt_registry_matrix(monkeypatch):
    from echopath import run

    def outcome(records):
        return [
            (
                r.status,
                r.fail_reason,
                r.n_sources_known,
                r.n_sources_new,
                None if r.est_pose is None else r.est_pose.v.tobytes() + r.est_pose.A.tobytes(),
            )
            for r in records
        ]

    scn = noisy_box_run_scenario()
    cached, _ = run(scn)
    monkeypatch.setattr(
        SourceRegistry,
        "distance_matrix",
        lambda self: pairwise_squared_distances(self.as_array()),
    )
    rebuilt, _ = run(scn)
    assert len(cached) >= 30
    assert cached[-1].n_sources_known + cached[-1].n_sources_new > 100
    assert outcome(cached) == outcome(rebuilt)


def test_locate_step_matches_on_the_distances_of_the_placed_points(monkeypatch):
    # The search compares the registry's matrix, built from placed points,
    # with the same formula on this step's placed points, under noise too.
    scn = box_scenario(noise_sigma=1e-3, seed=9)
    searched = []
    real = reconstruction.match_submatrices

    def recording(a, *args, **kwargs):
        searched.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(reconstruction, "match_submatrices", recording)
    registry = SourceRegistry()
    for idx, pose in enumerate(scn.path):
        echoes = generate_echoes(scn, pose, idx)
        n_searched = len(searched)
        locate_step(registry, scn.mics, echoes, scn.noise_sigma)
        if len(searched) > n_searched:
            delta = echo_match(scn.mics, echoes, noise_sigma=scn.noise_sigma).delta
            placed = pairwise_squared_distances(scn.mics.positions(delta))
            assert np.array_equal(searched[-1], placed)
    assert len(searched) == len(scn.path) - 1


# The names bench/run.py traces in reconstruction's namespace. A located
# step must call each of them, or its per-layer metric reads 0.
TRACED_STEP_NAMES = (
    "echo_match",
    "cm_polynomial_batch",
    "match_submatrices",
    "bordered_rank",
    "self_locate",
    "update_sources",
    "affine_dimension",
    "pairwise_squared_distances",
)


def test_located_step_calls_every_traced_name(monkeypatch):
    called = set()
    for name in TRACED_STEP_NAMES:

        def recording(*args, _name=name, _real=getattr(reconstruction, name), **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(reconstruction, name, recording)
    scn = box_scenario(noise_sigma=1e-3, seed=9)
    registry, located = SourceRegistry(), 0
    for idx, pose in enumerate(scn.path):
        called.clear()
        echoes = generate_echoes(scn, pose, idx)
        result = locate_step(registry, scn.mics, echoes, scn.noise_sigma)
        if result.pose is not None:
            located += 1
            assert called == set(TRACED_STEP_NAMES)
    assert located > 0


def test_locate_step_does_not_rebuild_the_registry_matrix(monkeypatch):
    scn = box_scenario()
    registry = SourceRegistry()
    locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[0], 0))
    registry.extend(np.random.default_rng(5).uniform(20.0, 30.0, (20, 3)))  # never matched
    n = len(registry)
    rows = []

    def counting(points):
        rows.append(len(points))
        return pairwise_squared_distances(points)

    monkeypatch.setattr(reconstruction, "pairwise_squared_distances", counting)
    result = locate_step(registry, scn.mic_local, generate_echoes(scn, scn.path[1], 1))
    assert result.status == "success"
    assert n >= 20 and n not in rows


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


def noisy_box_run(seed):
    """The noisy six-pose box run at one seed, and its records and metrics."""
    scn = Scenario(
        walls=box_walls(6.0, 5.0, 3.0),
        speaker=[1.1, 2.3, 1.7],
        mic_local=tetra_mics(1.0),
        path=demo_path()[:6],
        noise_sigma=1e-3,
        seed=seed,
        occlusion_enabled=False,
    )
    from echopath import run

    return run(scn)


def assert_noisy_box_run_succeeds(seed):
    records, metrics = noisy_box_run(seed)
    assert [r.fail_reason for r in records] == [None] * len(records)
    assert all(0.0 < r.position_error < 0.1 for r in records if r.status == "success")
    assert metrics.fail_count == 0


def test_noisy_box_run_succeeds_on_seed_7():
    assert_noisy_box_run_succeeds(7)


def test_noisy_box_run_succeeds_on_seed_6():
    assert_noisy_box_run_succeeds(6)


def test_noisy_box_run_succeeds_on_seed_15():
    assert_noisy_box_run_succeeds(15)


def test_noisy_box_run_succeeds_on_seed_19():
    assert_noisy_box_run_succeeds(19)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the lexicographically least 4-point match fixes the pose "
    "unverified; here steps 16, 18, 26 and 31 fail with a PoseInconsistencyError",
)
def test_noisy_box_32_pose_run_has_no_fail():
    from echopath import run

    records, metrics = run(noisy_box_run_scenario())
    assert [r.fail_reason for r in records] == [None] * len(records)
    assert metrics.fail_count == 0


def test_noisy_box_32_pose_run_returns_rotations_only():
    from echopath import run

    records, _ = run(noisy_box_run_scenario())
    located = [r.est_pose.A for r in records if r.est_pose is not None]
    assert len(located) > 20
    assert all(np.linalg.det(a) > 0.0 for a in located)


def test_midplane_speaker_steps_fail_rather_than_return_a_reflection():
    # With the speaker on the box's midplane x = 3, squared distances cannot
    # tell the sources from their mirror images, and the least match of five
    # steps fits a reflection: those steps FAIL, and every pose is exact.
    from echopath import run

    records, _ = run(box_scenario(speaker=[3.0, 2.3, 1.7]))
    failed = [r for r in records if r.status == "fail"]
    assert [r.step_index for r in failed] == [2, 3, 6, 7, 9]
    assert all("PoseInconsistencyError" in r.fail_reason for r in failed)
    assert all("reflection" in r.fail_reason for r in failed)
    located = [r for r in records if r.status == "success"]
    assert len(located) == 4
    for r in located:
        assert np.linalg.det(r.est_pose.A) > 0.0
        assert r.position_error <= 1e-6 and r.orientation_error <= 1e-6


def test_midplane_speaker_steps_fail_or_return_the_true_rotation():
    # Whatever the search matches, a step that does not FAIL returns the true
    # pose: a rotation (det A > 0), exact at sigma = 0.
    from echopath import run

    records, _ = run(box_scenario(speaker=[3.0, 2.3, 1.7]))
    for r in records[1:]:
        assert r.status in ("fail", "success")
        if r.status == "success":
            assert np.linalg.det(r.est_pose.A) > 0.0
            assert np.abs(r.est_pose.v - r.true_pose.v).max() <= 1e-6
            assert np.abs(r.est_pose.A - r.true_pose.A).max() <= 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: with the speaker on the box's vertical axis, a half turn "
    "about the axis explains the same echoes; steps 2, 6 and 9 return that rotation",
)
def test_axis_speaker_run_is_exact(scenario_dir):
    from echopath import load_scenario, run

    records, _ = run(load_scenario(scenario_dir / "box_room_axis.yaml"))
    for r in records:
        if r.status == "success":
            assert r.position_error <= 1e-6 and r.orientation_error <= 1e-6


BOX_CENTRE = np.array([3.0, 2.5, 1.5])


def scaled_box_scenario(scale, noise_sigma=0.0, seed=20240601, scale_mics=False):
    """The six-pose box run (tetrahedron of edge 1 m) in a box scaled by scale.

    The poses keep their offsets from the box centre, or with scale_mics the
    whole scene, microphones and poses included, is scaled about the origin.
    """
    poses = demo_path()[:6]
    if scale_mics:
        path = tuple(Pose(scale * p.v, p.A) for p in poses)
    else:
        path = tuple(Pose(p.v + (scale - 1.0) * BOX_CENTRE, p.A) for p in poses)
    return Scenario(
        walls=box_walls(6.0 * scale, 5.0 * scale, 3.0 * scale),
        speaker=scale * np.array([1.1, 2.3, 1.7]),
        mic_local=tetra_mics(scale if scale_mics else 1.0),
        path=path,
        noise_sigma=noise_sigma,
        seed=seed,
        occlusion_enabled=False,
    )


@pytest.mark.parametrize("scale", [10.0, 100.0])
def test_noiseless_run_is_exact_in_a_scaled_box(scale):
    # A rank threshold on unscaled squared distances rejects every 4-point
    # prefix here, and every step after bootstrap FAILs with no_match.
    from echopath import run

    records, metrics = run(scaled_box_scenario(scale))
    assert records[0].status == "bootstrap"
    assert [r.status for r in records[1:]] == ["success"] * (len(records) - 1)
    assert metrics.max_position_error <= 1e-6
    assert all(r.orientation_error <= 1e-6 for r in records[1:])


def unit_dependent_bordered_rank(m, tol):
    """The rank of border(m) itself, whose verdict depends on the units of m."""
    return _numerical_rank(border(m), tol) - 2


def test_noisy_step_in_a_10x_box_is_located():
    from echopath import run

    records, _ = run(scaled_box_scenario(10.0, 1e-3, 3, scale_mics=True))
    assert records[0].status == "bootstrap"
    assert records[1].status == "success" and records[1].position_error < 0.1


def test_noisy_step_in_a_10x_box_matches_after_few_rank_checks(monkeypatch):
    scn = scaled_box_scenario(10.0, noise_sigma=1e-3, seed=3, scale_mics=True)
    mics = MicArray(scn.mic_local)
    registry = SourceRegistry()
    bootstrap = locate_step(registry, mics, generate_echoes(scn, scn.path[0], 0), 1e-3)
    assert bootstrap.status == "success"
    echoes = generate_echoes(scn, scn.path[1], 1)
    searches = []
    search = reconstruction.match_submatrices

    def counted(*args, **kwargs):
        stats = MatchStats()
        searches.append((search(*args, stats=stats, **kwargs), stats))
        return searches[-1][0]

    monkeypatch.setattr(reconstruction, "match_submatrices", counted)
    with monkeypatch.context() as patched:
        patched.setattr(reconstruction, "bordered_rank", unit_dependent_bordered_rank)
        failed = locate_step(copy.deepcopy(registry), mics, echoes, 1e-3)
    result = locate_step(registry, mics, echoes, 1e-3)
    (_, exhaustive), (found, stats) = searches
    assert failed.fail_reason == "no_match"
    assert result.status == "success" and found is not None
    truth = to_frozen_frame(scn.path[0], scn.path[1])
    assert np.linalg.norm(result.pose.v - truth.v) < 0.1
    # 5 rank checks to the match here, against 14 to exhaust the search.
    assert 0 < 2 * stats.rank_checks < exhaustive.rank_checks


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
