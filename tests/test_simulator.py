import copy
import math
import pickle

import numpy as np
import pytest
from conftest import box_scenario, box_walls, demo_path, random_rotation, tetra_mics

from echopath import (
    DegenerateGeometryError,
    EchoSet,
    Hyperplane,
    MicArray,
    Pose,
    Scenario,
    SourceRegistry,
    Wall,
    ambiguity_pair,
    cm_matrix,
    echo_set_difference,
    generate_echoes,
    ground_truth_sources,
    pairwise_squared_distances,
    rotation_from_yaw_pitch_roll,
    world_microphones,
)
from echopath import geometry
from echopath.cayley_menger import cm_polynomial
from echopath.simulator import (
    image_sources,
    rigidly_transformed,
    source_audibility,
    speaker_position,
)


def test_world_microphones_identity_pose():
    scn = box_scenario()
    pose = Pose([0, 0, 0], np.eye(3))
    assert np.allclose(world_microphones(scn, pose), scn.mic_local)


def test_world_microphones_translation():
    scn = box_scenario()
    pose = Pose([1, 2, 3], np.eye(3))
    assert np.allclose(world_microphones(scn, pose), scn.mic_local + [1, 2, 3])


def test_world_microphones_rotation_preserves_shape():
    scn = box_scenario()
    yaw90 = rotation_from_yaw_pitch_roll(np.pi / 2, 0.0, 0.0)
    pose = Pose([2, 2, 1], yaw90)
    mics = world_microphones(scn, pose)
    assert np.allclose(
        pairwise_squared_distances(mics), pairwise_squared_distances(scn.mic_local), atol=1e-12
    )
    # 90 degree yaw maps local (x, y) to (-y, x)
    expected_first = np.array([-scn.mic_local[0, 1], scn.mic_local[0, 0], scn.mic_local[0, 2]])
    assert np.allclose(mics[0], expected_first + [2, 2, 1])


def test_image_sources_rectangle_layout():
    walls = (
        Wall(Hyperplane([1, 0], 0.0)),
        Wall(Hyperplane([1, 0], 16.0)),
        Wall(Hyperplane([0, 1], 0.0)),
        Wall(Hyperplane([0, 1], 10.0)),
    )
    src = image_sources(walls, [6.0, 7.0])
    assert np.allclose(src[0], [6, 7])
    assert np.allclose(src[1], [-6, 7])
    assert np.allclose(src[2], [26, 7])
    assert np.allclose(src[3], [6, -7])
    assert np.allclose(src[4], [6, 13])


def test_ground_truth_sources_box_counts():
    scn = box_scenario()
    src = ground_truth_sources(scn, scn.path[0])
    assert len(src) == 1 + len(scn.walls)


def test_ground_truth_speaker_on_wall():
    scn = box_scenario(speaker=[0.0, 2.0, 1.5])
    src = ground_truth_sources(scn, scn.path[0])
    assert np.allclose(src[0], src[1])  # mirror across x=0 coincides with speaker


def test_ground_truth_sources_need_microphones():
    # "Heard by at least one microphone" needs microphones, occluded or not.
    for occluded in (False, True):
        scn = box_scenario(mic_local=None, occlusion_enabled=occluded)
        with pytest.raises(ValueError, match="no microphones"):
            ground_truth_sources(scn, scn.path[0])


def test_speaker_position_on_vehicle():
    scn = box_scenario(speaker=[0.1, 0.0, 0.2], speaker_on_vehicle=True)
    pose = scn.path[2]
    assert np.allclose(speaker_position(scn, pose), pose.A @ [0.1, 0.0, 0.2] + pose.v)


def test_generate_echoes_single_wall_distances():
    scn = Scenario(
        walls=(Wall(Hyperplane([0, 0, 1], 0.0)),),
        speaker=[0.0, 0.0, 1.0],
        mic_local=np.array([[0, 0, 2], [0.5, 0, 1.2], [0, 0.5, 1.4], [0.3, 0.3, 1.8]]),
        path=(Pose([0, 0, 0], np.eye(3)),),
        occlusion_enabled=False,
    )
    echoes = generate_echoes(scn, scn.path[0])
    # first mic at (0,0,2): direct path 1, mirror (0,0,-1) path 3
    assert echoes.d_sets[0] == (1.0, 9.0)


def test_generate_echoes_count_four_vertical_walls():
    walls = (
        Wall(Hyperplane([1, 0, 0], 0.0)),
        Wall(Hyperplane([1, 0, 0], 6.0)),
        Wall(Hyperplane([0, 1, 0], 0.0)),
        Wall(Hyperplane([0, 1, 0], 5.0)),
    )
    scn = box_scenario(walls=walls)
    echoes = generate_echoes(scn, scn.path[1], 1)
    assert all(len(s) == 5 for s in echoes.d_sets)


def per_pose_echoes(s, p, pose_index):
    """The echo set from image sources built at the pose: the oracle of the cached path."""
    sources = image_sources(s.walls, speaker_position(s, p))
    _, audible = source_audibility(s, p)
    mics = world_microphones(s, p)
    dists = np.linalg.norm(sources[:, None, :] - mics[None, :, :], axis=2)
    if s.noise_sigma > 0.0:
        z = np.random.default_rng((s.seed, pose_index)).standard_normal(dists.shape)
        dists = dists + z * s.noise_sigma
    squared = dists * dists
    return EchoSet(tuple(tuple(squared[audible[:, k], k]) for k in range(4)))


def occluded_box_walls() -> tuple:
    """The box with walls 1 and 4 cut to patches, so occlusion drops some echoes."""
    walls = list(box_walls(6.0, 5.0, 3.0))
    walls[1] = Wall(walls[1].plane, [[6, 0, 0], [6, 2.5, 0], [6, 2.5, 3], [6, 0, 3]])
    walls[4] = Wall(walls[4].plane, [[0, 0, 0], [3, 0, 0], [3, 5, 0], [0, 5, 0]])
    return tuple(walls)


@pytest.mark.parametrize(
    "sigma, occluded",
    [
        pytest.param(0.0, False, id="0.0"),
        pytest.param(1e-3, False, id="0.001"),
        pytest.param(1e-3, True, id="occluded-0.001"),
    ],
)
def test_fixed_speaker_echoes_equal_the_per_pose_image_sources(sigma, occluded):
    walls = occluded_box_walls() if occluded else box_walls(6.0, 5.0, 3.0)
    scn = box_scenario(walls=walls, occlusion_enabled=occluded, noise_sigma=sigma, seed=4)
    assert "_fixed_image_sources" not in vars(scn)  # set-up does not build them
    sizes = set()
    for idx, pose in enumerate(scn.path):
        echoes = generate_echoes(scn, pose, idx)
        assert echoes.d_sets == per_pose_echoes(scn, pose, idx).d_sets
        sizes.update(map(len, echoes.d_sets))
    assert (min(sizes) < 7) == occluded  # the masked path ran exactly when walls are cut
    kept = vars(scn)["_fixed_image_sources"]
    assert np.array_equal(kept, image_sources(scn.walls, scn.speaker))
    assert not kept.flags.writeable
    assert source_audibility(scn, scn.path[3])[0] is kept


def test_vehicle_mounted_speaker_moves_its_image_sources():
    scn = box_scenario(speaker=[0.1, 0.0, 0.2], speaker_on_vehicle=True, noise_sigma=1e-3)
    first = source_audibility(scn, scn.path[0])[0]
    second = source_audibility(scn, scn.path[1])[0]
    assert np.max(np.abs(first - second)) > 0.1
    for idx, pose in enumerate(scn.path[:3]):
        sources = source_audibility(scn, pose)[0]
        assert np.array_equal(sources, image_sources(scn.walls, speaker_position(scn, pose)))
        assert generate_echoes(scn, pose, idx).d_sets == per_pose_echoes(scn, pose, idx).d_sets


def test_generate_echoes_deterministic():
    scn = box_scenario(noise_sigma=2e-3, seed=5)
    a = generate_echoes(scn, scn.path[3], 3)
    b = generate_echoes(scn, scn.path[3], 3)
    assert a == b


def test_noise_keyed_by_pose_and_seed():
    scn = box_scenario(noise_sigma=2e-3, seed=5)
    base = generate_echoes(scn, scn.path[3], 3)
    other_pose_index = generate_echoes(scn, scn.path[3], 4)
    assert base != other_pose_index
    other_seed = generate_echoes(scn.with_overrides(seed=6), scn.path[3], 3)
    assert base != other_seed


def test_noisy_entry_is_the_keyed_draw_added_to_the_distance():
    # Entry (i, k) is (||s_i - m_k|| + sigma z[i, k])^2, z one (n_sources, 4)
    # standard-normal draw keyed by (seed, pose index).
    sigma = 2e-3
    scn = box_scenario(noise_sigma=sigma, seed=5)
    for idx in (0, 3, 7):
        pose = scn.path[idx]
        sources, _ = source_audibility(scn, pose)
        mics = world_microphones(scn, pose)
        z = np.random.default_rng((5, idx)).standard_normal((len(sources), 4))
        echoes = generate_echoes(scn, pose, idx)
        for k in range(4):
            dist = [np.linalg.norm(s - mics[k]) for s in sources]
            want = (np.array(dist) + sigma * z[:, k]) ** 2
            np.testing.assert_allclose(echoes.d_sets[k], np.sort(want), rtol=1e-12)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_one_keyed_generator_per_noisy_emission(monkeypatch, sigma):
    keys = []
    real = np.random.default_rng

    def counted(seed=None):
        keys.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    scn = box_scenario(noise_sigma=sigma, seed=5)
    for idx, pose in enumerate(scn.path):
        generate_echoes(scn, pose, idx)
    assert keys == ([(5, idx) for idx in range(len(scn.path))] if sigma > 0.0 else [])


def test_occlusion_leaves_the_noise_of_audible_echoes_unchanged():
    # Noise is drawn for every (source, microphone) pair before the audibility
    # mask, so dropping occluded echoes does not move the draws of the rest.
    scn = box_scenario(walls=occluded_box_walls(), noise_sigma=1e-3, seed=5)
    dropped = 0
    for idx, pose in enumerate(scn.path):
        heard = generate_echoes(scn.with_overrides(occlusion_enabled=True), pose, idx)
        every = generate_echoes(scn, pose, idx)
        for on, off in zip(heard.d_sets, every.d_sets):
            assert set(on) <= set(off)
            dropped += len(off) - len(on)
    assert dropped > 0


def reflection_audible_reference(wall, mic, mirror):
    """The reflection-point test with the wall's frame rebuilt per call."""
    d_mic, d_mirror = wall.plane.signed_distance(mic), wall.plane.signed_distance(mirror)
    if d_mic * d_mirror >= 0.0:
        return False
    hit = mic + d_mic / (d_mic - d_mirror) * (mirror - mic)
    basis = geometry.plane_basis(wall.plane.normal)
    return geometry.point_in_polygon(basis @ hit, wall.boundary @ basis.T)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_occluded_emissions_equal_the_reflection_point_reference(sigma):
    # Random poses in the occluded box: each bounded wall's verdict per
    # microphone is the reference's, and the echoes and ground truth follow.
    rng = np.random.default_rng(int(sigma * 1e3) + 35)
    scn = box_scenario(walls=occluded_box_walls(), occlusion_enabled=True, noise_sigma=sigma)
    heard = set()
    for idx in range(60):
        pose = Pose(rng.uniform([0.8, 0.8, 0.6], [5.2, 4.2, 2.4]), random_rotation(rng))
        sources, audible = source_audibility(scn, pose)
        mics = world_microphones(scn, pose)
        want = np.ones_like(audible)
        for wi, wall in enumerate(scn.walls, 1):
            if wall.bounded:
                want[wi] = [reflection_audible_reference(wall, m, sources[wi]) for m in mics]
        assert np.array_equal(audible, want)
        heard.update(want[[2, 5]].ravel().tolist())
        truth = ground_truth_sources(scn, pose)
        kept = np.flatnonzero(want.any(axis=1))
        assert len(truth) == len(kept)
        assert all(np.array_equal(t, sources[i]) for t, i in zip(truth, kept))
        echoes = generate_echoes(scn, pose, idx)
        assert echoes.d_sets == per_pose_echoes(scn, pose, idx).d_sets
    assert heard == {False, True}  # both verdicts occur


def test_an_emission_reuses_each_walls_frame(monkeypatch):
    # A bounded wall builds its in-plane frame once, when it is built.
    scn = box_scenario(walls=occluded_box_walls(), occlusion_enabled=True, noise_sigma=1e-3)

    def forbidden(normal):
        raise AssertionError("plane_basis ran during an emission")

    monkeypatch.setattr(geometry, "plane_basis", forbidden)
    for idx, pose in enumerate(scn.path):
        generate_echoes(scn, pose, idx)
        ground_truth_sources(scn, pose)


def test_noiseless_ignores_seed():
    scn = box_scenario()
    a = generate_echoes(scn, scn.path[2], 2)
    b = generate_echoes(scn.with_overrides(seed=999), scn.path[2], 2)
    assert a == b


def test_microphone_on_source_rejected():
    scn = Scenario(
        walls=(Wall(Hyperplane([0, 0, 1], 0.0)),),
        speaker=[0.0, 0.0, 1.0],
        mic_local=np.array([[0, 0, 1], [0.5, 0, 1.2], [0, 0.5, 1.4], [0.3, 0.3, 1.8]]),
        path=(Pose([0, 0, 0], np.eye(3)),),
        occlusion_enabled=False,
    )
    with pytest.raises(DegenerateGeometryError):
        generate_echoes(scn, scn.path[0])


def test_occlusion_per_microphone():
    patch = Wall(
        Hyperplane([0, 0, 1], 0.0),
        boundary=[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
    )
    scn = Scenario(
        walls=(patch,),
        speaker=[0.5, 0.5, 1.0],
        mic_local=np.array(
            [[0, 0, 0.5], [5, 5, 0.5], [0.2, 0, 0.6], [0, 0.2, 0.8]]
        ),
        path=(Pose([0.4, 0.4, 0.4], np.eye(3)),),
        occlusion_enabled=True,
    )
    sources, audible = source_audibility(scn, scn.path[0])
    assert np.allclose(sources[1], [0.5, 0.5, -1.0])
    assert audible[0].all()  # direct path always heard
    assert audible[1, 0]  # mic near the patch hears the reflection
    assert not audible[1, 1]  # far mic's reflection ray misses the patch
    echoes = generate_echoes(scn, scn.path[0])
    assert len(echoes.d_sets[0]) == 2
    assert len(echoes.d_sets[1]) == 1


def test_unbounded_wall_forces_occlusion_off():
    scn = box_scenario(occlusion_enabled=True)  # walls carry no boundary
    echoes = generate_echoes(scn, scn.path[0])
    assert all(len(s) == 7 for s in echoes.d_sets)


def test_rigid_invariance_of_echoes():
    rng = np.random.default_rng(21)
    scn = box_scenario(noise_sigma=1e-3, seed=3)
    rot = random_rotation(rng)
    moved = rigidly_transformed(scn, rot, rng.uniform(-10, 10, 3))
    for idx in (0, 2, 5):
        a = generate_echoes(scn, scn.path[idx], idx)
        b = generate_echoes(moved, moved.path[idx], idx)
        for sa, sb in zip(a.d_sets, b.d_sets):
            assert len(sa) == len(sb)
            assert np.allclose(sa, sb, atol=1e-9)


def test_noiseless_entries_satisfy_consistency_polynomial():
    scn = box_scenario()
    pose = scn.path[4]
    sources, _ = source_audibility(scn, pose)
    mics = world_microphones(scn, pose)
    c = cm_matrix(pairwise_squared_distances(scn.mic_local))
    for src in sources:
        profile = np.array([np.sum((src - m) ** 2) for m in mics])
        assert abs(cm_polynomial(c, profile)) <= 1e-9 * np.max(profile) ** 3


def test_ambiguity_pair_onboard_equal_sets():
    rz180 = np.diag([-1.0, -1.0, 1.0])
    pose_a = Pose([2.0, 1.5, 1.0], rotation_from_yaw_pitch_roll(0.3, 0.05, -0.1))
    pose_b = Pose([4.0, 3.5, 1.0], rz180 @ pose_a.A)
    scn = box_scenario(
        speaker=[0.08, 0.05, 0.12],
        speaker_on_vehicle=True,
        path=(pose_a, pose_b),
        noise_sigma=5e-3,  # ambiguity_pair must compare noiseless sets
    )
    pa, pb, ea, eb = ambiguity_pair(scn, 0, 1)
    for sa, sb in zip(ea.d_sets, eb.d_sets):
        assert len(sa) == len(sb)
        assert np.max(np.abs(np.array(sa) - np.array(sb))) <= 1e-9


def test_ambiguity_pair_fixed_speaker_differs():
    rz180 = np.diag([-1.0, -1.0, 1.0])
    pose_a = Pose([2.0, 1.5, 1.0], rotation_from_yaw_pitch_roll(0.3, 0.05, -0.1))
    pose_b = Pose([4.0, 3.5, 1.0], rz180 @ pose_a.A)
    scn = box_scenario(path=(pose_a, pose_b))
    _, _, ea, eb = ambiguity_pair(scn, 0, 1)
    assert echo_set_difference(ea, eb) > 0.1


def test_echo_set_difference_of_empty_microphone_sets():
    one_empty = EchoSet(((1.0,), (2.0,), (), (3.0,)))
    assert echo_set_difference(one_empty, one_empty) == 0.0
    two_empty = EchoSet(((1.0,), (), (), (4.0,)))
    assert echo_set_difference(two_empty, two_empty) == 0.0
    assert echo_set_difference(two_empty, EchoSet(((1.0,), (), (), (9.0,)))) == 1.0
    full = EchoSet(((1.0,), (2.0,), (4.0,), (3.0,)))
    assert echo_set_difference(one_empty, full) == np.inf
    assert echo_set_difference(full, one_empty) == np.inf
    assert echo_set_difference(two_empty, one_empty) == np.inf


def test_echo_set_difference_equals_the_per_entry_reference():
    # The per-entry Hausdorff distance, bit for bit; half the sets share a
    # coarse grid of entries, so exact ties and zero gaps occur.
    def reference(a, b):
        worst = 0.0
        for da, db in zip(a.d_sets, b.d_sets):
            if not (da and db):
                if da or db:
                    return math.inf
                continue
            ra, rb = np.sqrt(np.asarray(da)), np.sqrt(np.asarray(db))
            forward = np.max([np.min(np.abs(rb - x)) for x in ra])
            backward = np.max([np.min(np.abs(ra - x)) for x in rb])
            worst = max(worst, forward, backward)
        return float(worst)

    rng = np.random.default_rng(35)
    for trial in range(400):
        grid = trial % 2 == 0

        def draw():
            n = int(rng.integers(0 if trial % 7 == 0 else 1, 9))
            return tuple(rng.integers(1, 12, n) * 0.25 if grid else rng.uniform(0.5, 60.0, n))

        a, b = (EchoSet(tuple(draw() for _ in range(4))) for _ in range(2))
        got, want = echo_set_difference(a, b), reference(a, b)
        assert got == want and type(got) is float


def test_ambiguity_pair_square_room_quarter_turn():
    walls = (
        Wall(Hyperplane([1, 0, 0], 0.0)),
        Wall(Hyperplane([1, 0, 0], 4.0)),
        Wall(Hyperplane([0, 1, 0], 0.0)),
        Wall(Hyperplane([0, 1, 0], 4.0)),
        Wall(Hyperplane([0, 0, 1], 0.0)),
        Wall(Hyperplane([0, 0, 1], 3.0)),
    )
    rz90 = rotation_from_yaw_pitch_roll(np.pi / 2, 0.0, 0.0)
    pose_a = Pose([1.0, 1.5, 1.0], rotation_from_yaw_pitch_roll(0.2, 0.1, 0.0))
    # quarter turn about the square's center axis: (x,y) -> (2-y+2, ...)
    center = np.array([2.0, 2.0, 0.0])
    v_b = rz90 @ (pose_a.v - center) + center
    pose_b = Pose(v_b, rz90 @ pose_a.A)
    scn = Scenario(
        walls=walls,
        speaker=[0.08, 0.05, 0.12],
        speaker_on_vehicle=True,
        mic_local=tetra_mics(),
        path=(pose_a, pose_b),
        occlusion_enabled=False,
    )
    _, _, ea, eb = ambiguity_pair(scn, 0, 1)
    for sa, sb in zip(ea.d_sets, eb.d_sets):
        assert np.max(np.abs(np.array(sa) - np.array(sb))) <= 1e-9


def test_echo_set_merges_exact_duplicates():
    e = EchoSet(((1.0, 1.0, 4.0), (2.0,), (3.0,), (4.0,)))
    assert e.d_sets[0] == (1.0, 4.0)
    a = EchoSet((np.array([4.0, 1.0, 4.0, 2.5]), (np.float64(2.0), 2), [3.0, 1e-3], ()))
    assert a.d_sets == ((1.0, 2.5, 4.0), (2.0,), (1e-3, 3.0), ())
    assert all(type(x) is float for d in a.d_sets for x in d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("where", [0, 1, 3])
def test_echo_set_rejects_nonpositive_and_non_finite_entries(bad, where):
    entries = [2.0, 5.0, 3.0, 4.0]
    entries.insert(where, bad)
    for d_set in (tuple(entries), np.array(entries)):
        with pytest.raises(ValueError, match="^echo entries must be positive and finite$"):
            EchoSet((d_set, (1.0,), (1.0,), (1.0,)))
        with pytest.raises(ValueError, match="^echo entries must be positive and finite$"):
            EchoSet(((1.0,), (1.0,), (1.0,), d_set))


def test_echo_set_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        EchoSet(((0.0, 1.0), (1.0,), (1.0,), (1.0,)))
    with pytest.raises(ValueError):
        EchoSet(((1.0,), (1.0,), (1.0,)))


def test_pose_requires_orthogonal_matrix():
    with pytest.raises(ValueError):
        Pose([0, 0, 0], np.eye(3) + 1e-6)
    for bad in (np.nan, np.inf):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="orientation matrix must be finite"):
            Pose([0, 0, 0], a)
    skew = rotation_from_yaw_pitch_roll(0.3, -0.2, 0.9)
    Pose([1, 2, 3], skew)  # fine


def test_pose_rejects_reflections():
    with pytest.raises(ValueError, match="reflection"):
        Pose([0, 0, 0], np.diag([-1.0, 1.0, 1.0]))
    mirrored = rotation_from_yaw_pitch_roll(0.3, -0.2, 0.9) @ np.diag([1.0, 1.0, -1.0])
    for tol in (1e-9, 0.25):
        with pytest.raises(ValueError, match="reflection"):
            Pose([1, 2, 3], mirrored, ortho_tol=tol)


def test_pose_rejects_a_nan_tolerance():
    for a in (5.0 * np.eye(3), np.eye(3)):
        with pytest.raises(ValueError, match="not orthogonal"):
            Pose([0, 0, 0], a, ortho_tol=float("nan"))


def numpy_pose_verdict(a, tol):
    """Pose's orientation check in NumPy: the reference of its float arithmetic."""
    if not np.isfinite(a).all():
        return "finite"
    if not abs(a.T @ a - np.eye(3)).max() <= tol:
        return "orthogonal"
    if not np.linalg.det(a) > 0.0:
        return "reflection"
    return None


def pose_verdict(a, tol):
    try:
        Pose([0.0, 0.0, 0.0], a, ortho_tol=tol)
    except ValueError as exc:
        return next(w for w in ("finite", "orthogonal", "reflection") if w in str(exc))
    return None


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.25])
def test_pose_check_on_floats_equals_the_numpy_check(tol):
    rng = np.random.default_rng(11)
    mirror = np.diag([1.0, 1.0, -1.0])
    verdicts = []
    for _ in range(400):
        r = random_rotation(rng)
        # Perturbations from a tenth to ten times the tolerance, so the defect
        # falls on both sides of it.
        noise = rng.normal(size=(3, 3)) * tol * 10.0 ** rng.uniform(-1.0, 1.0)
        for a in (r, r + noise, r @ mirror, r @ mirror + noise, -r):
            assert pose_verdict(a, tol) == numpy_pose_verdict(a, tol)
            verdicts.append(numpy_pose_verdict(a, tol))
        for bad in (np.nan, np.inf, -np.inf):
            a = r.copy()
            a[rng.integers(3), rng.integers(3)] = bad
            assert pose_verdict(a, tol) == numpy_pose_verdict(a, tol) == "finite"
    assert {None, "orthogonal", "reflection"} <= set(verdicts)


def test_pose_is_a_frozen_value_with_one_array_of_its_own():
    v, a = np.array([1.0, 2.0, 3.0]), rotation_from_yaw_pitch_roll(0.3, -0.2, 0.9)
    pose = Pose(v, a, ortho_tol=1e-6)
    v[0], a[0, 0] = 9.0, 9.0  # the pose copied its inputs
    assert pose.v.tolist() == [1.0, 2.0, 3.0] and pose.A[0, 0] != 9.0
    assert pose.v.base is pose.A.base  # one (4, 3) array per pose
    with pytest.raises(AttributeError):
        pose.v = np.zeros(3)
    for twin in (copy.copy(pose), copy.deepcopy(pose), pickle.loads(pickle.dumps(pose))):
        assert np.array_equal(twin.v, pose.v) and np.array_equal(twin.A, pose.A)
        assert twin.ortho_tol == 1e-6 and twin.v.base is not pose.v.base


def test_scenario_validation():
    with pytest.raises(ValueError, match="non-coplanar"):
        box_scenario(mic_local=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]]))
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            box_scenario(noise_sigma=sigma)
    mics = tetra_mics()
    mics[3, 0] = np.nan
    with pytest.raises(ValueError, match="mic_local coordinates must be finite"):
        box_scenario(mic_local=mics)
    with pytest.raises(ValueError):
        Scenario(walls=(), speaker=[1, 1, 1])
    with pytest.raises(ValueError, match="3-d"):
        Scenario(
            walls=(Wall(Hyperplane([1, 0], 0.0)),),
            speaker=[1.0, 1.0],
            path=(Pose([0, 0, 0], np.eye(3)),),
            dimension=2,
        )
    with pytest.raises(ValueError, match="offset required"):
        Scenario(walls=box_walls(6, 5, 3), speaker=None, speaker_on_vehicle=True)
    for seed in (1.5, 2.0, "3", None, True, False, np.float64(4.0), np.bool_(True)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            box_scenario(noise_sigma=1e-3).with_overrides(seed=seed)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        box_scenario(seed=-1)
    walls_2d = (Wall(Hyperplane([1, 0], 0.0)), Wall(Hyperplane([0, 1], 0.0)))
    for dim in (2.0, np.float64(2), True, "2", None):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            Scenario(walls=walls_2d, speaker=[1.0, 2.0], dimension=dim)
    with pytest.raises(ValueError, match="dimension must be 2 or 3"):
        Scenario(walls=walls_2d, speaker=[1.0, 2.0], dimension=np.int32(4))
    for dim in (2, np.int64(2), np.uint8(2)):
        scn = Scenario(walls=walls_2d, speaker=[1.0, 2.0], dimension=dim)
        assert type(scn.dimension) is int and scn.dimension == 2
    for seed in (0, 7, np.int64(7), np.uint8(7)):
        scn = box_scenario(noise_sigma=1e-3, seed=seed)
        assert generate_echoes(scn, scn.path[1], 1) == generate_echoes(
            box_scenario(noise_sigma=1e-3, seed=int(seed)), scn.path[1], 1
        )
    # The scalar types load_scenario accepts from a file, and no others.
    for sigma in (True, False, np.bool_(True), "1e-3", None, [1e-3], 1e-3j):
        with pytest.raises(ValueError, match="noise_sigma must be a real number"):
            box_scenario().with_overrides(noise_sigma=sigma)
    for sigma in (0, 1e-3, np.float32(1e-3), np.float64(1e-3), np.int64(0)):
        assert box_scenario(noise_sigma=sigma).noise_sigma == float(sigma)
    for name in ("occlusion_enabled", "speaker_on_vehicle"):
        for flag in ("false", "", None, 0, 1, 1.0, np.int64(0)):
            with pytest.raises(ValueError, match=f"{name} must be a bool"):
                box_scenario().with_overrides(**{name: flag})
    for flag in (False, True, np.bool_(False), np.bool_(True)):
        scn = box_scenario(occlusion_enabled=flag, speaker_on_vehicle=flag)
        assert scn.occlusion_enabled is scn.speaker_on_vehicle is bool(flag)
    # Walls and poses are checked for their type, in with_overrides too.
    walls, path = box_walls(6.0, 5.0, 3.0), demo_path()
    with pytest.raises(ValueError, match=r"walls\[0\] must be a Wall"):
        box_scenario(walls=(walls[0].plane,) + walls[1:])
    with pytest.raises(ValueError, match=r"walls\[2\] must be a Wall"):
        box_scenario().with_overrides(walls=walls[:2] + ((0.0, 0.0, 1.0),))
    with pytest.raises(ValueError, match=r"path\[1\] must be a Pose"):
        box_scenario(path=(path[0], (path[1].v, path[1].A)))
    with pytest.raises(ValueError, match=r"path\[0\] must be a Pose"):
        box_scenario().with_overrides(path=([0.0, 0.0, 1.0],))


def test_two_dimensional_scenario_without_microphones():
    scn = Scenario(
        walls=(Wall(Hyperplane([1, 0], 0.0)), Wall(Hyperplane([0, 1], 0.0))),
        speaker=[6.0, 7.0],
        dimension=2,
    )
    assert scn.mic_local is None
    assert len(scn.walls) == 2


def test_coordinates_reject_bools_strings_and_objects():
    # np.asarray(x, dtype=float) reads True and "1" as 1.0; coordinates may
    # only be numbers, as scenario files already require.
    mics, eye = tetra_mics(), np.eye(3)
    bad_mics = mics.tolist()
    bad_mics[2][1] = "0.5"
    cases = [
        ("point coordinates", lambda: Hyperplane(["1", "0", "0"], 0.0)),
        ("point coordinates", lambda: Hyperplane([True, False, False], 1.0)),
        ("point coordinates", lambda: Hyperplane(np.array([True, False, False]), 1.0)),
        ("point coordinates", lambda: Hyperplane([True, 0.0, 0.0], 1.0)),
        ("point coordinates", lambda: Hyperplane([1.0, None, 0.0], 1.0)),
        ("point coordinates", lambda: Pose(["0", "0", "1"], eye)),
        ("point coordinates", lambda: Pose([0.0, np.bool_(False), 1.0], eye)),
        ("orientation matrix entries", lambda: Pose([0, 0, 1], eye.astype(str))),
        ("orientation matrix entries", lambda: Pose([0, 0, 1], eye.astype(bool))),
        ("orientation matrix entries", lambda: Pose([0, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1j]])),
        ("orientation matrix entries", lambda: Pose([0, 0, 1], [eye[0], eye[1], [0, 0, True]])),
        ("mic_local coordinates", lambda: MicArray(bad_mics)),
        ("mic_local coordinates", lambda: MicArray(mics.astype(object))),
        ("source coordinates", lambda: SourceRegistry().extend([["1", "2", "3"]])),
        ("source coordinates", lambda: SourceRegistry().extend([[1.0, 2.0, True]])),
        ("point coordinates", lambda: Scenario(walls=box_walls(6, 5, 3), speaker=["1", "2", "3"])),
        (
            "wall boundary coordinates",
            lambda: Wall(Hyperplane([0, 0, 1], 0.0), [[0, 0, 0], [1, 0, 0], ["1", "1", "0"]]),
        ),
    ]
    for what, build in cases:
        with pytest.raises(ValueError, match=f"{what} must be numbers"):
            build()
    # Numbers of any real dtype still build, and a float point is not copied.
    point = np.array([0.0, 0.0, 1.0])
    assert geometry.as_point(point) is point
    assert np.array_equal(Hyperplane(np.array([0, 0, 2], dtype=np.int8), 1).normal, [0, 0, 1])
    pose = Pose(np.float32([1, 2, 3]), eye.astype(np.float32).tolist())
    assert pose.v.dtype == pose.A.dtype == np.float64
    assert np.array_equal(MicArray(mics.astype(np.float32)).local, mics.astype(np.float32))
    registry = SourceRegistry()
    registry.extend([[1, 2, 3], np.float32([4, 5, 6])])
    assert np.array_equal(registry.as_array(), [[1, 2, 3], [4, 5, 6]])
    assert np.array_equal(Scenario(walls=box_walls(6, 5, 3), speaker=[1, 2, 3]).speaker, [1, 2, 3])
