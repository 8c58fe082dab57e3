"""The microphone array value: one check and one Cayley-Menger matrix per scenario."""

import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from conftest import box_scenario, tetra_mics

import echopath
import echopath.cayley_menger as cayley_menger
import echopath.reconstruction as reconstruction
from echopath import (
    DegenerateGeometryError,
    MicArray,
    Scenario,
    SourceRegistry,
    detected_distance_matrix,
    echo_match,
    generate_echoes,
    ground_truth_sources,
    locate_step,
    pairwise_squared_distances,
    recover_point,
    run,
    self_locate,
    world_microphones,
)
from echopath.cayley_menger import cm_matrix

MICS = tetra_mics()


def _with_entry(value):
    mics = MICS.copy()
    mics[1, 2] = value
    return mics


BAD_MICS = {
    "nan": (_with_entry(np.nan), ValueError, "mic_local coordinates must be finite"),
    "inf": (_with_entry(np.inf), ValueError, "mic_local coordinates must be finite"),
    "five": (
        np.vstack([MICS, [[0.1, 0.2, 0.3]]]),
        ValueError,
        re.escape("mic_local must be 4 points in 3-d, got shape (5, 3)"),
    ),
    "flat": (
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
        DegenerateGeometryError,
        "mic_local must be non-coplanar",
    ),
}


def _box_step():
    """Echoes of the box scenario's first pose, and a valid self_locate input."""
    scn = box_scenario()
    pose = scn.path[0]
    echoes = generate_echoes(scn, pose, 0)
    refs = np.stack(ground_truth_sources(scn, pose))[[0, 2, 4, 6]]
    delta = pairwise_squared_distances(np.vstack([world_microphones(scn, pose), refs]))[:4, 4:]
    return echoes, refs, delta


CALLS = {
    "MicArray": lambda mics: MicArray(mics),
    "locate_step": lambda mics: locate_step(SourceRegistry(), mics, _box_step()[0]),
    "echo_match": lambda mics: echo_match(mics, _box_step()[0]),
    "detected_distance_matrix": lambda mics: detected_distance_matrix(
        mics, echo_match(MICS, _box_step()[0])
    ),
    "self_locate": lambda mics: self_locate(mics, *_box_step()[1:]),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("bad", BAD_MICS.values(), ids=BAD_MICS.keys())
def test_bad_microphone_array_is_rejected(call, bad):
    mics, error, message = bad
    with pytest.raises(error, match=message):
        call(mics)


@pytest.mark.parametrize("call", ["echo_match", "locate_step"])
@pytest.mark.parametrize("sigma", [np.nan, -1e-3, np.inf])
def test_bad_noise_level_is_rejected(call, sigma):
    scn = box_scenario(noise_sigma=1e-3, seed=9)
    echoes = generate_echoes(scn, scn.path[0], 0)
    registry = SourceRegistry()
    assert locate_step(registry, scn.mic_local, echoes, scn.noise_sigma).status == "success"
    n_known = len(registry)
    with pytest.raises(ValueError, match="noise_sigma must be nonnegative and finite"):
        if call == "echo_match":
            echo_match(scn.mic_local, echoes, noise_sigma=sigma)
        else:
            locate_step(registry, scn.mic_local, echoes, sigma)
    assert len(registry) == n_known


def test_mic_array_holds_read_only_copies():
    source = MICS.copy()
    mics = MicArray(source)
    source[0, 0] += 1.0
    assert np.array_equal(mics.local, MICS)
    assert np.array_equal(mics.c, cm_matrix(pairwise_squared_distances(MICS)))
    assert np.array_equal(mics.c_inv, np.linalg.inv(mics.c))
    assert mics.abs_det_c == abs(np.linalg.det(mics.c))
    assert np.linalg.det(mics.c) > 0  # 288 V^2: the echo test takes |det C| for det C
    for array in (mics.local, mics.c, mics.c_inv):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_echo_match_solves_nothing_and_reads_the_arrays_inverse(monkeypatch):
    calls = []
    real = cayley_menger._cm_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cayley_menger, "_cm_solve", counted)
    scn = box_scenario(noise_sigma=1e-3, seed=9)
    echoes = generate_echoes(scn, scn.path[0], 0)
    assert echo_match(MicArray(scn.mic_local), echoes, noise_sigma=1e-3).n_sources > 0
    assert len(calls) == 0


def test_positions_equal_multilateration_from_the_microphones():
    rng = np.random.default_rng(12)
    mics = MicArray(MICS)
    points = rng.uniform(-4.0, 4.0, (30, 3))
    delta = pairwise_squared_distances(np.vstack([MICS, points]))[:4, 4:]
    placed = mics.positions(delta)
    assert placed.shape == (30, 3)
    assert np.max(np.abs(placed - recover_point(MICS, delta).T)) <= 1e-12
    assert np.max(np.abs(placed - points)) <= 1e-12
    assert mics.positions(np.zeros((4, 0))).shape == (0, 3)


def test_located_step_solves_once_and_multilaterates_nothing(monkeypatch):
    scn = box_scenario()
    mics = MicArray(scn.mic_local)
    registry = SourceRegistry()
    assert locate_step(registry, mics, generate_echoes(scn, scn.path[0], 0)).status == "success"
    solves, linalg_solves, recovered = [], [], []

    def counting(calls, real):
        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(cayley_menger, "_cm_solve", counting(solves, cayley_menger._cm_solve))
    monkeypatch.setattr(np.linalg, "solve", counting(linalg_solves, np.linalg.solve))
    monkeypatch.setattr(
        cayley_menger, "recover_point", counting(recovered, cayley_menger.recover_point)
    )
    result = locate_step(registry, mics, generate_echoes(scn, scn.path[1], 1))
    assert result.status == "success" and result.pose is not None
    assert len(solves) == 0  # the search reads the placed points
    assert len(linalg_solves) == 1  # self_locate's affine fit
    assert not recovered and not hasattr(reconstruction, "recover_point")


def test_run_checks_the_microphones_once_and_steps_match_raw_coordinates(monkeypatch):
    calls = []
    real = cayley_menger.affine_dimension

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cayley_menger, "affine_dimension", counted)
    run(box_scenario())
    assert len(calls) == 1

    scn = box_scenario(noise_sigma=1e-3, seed=9)
    mics = MicArray(scn.mic_local)
    by_value, by_coords = SourceRegistry(), SourceRegistry()
    for idx, pose in enumerate(scn.path):
        echoes = generate_echoes(scn, pose, idx)
        got = locate_step(by_value, mics, echoes, scn.noise_sigma)
        want = locate_step(by_coords, scn.mic_local, echoes, scn.noise_sigma)
        assert (got.status, got.fail_reason) == (want.status, want.fail_reason)
        assert (got.pose is None) == (want.pose is None)
        if want.pose is not None:
            assert np.array_equal(got.pose.v, want.pose.v)
            assert np.array_equal(got.pose.A, want.pose.A)
    assert len(by_value) == len(by_coords) > 0
    assert all(np.array_equal(a, b) for a, b in zip(by_value.sources, by_coords.sources))


def test_scenario_owns_one_checked_mic_array():
    scn = box_scenario()
    assert isinstance(scn.mics, MicArray)
    assert scn.mics.local is scn.mic_local
    assert np.array_equal(scn.mic_local, MICS)
    with pytest.raises(ValueError):
        scn.mic_local[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        scn.mics = MicArray(MICS)
    with pytest.raises(TypeError):
        Scenario(walls=scn.walls, mic_local=MICS, mics=scn.mics)
    assert box_scenario(mic_local=None, path=()).mics is None


def test_with_overrides_shares_the_mic_array_unless_mic_local_changes():
    scn = box_scenario()
    noisy = scn.with_overrides(noise_sigma=1e-3)
    assert noisy.mics is scn.mics and noisy.mic_local is scn.mic_local
    assert noisy.noise_sigma == 1e-3
    assert box_scenario(mic_local=None, path=()).with_overrides(seed=1).mics is None
    wider = scn.with_overrides(mic_local=2.0 * MICS)
    assert wider.mics.local is wider.mic_local
    assert np.array_equal(wider.mics.local, 2.0 * MICS)
    assert np.array_equal(wider.mics.c, cm_matrix(pairwise_squared_distances(2.0 * MICS)))


def test_run_hands_the_scenarios_mic_array_to_every_step(monkeypatch):
    scn = box_scenario()
    seen = []
    real = echopath.run.__globals__["locate_step"]

    def recording(state, mic_local, *args, **kwargs):
        seen.append(mic_local)
        return real(state, mic_local, *args, **kwargs)

    monkeypatch.setitem(echopath.run.__globals__, "locate_step", recording)
    run(scn)
    assert len(seen) == len(scn.path) > 1
    assert all(mics is scn.mics for mics in seen)
