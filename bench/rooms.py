"""Seeded scenario generator for the benchmark workloads.

A workload is a list of episodes, one per room. A room is a random convex
polyhedron (a randomly rotated, perturbed box plus extra random walls) with
a fixed loudspeaker resampled until `genericity_check` passes. An episode
adds a regular tetrahedron of microphones, a random-walk path that keeps a
margin from every wall and from the speaker, and a noise seed.

The rooms are part of a workload's definition: they come from ROOM_SEED, so
every run covers the same mix of easy and failing rooms and no metric hinges
on which rooms one seed happened to draw. The `seed` argument draws the
paths and the noise. The program under test receives only the `Scenario`
objects built here; the same (workload, seed) always gives the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from echopath import (
    Arrangement,
    Hyperplane,
    Pose,
    Scenario,
    Wall,
    genericity_check,
    rotation_from_yaw_pitch_roll,
)

ROOM_SEED = 0
# Walls lie WALL_NEAR to WALL_FAR metres from the room centre and the vehicle
# centre stays within PATH_RADIUS of it. A microphone sits at most 0.43 m
# (MIC_EDGE * sqrt(6) / 4) from the vehicle centre, so it keeps at least
# 0.3 m from every wall and SPEAKER_CLEARANCE - 0.43 m from the speaker.
WALL_NEAR = 1.2
WALL_FAR = 2.4
PATH_RADIUS = 0.45
PATH_STEP = 0.2
SPEAKER_RADIUS = 1.05
SPEAKER_CLEARANCE = 0.6
MIC_EDGE = 0.7
# A workload's large rooms are its first rooms again with every wall
# LARGE_SCALE times as far from the centre. Under noise the detected
# distances there stop matching the registry, so searches fail outright
# (no_match) and leave the registry small. Later draws of the same stream
# hold failing emissions of one to two seconds, so workloads take only the
# first few.
LARGE_SCALE = 1.25


@dataclass(frozen=True)
class Workload:
    """Shape of one workload: `rooms` episodes, then `large_rooms` episodes
    in large rooms, of `steps` emissions each."""

    n_walls: int
    sigma: float
    rooms: int
    steps: int
    large_rooms: int = 0


def tetra_mics() -> np.ndarray:
    """Regular tetrahedron of edge MIC_EDGE centred on the vehicle origin."""
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    return verts * MIC_EDGE / (2.0 * np.sqrt(2.0))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def room_walls(
    rng: np.random.Generator, n_walls: int, center: np.ndarray, scale: float = 1.0
) -> tuple:
    """Walls of a bounded convex room around center, scale * WALL_NEAR to
    scale * WALL_FAR from it.

    The first six normals are a perturbed, rotated box, which keeps the room
    bounded; the others are uniform on the sphere.
    """
    if n_walls < 6:
        raise ValueError("a room needs at least six walls")
    box = np.vstack([np.eye(3), -np.eye(3)]) + 0.25 * rng.standard_normal((6, 3))
    extra = rng.standard_normal((n_walls - 6, 3))
    normals = _unit(np.vstack([box, extra])) @ _random_rotation(rng).T
    offsets = normals @ center + scale * rng.uniform(WALL_NEAR, WALL_FAR, n_walls)
    return tuple(Wall(Hyperplane(n, o)) for n, o in zip(normals, offsets))


def generic_speaker(rng: np.random.Generator, walls: tuple, center: np.ndarray) -> np.ndarray:
    """Speaker at SPEAKER_RADIUS from center, resampled until it is generic."""
    arrangement = Arrangement(tuple(w.plane for w in walls), 3)
    while True:
        spk = center + SPEAKER_RADIUS * _unit(rng.standard_normal(3))
        if genericity_check(arrangement, spk).passed:
            return spk


def random_path(
    rng: np.random.Generator, center: np.ndarray, speaker: np.ndarray, steps: int
) -> tuple:
    """Random walk of poses within PATH_RADIUS of center, clear of the speaker."""

    def allowed(p: np.ndarray) -> bool:
        return (
            np.linalg.norm(p - center) <= PATH_RADIUS
            and np.linalg.norm(p - speaker) >= SPEAKER_CLEARANCE
        )

    pos = center + PATH_RADIUS * rng.uniform(-1.0, 1.0, 3)
    while not allowed(pos):
        pos = center + PATH_RADIUS * rng.uniform(-1.0, 1.0, 3)
    ypr = rng.uniform([-np.pi, -0.5, -np.pi], [np.pi, 0.5, np.pi])
    poses = []
    for _ in range(steps):
        poses.append(Pose(pos, rotation_from_yaw_pitch_roll(*ypr)))
        cand = pos + PATH_STEP * _unit(rng.standard_normal(3))
        while not allowed(cand):
            cand = pos + PATH_STEP * _unit(rng.standard_normal(3))
        pos = cand
        ypr = ypr + rng.normal(0.0, [0.4, 0.1, 0.2])
        ypr[1] = np.clip(ypr[1], -1.2, 1.2)
    return tuple(poses)


def fixed_rooms(n_walls: int, count: int, scale: float) -> list[tuple]:
    """The first `count` rooms of the ROOM_SEED stream: (walls, speaker, centre)."""
    room_rng = np.random.default_rng([ROOM_SEED, n_walls])
    drawn = []
    for _ in range(count):
        center = room_rng.uniform(3.0, 5.0, 3)
        walls = room_walls(room_rng, n_walls, center, scale)
        drawn.append((walls, generic_speaker(room_rng, walls, center), center))
    return drawn


def episodes(workload: Workload, drawn: list[tuple], rng: np.random.Generator) -> list[Scenario]:
    """One episode per drawn room, its path and noise seed taken from rng."""
    return [
        Scenario(
            walls=walls,
            speaker=speaker,
            mic_local=tetra_mics(),
            path=random_path(rng, center, speaker, workload.steps),
            noise_sigma=workload.sigma,
            seed=int(rng.integers(2**31)),
            occlusion_enabled=False,
        )
        for walls, speaker, center in drawn
    ]


def make_scenarios(workload: Workload, seed: int) -> list[Scenario]:
    """The workload's episodes for one seed, in a fixed order.

    Episodes in large rooms are fixed like the rooms: their paths and noise
    come from ROOM_SEED, because the cost of their failing searches depends
    on the path and would otherwise set most of the spread between seeds.
    """
    n, steps = workload.n_walls, workload.steps
    small = fixed_rooms(n, workload.rooms, 1.0)
    large = fixed_rooms(n, workload.large_rooms, LARGE_SCALE)
    return episodes(workload, small, np.random.default_rng([seed, n, steps])) + episodes(
        workload, large, np.random.default_rng([ROOM_SEED, n, steps, 1])
    )
