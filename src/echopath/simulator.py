"""Deterministic image-source simulator for a four-microphone vehicle.

Each emission of the fixed loudspeaker reaches a microphone directly and,
once per wall, via a first-order reflection. In the ray model the reflected
path has the length of the straight line from the wall's mirror point, so
simulating an emission reduces to distance computations against the set of
sound sources (speaker plus mirror points). Travel-distance noise is drawn
once per emission from a generator keyed by (seed, pose index), which makes
every echo set a pure function of (scenario, pose, pose index).
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field, replace
from functools import cached_property

import numpy as np

from .cayley_menger import MicArray, _mic_array
from .geometry import (
    DegenerateGeometryError,
    Hyperplane,
    Wall,
    _is_real,
    as_point,
    mirror_point,
    plane_basis,
    point_in_polygon,
)

ORTHOGONALITY_TOL = 1e-9
_MIC_SOURCE_EPS = 1e-9


def rotation_from_yaw_pitch_roll(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    ca, sa = np.cos(yaw), np.sin(yaw)
    cb, sb = np.cos(pitch), np.sin(pitch)
    cg, sg = np.cos(roll), np.sin(roll)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


def pose_to_euler(a) -> tuple[float, float, float]:
    """Yaw, pitch and roll of an orientation matrix: rotation_from_yaw_pitch_roll's inverse.

    At the gimbal singularity |a31| = 1 the roll is fixed to zero and the
    returned yaw is one representative of the one-parameter family.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("expected a 3x3 orientation matrix")
    if abs(a[2, 0]) >= 1.0 - 1e-12:
        return float(np.arctan2(-a[0, 1], a[1, 1])), float(-np.sign(a[2, 0]) * np.pi / 2.0), 0.0
    yaw, roll = np.arctan2(a[1, 0], a[0, 0]), np.arctan2(a[2, 1], a[2, 2])
    return float(yaw), float(-np.arcsin(np.clip(a[2, 0], -1.0, 1.0))), float(roll)


class Pose:
    """Vehicle state: center-of-mass position v and orientation matrix A.

    A must be a rotation, and this is the one check of an orientation: finite,
    orthogonal (max |A^T A - I| <= ortho_tol) and proper (det A > 0), so no
    fit of a mirror image passes. Its columns are the vehicle's principal axes
    expressed in the surrounding frame. A pose is a frozen value holding one
    (4, 3) array of its own, A in rows 0-2 and v in row 3, so a run's records
    keep one array per pose; v and A are views of it.
    """

    __slots__ = ("_av", "ortho_tol")

    def __init__(self, v, A, ortho_tol: float = ORTHOGONALITY_TOL):
        v = as_point(v, 3)
        a = np.asarray(A, dtype=float)
        if a.shape != (3, 3):
            raise ValueError(f"orientation matrix must be 3x3, got {a.shape}")
        # On Python floats: NumPy's per-call cost exceeds this 3x3 arithmetic.
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows = a.tolist()
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
            raise ValueError("orientation matrix must be finite")
        # The six distinct entries of A^T A - I, as dot products of A's columns.
        defect = max(
            abs(a0 * a0 + b0 * b0 + c0 * c0 - 1.0),
            abs(a1 * a1 + b1 * b1 + c1 * c1 - 1.0),
            abs(a2 * a2 + b2 * b2 + c2 * c2 - 1.0),
            abs(a0 * a1 + b0 * b1 + c0 * c1),
            abs(a0 * a2 + b0 * b2 + c0 * c2),
            abs(a1 * a2 + b1 * b2 + c1 * c2),
        )
        if not defect <= ortho_tol:  # a NaN tolerance fails too
            raise ValueError(f"orientation matrix is not orthogonal (defect {defect:.2e})")
        # det A, the rows' triple product.
        det = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
        if det <= 0.0:
            raise ValueError(f"orientation matrix is a reflection (det {det:.2e})")
        av = np.empty((4, 3))
        av[:3], av[3] = a, v
        object.__setattr__(self, "_av", av)
        object.__setattr__(self, "ortho_tol", ortho_tol)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Pose, (self.v, self.A, self.ortho_tol)

    def __repr__(self) -> str:
        return f"Pose(v={self.v!r}, A={self.A!r}, ortho_tol={self.ortho_tol!r})"

    @property
    def v(self) -> np.ndarray:
        return self._av[3]

    @property
    def A(self) -> np.ndarray:
        return self._av[:3]


@dataclass(frozen=True)
class EchoSet:
    """Squared travel distances per microphone, exact duplicates merged."""

    d_sets: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.d_sets) != 4:
            raise ValueError("an echo set holds one distance set per microphone (4)")
        cleaned = []
        for entries in self.d_sets:
            vals = sorted(set(np.asarray(entries, dtype=float).tolist()))
            # Without a NaN the list is in order, so its first entry is the least.
            if vals and not (vals[0] > 0.0 and all(map(math.isfinite, vals))):
                raise ValueError("echo entries must be positive and finite")
            cleaned.append(tuple(vals))
        object.__setattr__(self, "d_sets", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.d_sets)


@dataclass(frozen=True, eq=False)
class Scenario:
    """World description driving the simulator.

    speaker holds the world position of the loudspeaker, or, when
    speaker_on_vehicle is set, its fixed offset in the vehicle frame.
    Dimension-2 scenarios carry walls and speaker only (for the symmetry
    demos); microphones and path require dimension 3. mics is the checked
    MicArray of mic_local (None without microphones), built with the
    scenario unless mic_local is one; mic_local is its read-only local.
    """

    walls: tuple[Wall, ...]
    speaker: np.ndarray | None = None
    mic_local: np.ndarray | MicArray | None = None
    path: tuple[Pose, ...] = ()
    noise_sigma: float = 0.0
    seed: int = 0
    occlusion_enabled: bool = True
    speaker_on_vehicle: bool = False
    dimension: int = 3
    mics: MicArray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        for name in ("occlusion_enabled", "speaker_on_vehicle"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        walls = tuple(self.walls)
        if not walls:
            raise ValueError("scenario needs at least one wall")
        for i, w in enumerate(walls):
            if w.plane.dim != self.dimension:
                raise ValueError(f"walls[{i}] does not match scenario dimension")
        object.__setattr__(self, "walls", walls)
        if self.speaker_on_vehicle and self.dimension != 3:
            raise ValueError("speaker_on_vehicle requires a 3-d scenario")
        if self.speaker is not None:
            object.__setattr__(self, "speaker", as_point(self.speaker, self.dimension))
        elif self.speaker_on_vehicle:
            raise ValueError("speaker offset required when speaker_on_vehicle is set")
        mics = None
        if self.mic_local is not None:
            if self.dimension != 3:
                raise ValueError("microphones require a 3-d scenario")
            mics = _mic_array(self.mic_local)
            object.__setattr__(self, "mic_local", mics.local)
        object.__setattr__(self, "mics", mics)
        path = tuple(self.path)
        if path and self.dimension != 3:
            raise ValueError("a pose path requires a 3-d scenario")
        object.__setattr__(self, "path", path)
        if not _is_real(self.noise_sigma):
            raise ValueError(f"noise_sigma must be a real number, got {self.noise_sigma!r}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError("noise_sigma must be nonnegative and finite")
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def with_overrides(self, **kwargs) -> "Scenario":
        """A copy with kwargs replaced; it shares this MicArray unless mic_local is one."""
        return replace(self, **{"mic_local": self.mics, **kwargs})

    @cached_property
    def _fixed_image_sources(self) -> np.ndarray:
        """image_sources of the fixed speaker, read-only, computed on first use."""
        sources = image_sources(self.walls, speaker_position(self, None))
        sources.flags.writeable = False
        return sources


def world_microphones(s: Scenario, p: Pose) -> np.ndarray:
    """Microphone positions A @ m_k + v for the given pose, one row each."""
    if s.mic_local is None:
        raise ValueError("scenario has no microphones")
    return s.mic_local @ p.A.T + p.v


def speaker_position(s: Scenario, p: Pose) -> np.ndarray:
    """World position of the loudspeaker for this emission."""
    if s.speaker is None:
        raise ValueError("scenario has no speaker")
    if s.speaker_on_vehicle:
        return p.A @ s.speaker + p.v
    return s.speaker


def image_sources(walls, speaker) -> np.ndarray:
    """The speaker and one mirror point per wall, one row each."""
    spk = as_point(speaker)
    return np.stack([spk] + [mirror_point(w, spk) for w in walls])


def _emission_sources(s: Scenario, p: Pose) -> np.ndarray:
    """image_sources of the emission at pose p; a fixed speaker's are the scenario's own."""
    if s.speaker_on_vehicle:
        return image_sources(s.walls, speaker_position(s, p))
    return s._fixed_image_sources


def _reflection_audible(wall: Wall, mic: np.ndarray, mirror: np.ndarray) -> bool:
    # The echo exists when the segment microphone -> mirror point crosses the
    # wall's polygon (the actual reflection point lies on the finite wall).
    d_mic = wall.plane.signed_distance(mic)
    d_mirror = wall.plane.signed_distance(mirror)
    if d_mic * d_mirror >= 0.0:
        return False  # segment does not cross the plane
    t = d_mic / (d_mic - d_mirror)
    hit = mic + t * (mirror - mic)
    basis = plane_basis(wall.plane.normal)
    return point_in_polygon(basis @ hit, wall.boundary @ basis.T)


def _emission(s: Scenario, p: Pose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources, world microphones and audibility of the emission at pose p."""
    if s.mic_local is None:
        raise ValueError("scenario has no microphones")
    sources = _emission_sources(s, p)
    mics = world_microphones(s, p)
    audible = np.ones((len(sources), 4), dtype=bool)
    if s.occlusion_enabled:
        for wi, wall in enumerate(s.walls):
            if not wall.bounded:
                continue  # unbounded plane: occlusion test forced off
            for k in range(4):
                audible[1 + wi, k] = _reflection_audible(wall, mics[k], sources[1 + wi])
    return sources, mics, audible


def source_audibility(s: Scenario, p: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Sound sources for the emission and their per-microphone audibility.

    Returns (sources, audible) where sources has one row per source (speaker
    first, then one mirror point per wall in wall order) and audible is a
    boolean (n_sources, 4) matrix. The direct path is always audible;
    reflections are subject to the occlusion test when the wall is bounded
    and occlusion is enabled.
    """
    sources, _, audible = _emission(s, p)
    return sources, audible


def ground_truth_sources(s: Scenario, p: Pose) -> list[np.ndarray]:
    """Speaker position plus mirror points heard by at least one microphone.

    With occlusion disabled (or all walls unbounded) this is simply the
    speaker and every mirror point.
    """
    if s.mic_local is None or not s.occlusion_enabled or not any(w.bounded for w in s.walls):
        return list(_emission_sources(s, p))
    sources, audible = source_audibility(s, p)
    return [sources[i] for i in range(len(sources)) if audible[i].any()]


def generate_echoes(s: Scenario, p: Pose, pose_index: int = 0) -> EchoSet:
    """Squared travel distances seen by each microphone for one emission.

    Only first-order reflections are modelled. Travel distances get Gaussian
    noise of std noise_sigma before squaring: one standard-normal draw per
    (source, microphone) pair from a generator keyed by (seed, pose index),
    made before the audibility mask, so no echo's noise depends on another's.
    """
    sources, mics, audible = _emission(s, p)
    d = sources[:, None, :] - mics[None, :, :]
    dists = np.sqrt(np.add.reduce(d * d, axis=2))  # np.linalg.norm's formula, unwrapped
    if dists.min() < _MIC_SOURCE_EPS:
        raise DegenerateGeometryError("a microphone coincides with a sound source")
    if s.noise_sigma > 0.0:
        z = np.random.default_rng((s.seed, pose_index)).standard_normal(dists.shape)
        dists = dists + z * s.noise_sigma
    squared = dists * dists
    if audible.all():  # no boolean gather per microphone
        return EchoSet(tuple(squared.T))
    return EchoSet(tuple(squared[audible[:, k], k] for k in range(4)))


def ambiguity_pair(
    s: Scenario, pose_a: int = 0, pose_b: int = 1
) -> tuple[Pose, Pose, EchoSet, EchoSet]:
    """Two path poses and their noiseless echo sets, for symmetry demos.

    With the speaker mounted on the vehicle and a pose pair related by a
    symmetry of the walls, the two echo sets coincide and the poses cannot be
    told apart; with a fixed generic speaker they differ.
    """
    if not (0 <= pose_a < len(s.path) and 0 <= pose_b < len(s.path)):
        raise ValueError("pose indices out of range")
    noiseless = s.with_overrides(noise_sigma=0.0)
    pa, pb = s.path[pose_a], s.path[pose_b]
    return pa, pb, generate_echoes(noiseless, pa, pose_a), generate_echoes(noiseless, pb, pose_b)


def echo_set_difference(a: EchoSet, b: EchoSet) -> float:
    """Largest per-microphone Hausdorff distance between travel distances (m).

    Two empty sets are 0 apart; an empty and a nonempty set are inf apart.
    """
    worst = 0.0
    for da, db in zip(a.d_sets, b.d_sets):
        if not (da and db):
            if da or db:
                return math.inf
            continue
        ra = np.sqrt(np.asarray(da))
        rb = np.sqrt(np.asarray(db))
        forward = np.max([np.min(np.abs(rb - x)) for x in ra])
        backward = np.max([np.min(np.abs(ra - x)) for x in rb])
        worst = max(worst, forward, backward)
    return float(worst)


def rigidly_transformed(s: Scenario, rotation: np.ndarray, translation) -> Scenario:
    """The same scenario expressed after a global rigid motion.

    Walls, speaker and path move together, so all echo sets are preserved.
    """
    r = np.asarray(rotation, dtype=float)
    t = as_point(translation, s.dimension)
    walls = []
    for w in s.walls:
        normal = r @ w.plane.normal
        offset = w.plane.offset + float(normal @ t)
        boundary = None if w.boundary is None else w.boundary @ r.T + t
        walls.append(Wall(Hyperplane(normal, offset), boundary))
    speaker = s.speaker
    if speaker is not None and not s.speaker_on_vehicle:
        speaker = r @ speaker + t
    path = tuple(Pose(r @ p.v + t, r @ p.A) for p in s.path)
    return s.with_overrides(walls=tuple(walls), speaker=speaker, path=path)
