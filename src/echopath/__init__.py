"""Acoustic path reconstruction with a fixed loudspeaker and four microphones.

The package combines an image-source echo simulator, the Cayley-Menger
distance algebra used to sort echoes and locate the vehicle, genericity
tests for symmetry-breaking speaker placement, and a scenario-driven CLI.
"""

from .cayley_menger import (
    bordered_rank,
    cm_matrix,
    cm_polynomial,
    mutual_distances,
    recover_point,
)
from .cli import Metrics, RunRecord, ScenarioError, export, load_scenario, run
from .geometry import (
    DegenerateGeometryError,
    Hyperplane,
    Wall,
    affine_dimension,
    linearly_independent_hyperplanes,
    mirror_point,
    pairwise_squared_distances,
    reflect_point,
)
from .reconstruction import (
    EchoAssignment,
    LocateResult,
    MatchStats,
    MicArray,
    PoseInconsistencyError,
    SourceRegistry,
    detected_distance_matrix,
    echo_match,
    locate_step,
    match_submatrices,
    pose_to_euler,
    self_locate,
    update_sources,
)
from .simulator import (
    EchoSet,
    Pose,
    Scenario,
    ambiguity_pair,
    echo_set_difference,
    generate_echoes,
    ground_truth_sources,
    rotation_from_yaw_pitch_roll,
    world_microphones,
)
from .symmetry import (
    Arrangement,
    ConcurrentLinesError,
    GenericityReport,
    dihedral_counterexample,
    distance_automorphisms,
    eval_g,
    eval_h,
    genericity_check,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "ConcurrentLinesError",
    "DegenerateGeometryError",
    "EchoAssignment",
    "EchoSet",
    "GenericityReport",
    "Hyperplane",
    "LocateResult",
    "MatchStats",
    "Metrics",
    "MicArray",
    "Pose",
    "PoseInconsistencyError",
    "RunRecord",
    "Scenario",
    "ScenarioError",
    "SourceRegistry",
    "Wall",
    "affine_dimension",
    "ambiguity_pair",
    "bordered_rank",
    "cm_matrix",
    "cm_polynomial",
    "detected_distance_matrix",
    "dihedral_counterexample",
    "distance_automorphisms",
    "echo_match",
    "echo_set_difference",
    "eval_g",
    "eval_h",
    "export",
    "generate_echoes",
    "genericity_check",
    "ground_truth_sources",
    "linearly_independent_hyperplanes",
    "load_scenario",
    "locate_step",
    "match_submatrices",
    "mirror_point",
    "mutual_distances",
    "pairwise_squared_distances",
    "pose_to_euler",
    "recover_point",
    "reflect_point",
    "rotation_from_yaw_pitch_roll",
    "run",
    "self_locate",
    "update_sources",
    "world_microphones",
]
