"""Boson sampling with Fock and squeezed-vacuum inputs, verified two ways.

The package pairs a permanent-based sampler for linear-optical networks with
a brute-force truncated Fock oracle for photon-added and photon-subtracted
squeezed-vacuum (PASSV) inputs measured in per-mode photon parity, plus a
harness that checks the two produce the same collision-free statistics
independent of the squeezing strength.
"""

from .configurations import (
    ModeConfiguration,
    ParityPattern,
    collision_free_configurations,
    configuration_count,
    enumerate_configurations,
    parity_pattern_of,
)
from .distributions import OutputDistribution, draw_samples, total_variation_distance
from .errors import SizeLimitError, ValidationError
from .evolution import (
    Squeezing,
    TruncatedFockState,
    apply_beamsplitter,
    apply_network,
    build_passv_input,
    build_squeezed_product,
    mode_ladder,
    number_distribution,
    parity_distribution,
    required_cutoff,
    squeezed_vacuum_vector,
    state_overlap,
)
from .experiments import (
    EquivalenceReport,
    brute_force_parity,
    predicted_parity_distribution,
    run_equivalence_experiment,
    squeezed_invariance_check,
)
from .networks import (
    LinearNetwork,
    ORTHOGONAL,
    ReckDecomposition,
    TwoModeElement,
    UNITARY,
    embed_unitary_as_orthogonal,
    haar_special_orthogonal,
    haar_unitary,
    reck_decompose,
    reconstruct,
    scattering_submatrix,
)
from .permanents import permanent_naive, permanent_ryser
from .sampling import output_distribution, transition_amplitude, uniform_input

__version__ = "0.1.0"

__all__ = [
    "EquivalenceReport",
    "LinearNetwork",
    "ModeConfiguration",
    "ORTHOGONAL",
    "OutputDistribution",
    "ParityPattern",
    "ReckDecomposition",
    "SizeLimitError",
    "Squeezing",
    "TruncatedFockState",
    "TwoModeElement",
    "UNITARY",
    "ValidationError",
    "apply_beamsplitter",
    "apply_network",
    "build_passv_input",
    "brute_force_parity",
    "build_squeezed_product",
    "collision_free_configurations",
    "configuration_count",
    "draw_samples",
    "embed_unitary_as_orthogonal",
    "enumerate_configurations",
    "haar_special_orthogonal",
    "haar_unitary",
    "mode_ladder",
    "number_distribution",
    "output_distribution",
    "parity_distribution",
    "parity_pattern_of",
    "permanent_naive",
    "permanent_ryser",
    "predicted_parity_distribution",
    "reck_decompose",
    "reconstruct",
    "required_cutoff",
    "run_equivalence_experiment",
    "scattering_submatrix",
    "squeezed_invariance_check",
    "squeezed_vacuum_vector",
    "state_overlap",
    "total_variation_distance",
    "transition_amplitude",
    "uniform_input",
]
