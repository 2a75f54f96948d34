"""Boson sampling with Fock and squeezed-vacuum inputs, verified two ways.

The package pairs a permanent-based sampler for linear-optical networks with
a brute-force truncated Fock oracle for photon-added and photon-subtracted
squeezed-vacuum (PASSV) inputs measured in per-mode photon parity, plus a
harness that checks the two produce the same collision-free statistics
independent of the squeezing strength. The names imported below are the
package's public interface.
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
