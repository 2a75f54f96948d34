"""Permanent-based Fock sampling through a linear network.

The amplitude for input configuration T and output configuration S is
Per(M[S, T]) / sqrt(prod(t_i!) * prod(s_i!)), with the scattering submatrix
built by repeating rows per output occupation and columns per input
occupation.

Every amplitude goes through one private helper, ``_outcome_permanents``: it
checks the input and the outcomes, applies the photon guard, hands the whole
(K, m) outcome array to ``permanent_table`` (one Glynn pass over the input
columns, vectorized across outcomes) and returns the factorial weights.
``outcome_probabilities`` builds tables from it; ``transition_amplitude`` is
its one-outcome case. ``output_distribution`` and the parity predictions in
``experiments`` pass its outcome array on as their table's rows, so no key
object is made unless a caller reads keys.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import (
    ModeConfiguration,
    _as_configuration,
    configuration_array,
    configuration_count,
)
from .distributions import OutputDistribution, check_table_size
from .errors import SizeLimitError, ValidationError
from .networks import LinearNetwork
from .permanents import permanent_table

AMPLITUDE_PHOTON_LIMIT = 20


def transition_amplitude(network: LinearNetwork, input_config, output_config) -> complex:
    """Single transition amplitude <S| U |T>. Photon totals must match."""
    per, weights = _outcome_permanents(network, input_config, [output_config])
    return complex(per[0]) / math.sqrt(weights[0])


def outcome_probabilities(network: LinearNetwork, input_config, outcomes) -> np.ndarray:
    """|Per(M[S, T])|^2 / (prod(t_i!) * prod(s_i!)) for each outcome S, in order.

    ``outcomes`` is a (K, m) integer occupation array, such as
    ``configuration_array`` builds, or a sequence of configurations. All
    permanents come from one ``permanent_table`` call over the input columns
    of T. Every outcome must cover the network's modes and carry the input's
    photon total.
    """
    per, weights = _outcome_permanents(network, input_config, outcomes)
    return (per.real ** 2 + per.imag ** 2) / weights


def _outcome_permanents(network: LinearNetwork, input_config, outcomes):
    """Per(M[S, T]) and prod(t_i!) * prod(s_i!) for each outcome S, checked."""
    t = _as_configuration(input_config)
    m = network.dimension
    n = t.total
    if t.modes != m:
        raise ValidationError(f"input over {t.modes} modes does not match m={m}")
    if n > AMPLITUDE_PHOTON_LIMIT:
        raise SizeLimitError(
            f"transition amplitudes are limited to {AMPLITUDE_PHOTON_LIMIT} photons"
        )
    occupations = outcomes
    if not isinstance(occupations, np.ndarray):
        occupations = [_as_configuration(s).occupations for s in outcomes]
        if any(len(occ) != m for occ in occupations):
            raise ValidationError(f"outcomes must be configurations over m={m} modes")
        occupations = np.array(occupations, dtype=np.intp).reshape(len(occupations), m)
    if occupations.ndim != 2 or occupations.shape[1] != m:
        raise ValidationError(f"outcomes must be configurations over m={m} modes")
    if not np.issubdtype(occupations.dtype, np.integer) or (
            occupations.size and occupations.min() < 0):
        raise ValidationError("outcome occupations must be non-negative integers")
    k = len(occupations)
    if np.any(occupations.sum(axis=1) != n):
        raise ValidationError(f"outcomes must carry the input's {n} photons")
    rows = np.repeat(np.tile(np.arange(m), k), occupations.ravel()).reshape(k, n)
    columns = network.entries[:, np.repeat(np.arange(m), t.occupations)]
    factorials = np.array([math.factorial(j) for j in range(n + 1)], dtype=np.float64)
    weights = factorials[occupations].prod(axis=1) * factorials[list(t.occupations)].prod()
    return permanent_table(columns, rows), weights


def output_distribution(network: LinearNetwork, input_config) -> OutputDistribution:
    """Exact output distribution over every configuration of the photon total.

    Entries are listed in canonical enumeration order, the rows of
    ``configuration_array``, with zeros retained; the normalization defect is
    measured, not assumed. The table is array-backed: it keeps the outcome
    array and makes ModeConfiguration keys only if a caller asks for them.
    ``check_table_size`` counts it before the outcome array is made.
    """
    t = _as_configuration(input_config)
    m = network.dimension
    if t.modes != m:
        raise ValidationError(f"input over {t.modes} modes does not match m={m}")
    n = t.total
    check_table_size(configuration_count(n, m), m)
    outcomes = configuration_array(n, m)
    probs = outcome_probabilities(network, t, outcomes)
    return OutputDistribution._of_distinct_rows(outcomes, probs)


def uniform_input(total_photons: int, modes: int) -> ModeConfiguration:
    """The standard input: one photon in each of the first n modes."""
    if total_photons > modes:
        raise ValidationError(
            f"single-photon input needs n <= m, got n={total_photons}, m={modes}"
        )
    if modes < 1 or total_photons < 0:
        raise ValidationError("mode and photon counts must be positive")
    return ModeConfiguration((1,) * total_photons + (0,) * (modes - total_photons))
