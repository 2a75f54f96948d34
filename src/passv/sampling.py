"""Permanent-based Fock sampling through a linear network.

The amplitude for input configuration T and output configuration S is
Per(M[S, T]) / sqrt(prod(t_i!) * prod(s_i!)), with the scattering submatrix
built by repeating rows per output occupation and columns per input
occupation.

Tables are built in one batch: every outcome shares the input columns, so
``outcome_probabilities`` hands the whole (K, m) outcome array to
``permanent_table`` (one Gray-code Ryser pass, vectorized across outcomes).
``output_distribution`` and the parity predictions in ``experiments`` both
go through it. ``transition_amplitude`` evaluates a single amplitude with
``permanent_ryser``.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import (
    ModeConfiguration,
    _as_configuration,
    configuration_array,
    configuration_count,
    configurations_from_array,
)
from .distributions import OutputDistribution
from .errors import SizeLimitError, ValidationError
from .networks import LinearNetwork, scattering_submatrix
from .permanents import permanent_ryser, permanent_table

AMPLITUDE_PHOTON_LIMIT = 20
SUPPORT_SIZE_LIMIT = 1_000_000


def transition_amplitude(network: LinearNetwork, input_config, output_config) -> complex:
    """Single transition amplitude <S| U |T>. Photon totals must match."""
    t = _as_configuration(input_config)
    s = _as_configuration(output_config)
    n = t.total
    if s.total != n:
        raise ValidationError(f"photon totals differ: input {n}, output {s.total}")
    if n > AMPLITUDE_PHOTON_LIMIT:
        raise SizeLimitError(
            f"transition amplitudes are limited to {AMPLITUDE_PHOTON_LIMIT} photons"
        )
    sub = scattering_submatrix(network, t, s)
    norm = 1.0
    for k in t.occupations:
        norm *= math.factorial(k)
    for k in s.occupations:
        norm *= math.factorial(k)
    return permanent_ryser(sub) / math.sqrt(norm)


def outcome_probabilities(network: LinearNetwork, input_config, outcomes) -> np.ndarray:
    """|Per(M[S, T])|^2 / (prod(t_i!) * prod(s_i!)) for each outcome S, in order.

    ``outcomes`` is a (K, m) integer occupation array, such as
    ``configuration_array`` builds, or a sequence of configurations. All
    permanents come from one ``permanent_table`` call over the input columns
    of T. Every outcome must cover the network's modes and carry the input's
    photon total.
    """
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
    per = permanent_table(columns, rows)
    return (per.real ** 2 + per.imag ** 2) / weights


def output_distribution(network: LinearNetwork, input_config) -> OutputDistribution:
    """Exact output distribution over every configuration of the photon total.

    Entries are listed in canonical enumeration order, the rows of
    ``configuration_array``, with zeros retained; the normalization defect is
    measured, not assumed.
    """
    t = _as_configuration(input_config)
    m = network.dimension
    if t.modes != m:
        raise ValidationError(f"input over {t.modes} modes does not match m={m}")
    n = t.total
    if configuration_count(n, m) > SUPPORT_SIZE_LIMIT:
        raise SizeLimitError(
            f"output support C({n + m - 1},{n}) exceeds {SUPPORT_SIZE_LIMIT} entries"
        )
    outcomes = configuration_array(n, m)
    probs = outcome_probabilities(network, t, outcomes)
    return OutputDistribution(zip(configurations_from_array(outcomes), probs.tolist()))


def uniform_input(total_photons: int, modes: int) -> ModeConfiguration:
    """The standard input: one photon in each of the first n modes."""
    if total_photons > modes:
        raise ValidationError(
            f"single-photon input needs n <= m, got n={total_photons}, m={modes}"
        )
    if modes < 1 or total_photons < 0:
        raise ValidationError("mode and photon counts must be positive")
    return ModeConfiguration((1,) * total_photons + (0,) * (modes - total_photons))
