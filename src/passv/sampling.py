"""Permanent-based Fock sampling through a linear network.

The amplitude for input configuration T and output configuration S is
Per(M[S, T]) / sqrt(prod(t_i!) * prod(s_i!)), with the scattering submatrix
built by repeating rows per output occupation and columns per input
occupation.
"""

from __future__ import annotations

import math

from .configurations import (
    ModeConfiguration,
    _as_configuration,
    configuration_count,
    enumerate_configurations,
)
from .distributions import OutputDistribution
from .errors import SizeLimitError, ValidationError
from .networks import LinearNetwork, scattering_submatrix
from .permanents import permanent_ryser

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


def output_distribution(network: LinearNetwork, input_config) -> OutputDistribution:
    """Exact output distribution over every configuration of the photon total.

    Entries are listed in canonical enumeration order with zeros retained; the
    normalization defect is measured, not assumed.
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
    pairs = []
    for s in enumerate_configurations(n, m):
        amp = transition_amplitude(network, t, s)
        pairs.append((s, abs(amp) ** 2))
    return OutputDistribution(pairs)


def uniform_input(total_photons: int, modes: int) -> ModeConfiguration:
    """The standard input: one photon in each of the first n modes."""
    if total_photons > modes:
        raise ValidationError(
            f"single-photon input needs n <= m, got n={total_photons}, m={modes}"
        )
    if modes < 1 or total_photons < 0:
        raise ValidationError("mode and photon counts must be positive")
    return ModeConfiguration((1,) * total_photons + (0,) * (modes - total_photons))
