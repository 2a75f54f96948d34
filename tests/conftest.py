"""Test-wide settings.

NumPy's ComplexWarning is an error in every test: states are float64 when
their inputs are real, so a complex value written into one would otherwise
lose its imaginary part with only a warning. The filter is added here rather
than in pyproject.toml because the class moved to ``numpy.exceptions`` in
NumPy 1.25 and the declared floor is 1.24.

RuntimeWarning is an error too, so that an invalid or overflowing operation
(a 0/0 in the normalization of a photon-total sector, say) fails the test
instead of leaving a NaN in a report.
"""

import numpy as np


def pytest_configure(config):
    module = "numpy.exceptions" if hasattr(np, "exceptions") else "numpy"
    config.addinivalue_line("filterwarnings", f"error::{module}.ComplexWarning")
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
