"""Station-based analysis of urban-corridor warming and heat waves.

Submodules:

* ``ghcn`` — fixed-width record parsing and serialization
* ``regions`` — region geometry, station membership, covariate tables
* ``qc`` — record-completeness filters
* ``interpolate`` — monthly GWR+kriging imputation, daily moving-average fill
* ``indices`` — seasonal means and annual heat-wave indices
* ``stats`` — Mann-Kendall, FDR, rank tests, proportion comparison
* ``synth`` — seeded synthetic station worlds for testing
* ``pipeline`` — file-based stage runner and comparison cells
* ``cli`` — ``megaheat`` command

The most commonly used entry points are re-exported here.
"""

__version__ = "0.1.0"

import ctypes  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402


def _pin_blas():
    """numpy's bundled OpenBLAS, set to run on one thread so that no result
    follows the host's core count (README, Command line); None, and BLAS
    left as it is, where numpy bundles no library with that entry."""
    for path in (Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        try:
            blas = ctypes.CDLL(str(path))
            blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            blas.scipy_openblas_set_num_threads64_.restype = None
            blas.scipy_openblas_set_num_threads64_(1)
            return blas
        except (OSError, AttributeError):
            pass
    return None


BLAS = _pin_blas()

from .pipeline import (  # noqa: E402
    ConfigError,
    DataError,
    RunConfig,
    config_hash,
    load_config,
    run_all,
    run_stages,
)
from .series import AnnualSeries, DailySeries, MonthlySeries, StationMeta  # noqa: E402

__all__ = [
    "AnnualSeries",
    "ConfigError",
    "DailySeries",
    "DataError",
    "MonthlySeries",
    "RunConfig",
    "StationMeta",
    "__version__",
    "config_hash",
    "load_config",
    "run_all",
    "run_stages",
]
