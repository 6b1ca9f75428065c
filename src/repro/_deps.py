"""Dependency guards with actionable errors.

numpy is a declared install dependency (``pyproject.toml``).  Modules that
need it import it through :func:`require_numpy` so a broken install fails
with a message naming the feature and the fix instead of a bare
``ModuleNotFoundError: numpy`` deep inside a stage closure.
"""

from __future__ import annotations


def require_numpy(feature: str):
    """Import and return numpy, or raise naming the feature that needs it."""
    try:
        import numpy
    except ImportError as exc:
        raise ModuleNotFoundError(
            f"{feature} requires numpy, which is not installed. numpy is a "
            "declared dependency of this package (pyproject.toml: "
            "numpy>=1.24) — install the package with `pip install -e .` or "
            "run `pip install 'numpy>=1.24'`."
        ) from exc
    return numpy
