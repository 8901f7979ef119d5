"""Connectivity of dense wireless networks confined in convex right prisms.

Analytic boundary-component expansion, Monte Carlo simulation, and a
quadrature oracle that cross-validates the two.

``quadrature`` and ``simulator``, and the names re-exported from
``simulator``, load on first access.  Only ``simulator`` loads scipy, and
of it only the compiled extension ``scipy.spatial._distance_pybind``, for
its squared pair distances; ``scipy.spatial``'s package is never imported.
So importing the package, or any command but ``simulate`` and ``compare``,
loads no scipy; the quadrature oracle runs on numpy alone.
"""

import importlib

from . import analytic, channel, geometry
from .channel import ConnectivityModel, hard_disk, mimo_mrc_2x2, model_from_spec, rayleigh
from .geometry import (
    Domain,
    FeatureSet,
    Polygon2D,
    build_half_cylinder,
    build_house,
    build_right_prism,
    domain_from_spec,
)

_LAZY_MODULES = ("quadrature", "simulator")
_FROM_SIMULATOR = ("BACKEND", "SimConfig", "SimResult", "estimate", "sweep")

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "channel",
    "geometry",
    "quadrature",
    "simulator",
    "ConnectivityModel",
    "Domain",
    "FeatureSet",
    "Polygon2D",
    "SimConfig",
    "SimResult",
    "BACKEND",
    "build_house",
    "build_half_cylinder",
    "build_right_prism",
    "domain_from_spec",
    "model_from_spec",
    "mimo_mrc_2x2",
    "rayleigh",
    "hard_disk",
    "estimate",
    "sweep",
]


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _FROM_SIMULATOR:
        return getattr(importlib.import_module(".simulator", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
