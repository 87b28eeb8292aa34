"""Exact computations on the primary and prime spectra of graded modules
over Z and Z/n, the Zariski topology they carry, and an executable catalog
of the structural facts that govern them.

Importing the package loads the core every command and query runs
(`numtheory`, `intlinalg`, `algebra`, `spectra`) and registers the other
library modules lazily: each executes on its first attribute access.  The
names below resolve through the module that defines them.  So a command
pays only for the modules it uses (the check catalog in `harness` is by
far the largest), and a first call into the core pays for no loading.
"""

import importlib.util
import sys

from . import algebra, spectra

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "algebra": (
        "BaseRing",
        "GradedModule",
        "GradedSubmodule",
        "GradingGroup",
        "Ideal",
        "QuotientInvariants",
        "annihilator",
        "enumerate_submodules",
        "ideal_times_module",
        "quotient_module",
    ),
    "dsl": ("Model", "ParseError", "model_text", "parse_model"),
    "harness": ("CATALOG", "ROSTER", "CheckResult", "run_checks"),
    "maps": (
        "InducedSpectrumMap",
        "MapAnalysis",
        "PermutationMap",
        "analyze_natural_map",
        "reduced_ring",
    ),
    "spectra": (
        "RadicalResult",
        "Trilean",
        "graded_radical",
        "in_primary_spectrum",
        "is_cancellation",
        "is_graded_primary",
        "is_graded_prime",
        "is_multiplication",
        "spectrum_points",
    ),
    "topology": (
        "FiniteSpace",
        "TopologyReport",
        "analyze_space",
        "basic_open",
        "build_ring_space",
        "build_space",
        "closure",
        "ideal_core",
        "is_primary_top_module",
        "radical_core",
        "ring_basic_open",
        "ring_variety",
        "variety",
        "variety_membership",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    """Put gpspec.<name> in sys.modules and on the package without running
    it; its code runs on the first attribute access.  (`cli` is left out:
    `python -m gpspec.cli` warns when its module is already registered.)"""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("topology", "maps", "dsl", "harness"):
    _register_lazily(_name)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
