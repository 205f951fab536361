"""Parallel-diffusion chip firing: simulation, orientation rules, and counting.

Each submodule is registered in sys.modules when the package is imported, but
compiled and run only on its first attribute access, so a CLI command pays
only for the modules it uses. The names below are re-exported the same way.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

_EXPORTS = {
    "counting": (
        "AsymptoticModel",
        "CountLedger",
        "alternating_count",
        "characteristic_roots",
        "conjecture_recurrence_check",
        "contract_agreeing",
        "count_T_direct",
        "count_T_recurrence",
        "count_T_summation",
        "count_configs_on_orientation",
        "sever_at_flats",
        "stage",
        "vertex_multiplier",
    ),
    "engine": (
        "PeriodReport",
        "SequenceTrace",
        "detect_period",
        "fire_step",
        "induced_orientation",
        "is_inside_period",
        "run_sequence",
    ),
    "graphs": (
        "Configuration",
        "PathGraph",
        "SimpleGraph",
        "canonicalize",
        "config_from_string",
        "config_to_string",
        "parse_graph",
        "render_graph",
        "shift",
    ),
    "oracle": (
        "OracleResult",
        "count_p2_configurations",
        "count_p2_sequence",
        "enumerate_p2_configurations",
        "enumerate_p2_on_bridge_graph",
        "orientations_realized",
    ),
    "orientations": (
        "ForbiddenPatternReport",
        "check_p2_orientation",
        "count_p2_orientations_recurrence",
        "enumerate_p2_orientations",
        "witness_configuration",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("errors", "graphs", "transfer", "engine", "orientations", "counting", "oracle", "verify")

for _name in _SUBMODULES:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # the module's code runs on its first attribute access
del _name, _spec, _module

__all__ = [*_SUBMODULES, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
