"""Parallel-diffusion chip firing: simulation, orientation rules, and counting.

Each submodule is registered in sys.modules when the package is imported, but
compiled and run only on its first attribute access, so a CLI command pays
only for the modules it uses. Import names from their modules, e.g.
``from pardiff.pathcount import count_p2_sequence``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

_SUBMODULES = ("errors", "records", "graphs", "transfer", "engine", "orientations", "counting", "lemmas", "pathcount", "oracle", "verify")

for _name in _SUBMODULES:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # the module's code runs on its first attribute access
del _name, _spec, _module

__all__ = list(_SUBMODULES)
__version__ = "0.1.0"
