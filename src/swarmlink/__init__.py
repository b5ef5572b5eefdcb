"""swarmlink: deterministic swarm-UAV flight, RF link and network
simulation toolkit.

Importing the package loads none of its modules: ``swarmlink.<module>``
imports the module on first access.
"""
import importlib

__all__ = [
    "channel",
    "dynamics",
    "formation",
    "linkbudget",
    "network",
    "simulate",
    "swarm_opt",
    "wind",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
