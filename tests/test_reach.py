"""Reach: every public function of the library modules, and every method
that their classes define, is called by a golden run or by ``validate`` of
a ``configs/*.json``, or :data:`UNREACHED` says why it stays."""
import contextlib
import inspect
import io
import sys

import pytest

import swarmlink
from swarmlink.cli import EXIT_OK, main
from test_golden import CONFIG, reference_digests

# "<module>.<name>" or "<module>.<class>.<method>": why it stays
UNREACHED = {
    "linkbudget.reference_budget_config": "acceptance criteria 1-3",
    "linkbudget.path_loss_db": "acceptance criterion 4",
    "channel.crossover_distance": "acceptance criterion 5",
    "simulate.FormationTrace.offset_error": "acceptance criterion 12",
    **dict.fromkeys(("network.grid_graph", "network.flood",
                     "network.route_hops"), "acceptance criterion 13"),
    "network.TopologyGraph.from_edges": "only grid_graph builds a graph "
                                        "from edges (criterion 13)",
    "channel.qpsk_demodulate": "oracle of the QPSK tests, the inverse of "
                               "qpsk_modulate",
    **dict.fromkeys(("network.TopologyGraph.near",
                     "network.TopologyGraph.nodes",
                     "network.TopologyGraph.edges"),
                    "oracle of the topology and writer tests"),
    "network.TopologyError.__init__": "raised only by a run that fails: a "
                                      "node beyond every link range",
    **dict.fromkeys(("dynamics.step_state", "formation.movement_step",
                     "formation.formation_targets",
                     "network.TopologyGraph.adjacency"),
                    "bench/inproc.py patches or reads it by name"),
    **dict.fromkeys(("swarm_opt.wpa_optimize",
                     "swarm_opt.WpaConfig.__post_init__"),
                    "no golden variant runs WPA"),
}


def _function(member):
    """The function behind a class member, or None."""
    if isinstance(member, property):
        member = member.fget
    elif isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    return member if inspect.isfunction(member) else None


def _targets() -> dict[str, object]:
    """{"<module>.<name>": code object} of each function in a library
    module's ``__all__`` and each method written in that module."""
    targets = {}
    for name in swarmlink.__all__:
        module = getattr(swarmlink, name)
        for public in module.__all__:
            member = getattr(module, public)
            if inspect.isfunction(member):
                targets[f"{name}.{public}"] = member.__code__
        for cls_name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, member in vars(cls).items():
                func = _function(member)
                # dataclass and enum methods are generated elsewhere
                if func and func.__code__.co_filename == module.__file__:
                    targets[f"{name}.{cls_name}.{attr}"] = func.__code__
    return targets


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """The code objects that the golden runs and ``validate`` of every
    ``configs/*.json`` call."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        reference_digests(tmp_path_factory.mktemp("golden"))
        for config in sorted(CONFIG.parent.glob("*.json")):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["validate", "--config", str(config)]) == \
                    EXIT_OK, config.name
    finally:
        sys.setprofile(None)
    return called


def test_unreached_names_a_library_module():
    assert {name.split(".")[0] for name in UNREACHED} <= \
        set(swarmlink.__all__)


@pytest.mark.parametrize("module", swarmlink.__all__)
def test_every_library_function_is_reached(called, module):
    targets = {name: code for name, code in _targets().items()
               if name.split(".")[0] == module}
    allowed = {name for name in UNREACHED if name.split(".")[0] == module}
    unreached = {name for name, code in targets.items()
                 if code not in called}
    assert unreached - allowed == set(), \
        "no run calls these; delete them or allowlist them with a reason"
    assert allowed - unreached == set(), \
        "a run calls these now, or they are gone; drop them from UNREACHED"
