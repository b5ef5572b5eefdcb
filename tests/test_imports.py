"""Import isolation: a swarmlink process loads only the library modules
that its config's sections and its subcommand use. Each case runs in a
fresh child interpreter and reads its ``sys.modules``."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"channel", "dynamics", "formation", "linkbudget", "network",
           "simulate", "swarm_opt", "wind"}


def _loaded(code: str) -> set[str]:
    """The swarmlink modules, but the package and cli, that a child
    interpreter has loaded after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    report = ("import json, sys; print(json.dumps(sorted("
              "m.split('.', 1)[1] for m in sys.modules"
              " if m.startswith('swarmlink.'))))")
    child = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                           env=env, capture_output=True, text=True,
                           check=True)
    return set(json.loads(child.stdout.splitlines()[-1])) - {"cli"}


def _run(tmp_path, subcommand: str, config) -> set[str]:
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = path
    argv = [subcommand, "--config", str(config), "--out",
            str(tmp_path / "out")]
    return _loaded(f"from swarmlink import cli\n"
                   f"assert cli.main({argv!r}) == 0")


def test_package_import_loads_no_module():
    assert _loaded("import swarmlink") == set()


def test_cli_import_loads_no_library_module():
    assert _loaded("import swarmlink.cli") == set()


def test_package_attribute_imports_its_module():
    assert _loaded("import swarmlink\nswarmlink.network.build_topology") \
        == {"network"}
    import swarmlink
    with pytest.raises(AttributeError):
        swarmlink.nope


def test_budget_run_loads_linkbudget_and_channel(tmp_path):
    loaded = _run(tmp_path, "budget",
                  {"seed": 1, "budget": {"use_reference": True}})
    assert {"linkbudget", "channel"} <= loaded
    assert not loaded & {"network", "swarm_opt", "formation"}


def test_optimize_run_loads_only_swarm_opt(tmp_path):
    assert _run(tmp_path, "optimize",
                {"seed": 1, "optimize": {"max_iters": 5}}) == {"swarm_opt"}


def test_validate_reference_parses_every_section(tmp_path):
    # every module but simulate, which only the flight runners use
    assert _run(tmp_path, "validate", ROOT / "configs" / "reference.json") \
        == MODULES - {"simulate"}
