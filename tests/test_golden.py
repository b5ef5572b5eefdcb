"""Golden digests: the SHA-256 of every file each subcommand writes from
``configs/reference.json`` (default seed and ``--seed 7``; both ``--mode``
values of ``budget`` and ``berdist``), and of the files that the variant
configs write (:data:`_VARIANTS`), must match
``tests/golden/reference.sha256``.

After a deliberate output change, regenerate the digest file with

    PYTHONPATH=src python tests/test_golden.py

and name each changed file, the reason and the largest difference in
CHANGES.md.
"""
import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from swarmlink.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "reference.json"
GOLDEN = ROOT / "tests" / "golden" / "reference.sha256"

_SUBCOMMANDS = ("dynamics", "wind", "optimize", "formation", "channel",
                "budget", "berdist", "network")
_MODAL = ("budget", "berdist")
# configs/<name>.json and the subcommands run on it at its own seed. The
# reference flights keep heading 0 and roll 0; variant-flight's lateral
# target, yawed DF follower and DF chain reach the yaw and roll terms.
# variant-channel's Rician Monte Carlo spans three blocks, the last ragged,
# at unsorted Eb/N0 points, where the reference's AWGN fits in one.
# variant-mesh's 80 seeded UAVs mesh as one dense ad hoc group;
# variant-layers meshes 4 groups and their masters, so its route and flood
# cross the master layer. The reference's network is a 5-UAV star.
# variant-gwo, variant-wind and variant-rayleigh reach GWO's ``a`` schedule
# on rastrigin, the transverse Von Karman density and Rayleigh fading, where
# the reference runs PSO on sphere, the longitudinal Dryden density and AWGN.
_VARIANTS = {"variant-flight": ("dynamics", "formation"),
             "variant-channel": ("channel",),
             "variant-mesh": ("network",),
             "variant-layers": ("network",),
             "variant-gwo": ("optimize",),
             "variant-wind": ("wind",),
             "variant-rayleigh": ("channel",)}


def _versions() -> str:
    libc, libc_version = platform.libc_ver()
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"libm {libc or 'unknown'} {libc_version}".rstrip())


def _run(digests: dict, name: str, argv: list, work: Path) -> None:
    """Run ``argv`` into ``work/name`` and add {"<name>/<file>": sha256
    hex} to ``digests``."""
    out = work / name
    argv = [*argv, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"{argv} exited with {code}")
    for path in sorted(out.iterdir()):
        digests[f"{name}/{path.name}"] = hashlib.sha256(
            path.read_bytes()).hexdigest()


def reference_digests(work: Path) -> dict[str, str]:
    """Run every subcommand on the reference scenario, and the variants'
    subcommands on theirs, under ``work`` and return
    {"<seed or variant>/<run>/<file>": sha256 hex}."""
    digests = {}
    for seed in ("default", "7"):
        for sub in _SUBCOMMANDS:
            for mode in (("paper", "corrected") if sub in _MODAL else (None,)):
                run = sub if mode is None else f"{sub}-{mode}"
                argv = [sub, "--config", str(CONFIG)]
                if seed != "default":
                    argv += ["--seed", seed]
                if mode is not None:
                    argv += ["--mode", mode]
                _run(digests, f"{seed}/{run}", argv, work)
    for variant, subs in _VARIANTS.items():
        config = CONFIG.with_name(f"{variant}.json")
        for sub in subs:
            _run(digests, f"{variant}/{sub}", [sub, "--config", str(config)],
                 work)
    return digests


def _read_golden() -> tuple[dict[str, str], list[str]]:
    digests, header = {}, []
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            digest, name = line.split(maxsplit=1)
            digests[name] = digest
    return digests, header


def test_reference_digests(tmp_path):
    expected, header = _read_golden()
    got = reference_digests(tmp_path)
    changed = sorted(name for name in expected.keys() | got.keys()
                     if expected.get(name) != got.get(name))
    assert not changed, (f"outputs differ from {GOLDEN.name} "
                         f"({header[-1]}; here: {_versions()}): {changed}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = reference_digests(Path(tmp))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# SHA-256 of every file swarmlink writes from "
             "configs/reference.json.",
             *(f"# {name}/: {' and '.join(subs)} on configs/{name}.json."
               for name, subs in _VARIANTS.items()),
             "# Regenerate with: PYTHONPATH=src python tests/test_golden.py",
             f"# Taken with {_versions()}"]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
