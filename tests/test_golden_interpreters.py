"""The golden digests of ``golden.py`` under every other installed CPython
that ``pyproject.toml`` supports (3.10 to 3.13).

For each minor version, every ``python3.X`` that runs and reports that
version is used, once per real executable: on ``PATH``, and in the sibling
install directories of ``sys.base_prefix`` (as pyenv lays them out,
``<versions>/<x.y.z>/bin``).  A candidate that does not run (a shim that
needs configuring, say) is passed over, and so is the running interpreter,
which ``test_golden.py`` checks; a version with none left is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBE = "import os, sys; print(sys.implementation.name, *sys.version_info[:2], os.path.realpath(sys.executable))"


def _interpreters(minor: int) -> list[str]:
    name = f"python3.{minor}"
    candidates = [Path(d) / name for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    candidates += sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))
    found = {os.path.realpath(sys.executable): None}  # test_golden.py checks the running one
    for exe in candidates:
        if not os.access(exe, os.X_OK):
            continue
        try:
            probe = subprocess.run([str(exe), "-c", PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = probe.stdout.rstrip("\n").split(" ", 3)
        if probe.returncode == 0 and words[:3] == ["cpython", "3", str(minor)]:
            found.setdefault(words[3], str(exe))
    return [exe for exe in found.values() if exe is not None]


@pytest.mark.parametrize("minor", (10, 11, 12, 13), ids=lambda minor: f"3.{minor}")
def test_golden_digests_under_other_interpreters(minor):
    found = _interpreters(minor)
    if not found:
        pytest.skip(f"no other working CPython 3.{minor} found")
    failures = []
    for exe in found:
        proc = subprocess.run([exe, str(ROOT / "tests" / "golden.py")], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=600)
        if proc.returncode != 0:
            failures.append(f"{exe}: {proc.stderr}")
    assert not failures, "\n".join(failures)
