"""Every script in ``demos/`` runs as documented and prints what it printed
when its digest was recorded.

Each demo runs in its own interpreter with ``PYTHONPATH=src`` and, since a
subprocess does not inherit them, the flags ``-X dev -W error``, so a
warning a demo raises fails its test; a new demo needs its digest added
here.  To print the current digests:

    for f in demos/*.py; do PYTHONPATH=src python -X dev -W error "$f" | sha256sum; done
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "bott_iteration.py": "1e5e58f1eb25cf58714f52731cebc44112bf80168a32a111373bd890ee5cbf0f",
    "geodesic_certificates.py": "c39e7f4a06aa7c6e092287eec72673b1d06e7a5cc84a0916c2cbe4f159276fda",
    "gysin_consistency.py": "79de87c1ac0ec9b3d0750fe493ad7e2ce307592094bad59747ff1aa6085d70dd",
    "homotopy_tables.py": "eee394cd6de97e3c618913c820fd6a0acd31caa17e4a5c429cb61f4ef5265779",
    "quotient_cohomology.py": "b4c55fbfaf5ab2c077550d78afe3f6c6814134eb8b94bc1bde4d4205081590f5",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_prints_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)], cwd=ROOT,
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
