"""qcloak runs on numpy alone: scipy is a test dependency, an independent
oracle, and must stay out of the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# `sys.modules[name] = None` makes every later import of that name fail
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None

import numpy as np
import qcloak as qc
import qcloak.cli

free = qc.LayeredMedium((qc.Shell(0.0, 3.0, 1.0, 1.0),))
assert len(qc.dirichlet_eigenvalues(free, 0, (0.5, 5.0))) == 2
psi = qc.plane_wave_field(free, 0.5, [[1.0, 0.5], [4.0, -0.5]], l_max=8)
assert np.all(np.isfinite(psi))
assert qcloak.cli.main(["resonance-scan", "--channels", "0", "--n-scan",
                        "11", "--out", sys.argv[1]]) == 0
"""


def test_package_runs_without_scipy(tmp_path):
    out = tmp_path / "resonance-scan"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (out / "resonance_summary.tsv").is_file()
