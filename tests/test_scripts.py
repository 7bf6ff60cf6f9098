import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_oracle_convergence_script_runs():
    # the script drives fock_oracle.integrate over a step and a dimension
    # sweep; a short Γt keeps it to a few seconds
    script = os.path.join(ROOT, "scripts", "oracle_convergence.py")
    done = subprocess.run(
        [sys.executable, script, "--gt", "0.1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "== step-size sweep (dim 64) ==" in done.stdout
    assert "== dimension sweep (dt 1e-3) ==" in done.stdout
