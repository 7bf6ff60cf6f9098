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
    # every dimension row prints a deviation, not a rejection
    rows = done.stdout.split("== dimension sweep (dt 1e-3) ==")[1].splitlines()[2:]
    assert rows
    for row in rows:
        fields = row.split()  # dim, worst deviation, seconds
        assert len(fields) == 3 and float(fields[1]) < 1e-6, row


def test_byte_digest_script_is_deterministic():
    # two runs on the same seed print the same digest per family
    script = os.path.join(ROOT, "scripts", "byte_digest.py")
    runs = [
        subprocess.run(
            [sys.executable, script, "--seed", "7", "--configs", "48"],
            capture_output=True, text=True, timeout=300,
        )
        for _ in range(2)
    ]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "coherent", "thermal", "squeezed_coherent",
        "photon_added_coherent", "photon_added_thermal", "cat",
    ]
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout
