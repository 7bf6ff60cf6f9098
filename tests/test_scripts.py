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
    steps, dims = done.stdout.split("== dimension sweep (derived step) ==")
    assert "== step sweep (dim 128) ==" in steps
    # every row prints a deviation, not a rejection: the derived step, its
    # half and its quarter, then each dimension at the derived step
    step_rows = [row for row in steps.splitlines()[2:] if row]
    dim_rows = dims.splitlines()[2:]
    assert len(step_rows) == 3 and dim_rows
    for row in step_rows + dim_rows:
        fields = row.split()  # step or dim, worst deviation, seconds
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


def test_reference_scenarios_script_runs(tmp_path):
    # the four scenarios end to end on a short grid: every CSV and both
    # charts written, and every numeric crossing on its closed form
    script = os.path.join(ROOT, "scripts", "run_reference_scenarios.py")
    done = subprocess.run(
        [sys.executable, script, "--outdir", str(tmp_path), "--stop", "0.5", "--step", "0.05"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    names = [
        "thermal_to_nonclassical", "squeezed_to_classical",
        "photon_added_coherent", "photon_added_thermal",
    ]
    assert sorted(os.listdir(tmp_path)) == sorted(
        [f"{name}.csv" for name in names] + ["figure1.svg", "figure2.svg"]
    )
    rows = {line.split()[0]: line.split() for line in done.stdout.splitlines()[1:5]}
    assert sorted(rows) == sorted(names)
    for fields in rows.values():  # scenario, crossing, closed form, |delta|
        assert len(fields) == 4 and float(fields[3]) < 1e-8, fields
