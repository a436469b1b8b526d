"""Tolerance mutants of ``src/iontrap`` and whether tier-1 kills them.

Each mutant replaces one exact source line by another: a plausible
fault, such as a tolerance loosened or a window widened.  For each, the
checkout is copied to a temporary directory, the line is replaced there
and ``pytest -x -q`` runs on the copy, without ``tests/test_mutants.py``
(a mutated line is missing by design); a failing run kills the mutant,
a passing one lets it survive.  The checkout itself is never touched.

Run from anywhere, one BLAS thread per run:

    python3 tools/mutants.py            # every mutant, about 7 min
    python3 tools/mutants.py _NEAR_RHO  # those whose line names it

It exits 1 when a mutant survives that its reason does not call
equivalent.  ``tests/test_mutants.py`` checks that every listed line
occurs exactly once in ``src/iontrap``, so a refactor that moves one
updates the list.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file under src/iontrap, exact source line, replacement, reason)
MUTANTS = (
    ("closedforms.py", "_NEAR_RHO = 0.1", "_NEAR_RHO = 0.12",
     "the nearly resonant window widened by a fifth"),
    ("oracle.py", "_CONCLUSIVE_R2 = 0.95", "_CONCLUSIVE_R2 = 0.9",
     "a poorer power-law fit counted as conclusive"),
    ("closedforms.py",
     "            and abs(nu - omega) <= 1e-12 * max(nu, abs(omega)))",
     "            and abs(nu - omega) <= 1e-10 * max(nu, abs(omega)))",
     "the closed forms' exact resonance loosened 100-fold"),
    ("engine.py",
     "            if _hermiticity_defect(term.mat, 1e-12) is not None:",
     "            if _hermiticity_defect(term.mat, 1e-10) is not None:",
     "a series term's hermiticity loosened 100-fold"),
    ("hamiltonians.py", "    while bound >= 1e-12:",
     "    while bound >= 1e-10:",
     "the bh series cut at a 100-fold larger tail"),
    ("operators.py", "_BOUND_MARGIN = 1e-9", "_BOUND_MARGIN = 0.0",
     "equivalent up to rounding: a bound decides differently only within "
     "rounding of its limit, where the exact norms round as much"),
    ("operators.py", "_TAYLOR_THETA = 0.33", "_TAYLOR_THETA = 0.6",
     "the degree-12 Taylor exponential past its accuracy contract"),
    ("experiments.py", "_PHASE_TOL = 1e-6", "_PHASE_TOL = 1e-5",
     "criterion 1's frame-chain tolerance loosened 10-fold"),
    ("oracle.py", "_WINDOW_MARGIN = 20", "_WINDOW_MARGIN = 8",
     "a rung window too narrow for its Davis-Kahan certificate"),
    ("oracle.py", "_OVERLAP_THRESHOLD = 0.8", "_OVERLAP_THRESHOLD = 0.7",
     "a weaker level pairing accepted"),
    ("oracle.py", "_HERM_TOL = 1e-10", "_HERM_TOL = 1e-9",
     "exact_eigs' hermiticity check loosened 10-fold"),
    ("oracle.py", "_RESIDUAL_TOL = 1e-10", "_RESIDUAL_TOL = 1e-9",
     "exact_eigs' eigenpair residual check loosened 10-fold"),
    ("oracle.py",
     "_STEPS_PER_UNIT = 40.0  # the Magnus sweeps' default step density",
     "_STEPS_PER_UNIT = 30.0  # the Magnus sweeps' default step density",
     "the frame-chain oracle's sweep a quarter coarser"),
)

_TIMEOUT_S = 900.0  # a run past it counts as killed
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                  ".hypothesis", ".bench_out", "*.egg-info")


def run(mutant) -> tuple[str | None, float]:
    """(killer, seconds): tier-1 with -x on a mutated copy of the checkout.
    The killer is the first failing test, "timeout" for a run past
    _TIMEOUT_S, and None when the mutant survives."""
    name, line, replacement, _ = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        path = copy / "src" / "iontrap" / name
        lines = path.read_text().split("\n")
        lines[lines.index(line)] = replacement
        path.write_text("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if proc.returncode == 0:
            return None, seconds
        failed = [ln.split()[1] for ln in proc.stdout.splitlines()
                  if ln.startswith(("FAILED ", "ERROR "))]
        return (failed[0] if failed else f"exit {proc.returncode}"), seconds


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS
              if not argv or any(word in m[1] for word in argv)]
    killed = unexpected = 0
    for mutant in chosen:
        killer, seconds = run(mutant)
        killed += killer is not None
        unexpected += killer is None and not mutant[3].startswith("equivalent")
        print(f"{mutant[0]}: {mutant[1].strip()} -> {mutant[2].strip()} "
              f"({mutant[3]}): "
              f"{'survived' if killer is None else 'killed by ' + killer}, "
              f"{seconds:.1f} s", flush=True)
    print(f"{killed} of {len(chosen)} killed")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
