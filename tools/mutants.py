"""Mutants of ``src/iontrap`` and whether tier-1 kills them.

Each mutant replaces one exact source line by another: a plausible
fault, such as a tolerance loosened, a window widened or a coefficient
of a printed equation moved by a percent or two.  For each, the
checkout is copied to a temporary directory, the line is replaced there
and ``pytest -x -q`` runs on the copy, without ``tests/test_mutants.py``
(a mutated line is missing by design); a failing run kills the mutant,
a passing one lets it survive.  The checkout itself is never touched.

Run from anywhere, one BLAS thread per run:

    python3 tools/mutants.py            # every mutant, about 10 min
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
     "equivalent up to rounding: a hermiticity bound then decides "
     "differently from the exact norms behind it only within rounding of "
     "its limit, and a residual, which no exact norm backs, only within "
     "1e-9 relative of its limit"),
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
    # the printed equations of closedforms
    ("closedforms.py", "    e0 = -0.5 * db + 0.5 * lam ** 2 * nu",
     "    e0 = -0.5 * db + 0.6 * lam ** 2 * nu",
     "E0's second-order shift lam^2 nu / 2 by a fifth"),
    ("closedforms.py", "        a_n = nu * (n - 0.5) + 0.5 * lam ** 2 * nu",
     "        a_n = nu * (n - 0.5) + 0.55 * lam ** 2 * nu",
     "A_n's second-order shift lam^2 nu / 2 by a tenth"),
    ("closedforms.py", "        b_n = 0.5 * ((db - nu) + lam ** 2 * nu * n)",
     "        b_n = 0.5 * ((db - nu) + 1.02 * lam ** 2 * nu * n)",
     "B_n's second-order displacement lam^2 nu n by 2%"),
    ("closedforms.py",
     "        rad = math.sqrt(b_n ** 2 + lam ** 2 * nu ** 2 * n)",
     "        rad = math.sqrt(b_n ** 2 + 1.02 * lam ** 2 * nu ** 2 * n)",
     "the second-order pair coupling lam^2 nu^2 n by 2%"),
    ("closedforms.py", "    return 0.5 * p.lam ** 2 * p.nu * n",
     "    return 0.51 * p.lam ** 2 * p.nu * n",
     "the anticrossing shift lam^2 nu n / 2 by 2%"),
    ("closedforms.py",
     "    jc_like = 1j * lam * nu * (a @ sp - a.dag @ sm)",
     "    jc_like = 1.01j * lam * nu * (a @ sp - a.dag @ sm)",
     "the resonant C1's exchange coupling by 1%"),
    ("closedforms.py",
     "          - (lam * nu / (nu + db)) * (a @ sm + a.dag @ sp))",
     "          - (lam * nu / (nu + 1.01 * db)) * (a @ sm + a.dag @ sp))",
     "Z1's counter-rotating denominator nu + delta_breve"),
    ("closedforms.py",
     "    z1 = (-lam * nu * gam * (a @ sp + a.dag @ sm)",
     "    z1 = (-1.01 * lam * nu * gam * (a @ sp + a.dag @ sm)",
     "Z1's co-rotating gamma term by 1%"),
    ("closedforms.py",
     "    c2 = (lam ** 2 * nu ** 2 / (nu + db)) * diag_minus \\",
     "    c2 = (lam ** 2 * nu ** 2 / (nu + 1.01 * db)) * diag_minus \\",
     "C2's counter-rotating denominator nu + delta_breve"),
    ("closedforms.py",
     "        - lam ** 2 * nu ** 2 * gam * diag_plus",
     "        - 1.01 * lam ** 2 * nu ** 2 * gam * diag_plus",
     "C2's gamma term by 1%"),
    ("closedforms.py",
     "        c2 = c2 - lam * eb * nu * hermitize(a @ a @ sp + a.dag @ a.dag @ sm)",
     "        c2 = c2 - 1.01 * lam * eb * nu * hermitize(a @ a @ sp + a.dag @ a.dag @ sm)",
     "C2's two-quantum exchange term by 1%"),
    ("closedforms.py", "        c1 = 0.5 * (db - nu) * sz + jc_like",
     "        c1 = 0.51 * (db - nu) * sz + jc_like",
     "the nearly resonant C1's detuning term by 2%"),
    ("closedforms.py",
     "        z1 = -0.5 * lam * (a @ sm + a.dag @ sp)",
     "        z1 = -0.51 * lam * (a @ sm + a.dag @ sp)",
     "the nearly resonant Z1 by 2%"),
    ("closedforms.py", "        c2 = 0.5 * lam ** 2 * nu * diag_minus",
     "        c2 = 0.51 * lam ** 2 * nu * diag_minus",
     "the nearly resonant C2 by 2%"),
    ("closedforms.py",
     "        h1 = ((p.delta_breve - p.nu) / (2.0 * p.lam)) * sz + linear",
     "        h1 = ((p.delta_breve - p.nu) / (2.02 * p.lam)) * sz + linear",
     "the nearly resonant H1's detuning term by 1%"),
    ("closedforms.py", "    quad_weight = p.eta_breve / p.lam",
     "    quad_weight = 1.01 * p.eta_breve / p.lam",
     "the regimes' eta_breve-quadratic weight by 1%"),
    ("closedforms.py",
     "    linear = hermitize(1j * p.nu * ((a - a.dag) @ (sp + sm)))",
     "    linear = hermitize(1.01j * p.nu * ((a - a.dag) @ (sp + sm)))",
     "the regimes' first-order interaction by 1%"),
    ("closedforms.py",
     "    ee, eg, ge, gg = _exchange_blocks(0.5 * lam, space)",
     "    ee, eg, ge, gg = _exchange_blocks(0.51 * lam, space)",
     "exp(i Z1)'s half-angle lam / 2 by 2%"),
    ("closedforms.py",
     "        ee, eg, ge, gg = _exchange_blocks(p.lam * p.nu * t, space)",
     "        ee, eg, ge, gg = _exchange_blocks(1.01 * p.lam * p.nu * t, space)",
     "the rotating-wave evolutor's exchange angle by 1%"),
    ("closedforms.py",
     "    gen = bh_reference(p, space) + 1j * p.lam * p.nu * (a @ sp - a.dag @ sm)",
     "    gen = bh_reference(p, space) + 1.01j * p.lam * p.nu * (a @ sp - a.dag @ sm)",
     "the first-order evolutor's exchange coupling by 1%"),
    ("closedforms.py", "    phase = cmath.exp(-1j * lam * lam * nu * t)",
     "    phase = cmath.exp(-1.01j * lam * lam * nu * t)",
     "the sandwich's displacement-energy phase by 1%"),
    ("closedforms.py",
     "    kappa = -1j * c * _sin_over_sqrt(0.5 * lam, ns)",
     "    kappa = -1.01j * c * _sin_over_sqrt(0.5 * lam, ns)",
     "the sandwich's excited-row mixing kappa by 1%"),
    ("closedforms.py",
     "        rad = math.sqrt(0.25 * (db - nu) ** 2 + lam ** 2 * nu ** 2 * n)",
     "        rad = math.sqrt(0.26 * (db - nu) ** 2 + lam ** 2 * nu ** 2 * n)",
     "levels_first_order's detuning term by 4%"),
    ("closedforms.py", "        b0 = 0.5 * (db - nu)",
     "        b0 = 0.51 * (db - nu)",
     "levels_rwa's half-detuning by 2%"),
    ("closedforms.py",
     "                          [-1j * lam * nu * math.sqrt(n), mid - b0]])",
     "                          [-1.01j * lam * nu * math.sqrt(n), mid - b0]])",
     "levels_rwa's exchange coupling by 1%, in the triangle eigvalsh reads"),
    ("closedforms.py",
     "    return (abs(c) ** 2 / w2) * math.sin(math.sqrt(w2) * t) ** 2",
     "    return (abs(c) ** 2 / w2) * math.sin(1.01 * math.sqrt(w2) * t) ** 2",
     "the two-level oscillation frequency by 1%"),
    # the printed equations of hamiltonians
    ("hamiltonians.py", "        return self.eta * (self.Omega_R / db)",
     "        return 1.01 * self.eta * (self.Omega_R / db)",
     "lam = eta Omega_R / delta_breve by 1%"),
    ("hamiltonians.py", "        root = math.sqrt(4.0 + big_delta ** 2)",
     "        root = math.sqrt(4.04 + big_delta ** 2)",
     "from_balanced's sqrt(4 + Delta^2) by 0.5%"),
    ("hamiltonians.py", "    first = math.sqrt(0.25 + 0.5 / root)",
     "    first = math.sqrt(0.26 + 0.5 / root)",
     "kappa's even radical by 2%"),
    ("hamiltonians.py",
     "    half = big_delta / (2.0 * math.sqrt(4.0 + big_delta ** 2))",
     "    half = big_delta / (2.02 * math.sqrt(4.0 + big_delta ** 2))",
     "epsilon's Delta term by 1%"),
    ("hamiltonians.py",
     "    c, s = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)",
     "    c, s = math.cos(p.theta / 2.02), math.sin(p.theta / 2.02)",
     "t2's half-angle theta / 2 by 1%"),
    ("hamiltonians.py",
     "    d = _gauge_displacement(0.5 * p.eta_breve, space.n_max)",
     "    d = _gauge_displacement(0.505 * p.eta_breve, space.n_max)",
     "t3's half displacement eta_breve / 2 by 1%"),
    ("hamiltonians.py",
     "    d_minus = _gauge_displacement(0.5 * (p.eta_breve - p.eta), space.n_max)",
     "    d_minus = _gauge_displacement(0.505 * (p.eta_breve - p.eta), space.n_max)",
     "t_delta's half displacement (eta_breve - eta) / 2 by 1%"),
    ("hamiltonians.py",
     "    return (p.nu * number(space) + 0.5 * p.delta_breve * pauli(\"z\", space)",
     "    return (p.nu * number(space) + 0.505 * p.delta_breve * pauli(\"z\", space)",
     "bh_reference's spin splitting delta_breve / 2 by 1%"),
    ("hamiltonians.py",
     "    coeff = 1j * p.lam * p.nu * (1j * p.eta_breve) ** m / math.factorial(m)",
     "    coeff = 1.01j * p.lam * p.nu * (1j * p.eta_breve) ** m / math.factorial(m)",
     "the bh series terms past m = 0 by 1%"),
    ("hamiltonians.py",
     "        return hermitize(1j * p.lam * p.nu * ((a - a.dag) @ (sp + sm)))",
     "        return hermitize(1.01j * p.lam * p.nu * ((a - a.dag) @ (sp + sm)))",
     "the bh series' m = 0 term by 1%"),
    ("hamiltonians.py",
     "            + 0.5 * p.delta_breve * (_parity(space) @ pauli(\"z\", space))",
     "            + 0.505 * p.delta_breve * (_parity(space) @ pauli(\"z\", space))",
     "h_check_reference's spin splitting by 1%"),
    ("hamiltonians.py",
     "    coeff = p.lam * p.nu * p.eta_breve ** m / math.factorial(m)",
     "    coeff = 1.01 * p.lam * p.nu * p.eta_breve ** m / math.factorial(m)",
     "the h_check series terms past m = 0 by 1%"),
    ("hamiltonians.py",
     "        return hermitize(p.lam * p.nu * (a + a.dag))",
     "        return hermitize(1.01 * p.lam * p.nu * (a + a.dag))",
     "the h_check series' m = 0 term by 1%"),
    ("hamiltonians.py",
     "    return _block_matrix(space, np.diag(p.nu * n + 0.5 * p.delta), drive,",
     "    return _block_matrix(space, np.diag(p.nu * n + 0.505 * p.delta), drive,",
     "rfh's excited-state detuning delta / 2 by 1%"),
    ("hamiltonians.py",
     "    h0 = (p.nu * number(space) + 0.5 * p.omega_ge * pauli(\"z\", space)).mat",
     "    h0 = (p.nu * number(space) + 0.505 * p.omega_ge * pauli(\"z\", space)).mat",
     "the lab Hamiltonian's spin splitting omega_ge / 2 by 1%"),
    ("hamiltonians.py",
     "            + p.lam * p.nu * (a @ pauli(\"+\", space) + a.dag @ pauli(\"-\", space)))",
     "            + 1.01 * p.lam * p.nu * (a @ pauli(\"+\", space) + a.dag @ pauli(\"-\", space)))",
     "the Jaynes-Cummings coupling by 1%"),
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
