"""Numerical toolkit for the perturbative dynamics of a laser-driven trapped ion.

The package works on a truncated Fock (x) spin Hilbert space and provides:

* ``operators``     -- truncated ladder/spin/displacement operators and norms,
* ``hamiltonians``  -- the lab-frame, rotating-frame and balanced Hamiltonians
  together with the unitaries connecting them,
* ``engine``        -- a recursive solver for constants of motion of a
  perturbed Hamiltonian (no rotating wave approximation anywhere),
* ``closedforms``   -- explicit low-order constants, evolutors and spectra,
* ``oracle``        -- exact diagonalization, time-ordered integration and
  convergence-order fits used to validate everything else,
* ``cli``           -- a small batch runner writing CSV/JSON experiment output.

All frequencies are measured in units of the trap frequency (``nu = 1`` is the
canonical choice); ``hbar = 1`` throughout.
"""

from .operators import (
    ConfigError,
    SpaceConfig,
    BasisIndex,
    Operator,
    GROUND,
    EXCITED,
    annihilation,
    number,
    pauli,
    identity,
    displacement,
    expm,
    op_norm,
    commutator,
    hermitize,
    interior_block,
    interior_norm,
    interior_distance,
    from_fock_blocks,
    fock_lowering,
    fock_number,
    fock_displacement,
    fock_parity,
    basis_vector,
)
from .hamiltonians import (
    ModelParams,
    JCParams,
    jc_hamiltonian,
    jc_constants,
    ith,
    ith_terms,
    frame_rotation,
    rfh,
    rwa_effective,
    kappa_coefficients,
    epsilon_coefficients,
    t1,
    t2,
    t3,
    t_delta,
    bh_reference,
    bh_interaction_term,
    bh_interaction_series,
    bh_series_order,
    bh,
    check_transform,
    h_check_reference,
    h_check_interaction_term,
    h_check_interaction_series,
    h_check,
)
from .engine import (
    chi,
    gamma,
    ClusterAmbiguityError,
    SpectralDecomposition,
    decompose,
    InteractionSeries,
    PerturbativeSolution,
    solve,
    residual_norm,
)
from .closedforms import (
    REGIME_KINDS,
    Regime,
    SecondOrderSpectrum,
    regime_series,
    bh_first_second_order,
    jc_evolutor,
    jc_evolutor_breve,
    rwa_evolutor_fn,
    first_order_evolutor_fn,
    exp_z1,
    sandwich,
    y1_relation,
    spectrum_second_order,
    levels_first_order,
    levels_rwa,
    transition_probability,
    anticrossing_shift,
)
from .oracle import (
    OverlapAmbiguityError,
    ConvergenceFit,
    GapScan,
    exact_eigs,
    exact_propagator_fn,
    time_ordered_sweep,
    frame_chain_fn,
    fit_order,
    scan_gap,
)
from .experiments import (
    EXPERIMENTS,
    DiagnosticError,
    ResultTable,
)

__version__ = "0.1.0"
