"""Ground-truth services the perturbative results are measured against.

Nothing in this module knows about the recursion or the printed formulas:
exact diagonalization, exact and time-ordered propagation, log-log slope
fitting, and anticrossing scans are all direct numerics.  Matching the
algebraically assembled frame-chain propagator against the time-ordered
integrator therefore validates the whole transformation chain without
any perturbation theory in the loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import (
    ConfigError, SpaceConfig, BasisIndex, Operator, pauli,
    _expm_matrix, _below_limit, _hermiticity_defect, _flat_gauge_phases, _into_gauge,
    _require_interior_level,
    GROUND, EXCITED,
)
from .hamiltonians import ModelParams, bh, t_delta, _bh_gauge_parts


class OverlapAmbiguityError(RuntimeError):
    """Exact eigenvectors could not be matched to the requested pair."""


_HERM_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
# minimal squared projection onto span{|n-1,e>, |n,g>} for a confident match
_OVERLAP_THRESHOLD = 0.8
# Fock levels a rung window keeps past its top rung
_WINDOW_MARGIN = 20

_STEPS_PER_UNIT = 40.0  # the Magnus sweeps' default step density
# a Hamiltonian as fixed terms, H(t) = sum_j c_j(t) M_j: (c_j, M_j) pairs
_Terms = Sequence[tuple[Callable[[float], complex], np.ndarray]]
# three-point Gauss-Legendre nodes of the order-6 Magnus step
_ROOT15 = math.sqrt(15.0)
_GAUSS_NODES = (0.5 - _ROOT15 / 10.0, 0.5, 0.5 + _ROOT15 / 10.0)


# -- exact diagonalization and propagation -------------------------------------

def exact_eigs(h: Operator, rungs: Sequence[int] = ()):
    """Ascending eigenvalues and eigenvector matrix of a hermitian operator.

    H is taken into the Fock phase gauge U = diag(i^n) (x) 1, factored
    there by ``_rung_eigs`` with its checks, and the eigenvectors come
    back to the Fock basis by the exact phases of U.  The gauge array,
    in ``_into_gauge``'s dtype, is real symmetric for ``rfh``, ``bh``
    (both routes) and every H0 of the engine, so those take a real
    factorization; any other input (``h_check``, say) is factored complex.

    With no rungs every pair comes back.  Given rungs, only the lowest
    pairs through those that hold the rungs' levels may come back,
    certified against the whole array by ``_window_pairs``: enough for
    ``_rung_levels`` on those rungs, and for nothing that needs every
    pair, such as a propagator.
    """
    values, vectors = _rung_eigs(_into_gauge(h.mat, h.space), rungs)
    return values, _flat_gauge_phases(h.space)[:, None] * vectors


def _rung_eigs(g: np.ndarray, rungs: Sequence[int] = ()):
    """Ascending eigenpairs of a gauge array G = U^dag H U, checked.

    G is symmetrized as (G + G^dag)/2 before factorization, in G's
    dtype.  A hermiticity defect beyond _HERM_TOL, relative to
    max(1, ||G||), or a pair's residual beyond _RESIDUAL_TOL, relative to
    max(1, max|E|), is rejected; the first is a caller bug, never
    silently averaged away.  U is diagonal with phases 1, i, -1, -i, so
    G's entries are H's up to exact quarter turns: every norm, check and
    message is the one H itself would give.

    With no rungs every pair comes from ``_factored``.  Given rungs (n
    for the pair ``_rung_levels`` reads, 0 for the level of |0,g>), one
    leading Fock window is tried, levels 0 through the top rung plus
    _WINDOW_MARGIN, when it fits in half the dimension; its pairs come
    back if ``_window_pairs`` certifies them, and otherwise G is factored
    whole.  So every refusal and message is that of the full route: the
    hermiticity test runs once on all of G, and ``_rung_levels`` picks
    the same levels from either route's pairs.
    """
    mat = _symmetrized(g)
    if rungs and np.isrealobj(mat):
        k = 2 * (max(rungs) + _WINDOW_MARGIN + 1)
        if k <= mat.shape[0] // 2:
            pairs = _window_pairs(mat, k, [_rung_basis(n) for n in rungs])
            if pairs is not None:
                return pairs
    return _factored(mat)


def _symmetrized(g: np.ndarray) -> np.ndarray:
    """(G + G^dag)/2 after ``_rung_eigs``' hermiticity test."""
    defect = _hermiticity_defect(g, _HERM_TOL)
    if defect is not None:
        raise ValueError(f"operator is not hermitian (defect {defect:.2e})")
    return 0.5 * (g + g.conj().T)


def _factored(mat: np.ndarray):
    """Every eigenpair of a symmetrized gauge array, with ``_rung_eigs``'
    residual test: the limit is _RESIDUAL_TOL max(1, max|E|), less
    ``_below_limit``'s margin, the rule ``_window_pairs`` applies; max|E|
    is ||mat||_2, so no spectral norm is taken.
    """
    values, vectors = np.linalg.eigh(mat)
    # factorization residual per pair; eigh leaves ~eps * ||G||
    try:
        with np.errstate(over="raise"):
            worst = np.linalg.norm(mat @ vectors - vectors * values, axis=0).max()
    except FloatingPointError:  # an overflowing residual is infinite
        worst = math.inf
    scale = max(1.0, float(np.abs(values).max()))
    if not _below_limit(worst, _RESIDUAL_TOL * scale):
        raise ArithmeticError(
            f"eigendecomposition residual {worst:.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e} * scale")
    return values, vectors


def _window_pairs(mat: np.ndarray, k: int, bases: list):
    """The certified lowest Ritz pairs of mat's leading k x k block, or None.

    B = mat[:k, :k] = Y diag(theta) Y^T.  For each basis the Ritz vectors
    with the most weight on it are picked by ``_picked``, the rule
    ``_rung_levels`` applies to exact pairs; m is one past the highest
    pick.  The m lowest pairs, each Ritz vector padded by zeros, are
    certified against the whole of mat (Parlett, The Symmetric Eigenvalue
    Problem, SIAM 1998, ch. 4 and 11):

    - each residual r_i = ||mat y_i - theta_i y_i|| is within
      _RESIDUAL_TOL of max(1, max|theta|), which is at most ||mat||_2, so
      each interval [theta_i - r_i, theta_i + r_i] holds an eigenvalue;
    - the m intervals are disjoint and below the cut c, halfway between
      theta_m and theta_{m+1};
    - the Schur complement S = H22 - c - H21 (B - c)^-1 H12, less that
      residual tolerance for rounding, has a Cholesky factor.  Then
      mat - c has exactly the m negative eigenvalues of B - c
      (Haynsworth, Linear Algebra Appl. 1, 73 (1968)), so each interval
      holds exactly one eigenvalue and they are the m lowest;
    - each picked projection exceeds _OVERLAP_THRESHOLD by more than
      s (2 + s), s = r_i / sep_i, where sep_i is the distance from
      theta_i to the other intervals and to c: by Davis and Kahan
      sin(angle) <= s between y_i and its eigenvector, which moves a
      projection by at most that much.  Over 0.8 each, the picked
      eigenvectors outweigh every other on the basis, so the full
      route picks them too.
    """
    try:
        theta, y = np.linalg.eigh(mat[:k, :k])
    except np.linalg.LinAlgError:
        return None
    picks = [_picked(basis, y) for basis in bases]
    m = 1 + max(int(pick.max()) for pick, _ in picks)
    if m >= k:
        return None
    kept, ym = theta[:m], y[:, :m]
    residual = mat[:, :k] @ ym
    residual[:k] -= ym * kept
    res = np.linalg.norm(residual, axis=0)
    tol = _RESIDUAL_TOL * max(1.0, float(np.abs(theta).max()))
    cut = 0.5 * (theta[m - 1] + theta[m])
    if not (_below_limit(float(res.max()), tol)
            and np.all(kept[1:] - res[1:] > kept[:-1] + res[:-1])
            and kept[-1] + res[-1] < cut):
        return None
    coupling = mat[k:, :k] @ y
    schur = mat[k:, k:] - (coupling / (theta - cut)) @ coupling.T
    schur[np.diag_indices_from(schur)] -= cut + tol
    try:
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    others = np.abs(kept[:, None] - kept[None, :]) - res[None, :]
    np.fill_diagonal(others, math.inf)
    sin = res / np.minimum(others.min(axis=1), cut - kept)
    for pick, over in picks:
        if np.any(over[pick] - sin[pick] * (2.0 + sin[pick])
                  <= _OVERLAP_THRESHOLD):
            return None
    vectors = np.zeros((mat.shape[0], m))
    vectors[:k] = ym
    return kept, vectors


def _picked(basis: tuple, vectors: np.ndarray):
    """The len(basis) columns of vectors that project most onto
    span(basis), and every column's squared projection.

    basis holds flat indices; the projections are read off those rows.
    """
    over = sum(np.abs(vectors[flat]) ** 2 for flat in basis)
    return np.argsort(over)[-len(basis):], over


def _rung_basis(n: int) -> tuple:
    """Flat indices of rung n: |n-1,e> and |n,g>, or |0,g> alone at n = 0."""
    if n == 0:
        return (BasisIndex(0, GROUND).flat,)
    return (BasisIndex(n - 1, EXCITED).flat, BasisIndex(n, GROUND).flat)


def _rung_levels(n: int, values: np.ndarray, vectors: np.ndarray,
                 where: str = "") -> tuple:
    """The exact levels of rung n, ascending, matched by overlap.

    Rung n >= 1 is the pair (E_minus, E_plus) that projects most onto
    span{|n-1,e>, |n,g>}; rung 0 is (E0,), the level on |0,g>.  A
    projection under _OVERLAP_THRESHOLD is refused with
    OverlapAmbiguityError instead of guessed; its message names the
    pair, or "level E0", and ends with where.  The callers decide the
    rung's range, with ``_require_interior_level``.
    """
    pick, over = _picked(_rung_basis(n), vectors)
    if over[pick].min() < _OVERLAP_THRESHOLD:
        what = "level E0" if n == 0 else f"pair n={n}"
        raise OverlapAmbiguityError(
            f"{what}: projection {over[pick].min():.3f} < "
            f"{_OVERLAP_THRESHOLD}{where}")
    return tuple(float(e) for e in sorted(values[pick]))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Checked eigenpairs of a hermitian operator, callable as its propagator.

    Ascending eigenvalues E; eigenbasis L = F^dag V, the eigenvectors V
    with any time-independent frame change F folded in; rates r, the
    diagonal of a time-dependent frame rotation (zero when none).  At t
    it is U(t) = diag(e^{-i t r}) L diag(e^{-i t E}) L^dag, one matrix
    product; ``apply`` costs two matrix-vector products.  clusters
    groups the indices ``engine.decompose`` finds degenerate, at its one
    absolute tolerance; only it fills them, ``engine._eigenframe`` checks them.
    The arrays are private read-only copies, so an instance is immutable.
    """

    space: SpaceConfig
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    clusters: tuple | None = None
    rates: np.ndarray | None = None

    def __post_init__(self):
        dim = self.space.dim
        rates = np.zeros(dim) if self.rates is None else self.rates
        for name, value, shape, dtype in (
                ("eigenvalues", self.eigenvalues, (dim,), np.float64),
                ("eigenbasis", self.eigenbasis, (dim, dim), np.complex128),
                ("rates", rates, (dim,), np.float64)):
            arr = np.array(value, dtype=dtype, copy=True)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, need {shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        adjoint = self.eigenbasis.conj().T  # L^dag, formed once
        adjoint.flags.writeable = False
        object.__setattr__(self, "_adjoint", adjoint)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def __call__(self, t: float) -> Operator:
        """U(t) as an operator."""
        u = (self.eigenbasis * np.exp(-1j * t * self.eigenvalues)) @ self._adjoint
        return Operator(np.exp(-1j * t * self.rates)[:, None] * u, self.space)

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        """U(t) psi as a vector, without forming U(t)."""
        coeff = np.exp(-1j * t * self.eigenvalues) * (self._adjoint @ psi)
        return np.exp(-1j * t * self.rates) * (self.eigenbasis @ coeff)


def exact_propagator_fn(h: Operator) -> SpectralDecomposition:
    """t -> expm(-i H t) from one eigendecomposition H = V E V^dag.

    The decomposition itself, with eigenbasis V, no frame and no rotation,
    so each time costs phases and one product; unitary up to rounding.
    It carries no clusters; ``engine.decompose`` adds them.
    """
    values, vectors = exact_eigs(h)
    return SpectralDecomposition(h.space, values, vectors)


def time_ordered_sweep(terms: _Terms,
                       times: Sequence[float], space: SpaceConfig,
                       steps_per_unit: float = _STEPS_PER_UNIT) -> list[Operator]:
    """Propagators U(t_k, 0) of a time-dependent Hamiltonian, one per time.

    One uniform Magnus stepping run from 0 through the times in turn: the
    propagator at t_k continues from the one at t_{k-1} (t_0 = 0), so the
    last time is reached once and every earlier one on the way.  Segment
    [t_{k-1}, t_k] takes ceil(steps_per_unit * |t_k - t_{k-1}|) uniform
    steps, at least one; steps_per_unit must be positive and finite.  The
    times must run monotonically away from 0 (all >= 0 and
    non-decreasing, or all <= 0 and non-increasing).

    The Hamiltonian is given as fixed terms, H(t) = sum_j c_j(t) M_j: a
    sequence of (coefficient, matrix) pairs, each coefficient a scalar
    function of time, and H(t) hermitian at every t.  Each step is the
    sixth-order Magnus step on the three-point Gauss-Legendre rule
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009); global error
    h^6).  With nodes c = 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 and
    A_i = -i H(t_0 + c_i h):

        a1 = h A_2,  a2 = (sqrt(15) h / 3)(A_3 - A_1),
        a3 = (10 h / 3)(A_3 - 2 A_2 + A_1),  C = [a1, a2],
        Omega = a1 + a3/12
                + (1/240) [-20 a1 - a3 + C, a2 - (1/60) [a1, 2 a3 + C]].

    The pairwise commutators [M_j, M_l] are formed once per sweep, so a1,
    a2, a3 and C come from scalar weights on the same fixed matrices, in
    one (4, K) @ (K, dim^2) product: a_k's weights on M_j, and
    a1_j a2_l - a1_l a2_j on [M_j, M_l] for C.  The two remaining
    commutators take four matrix products.  The exponential goes through
    ``expm`` (its docstring states the accuracy): five products when
    ||Omega||_1 <= 0.33, one squaring more per doubling past it, and no
    eigendecomposition.  With one product to apply the step, a step costs
    ten matrix products plus the squarings: twelve at dim 82 and 40 steps
    per unit, where ||Omega||_1 is 1.0-1.3 and takes two.
    """
    if not 0 < steps_per_unit < math.inf:
        raise ValueError("steps_per_unit must be positive and finite")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a non-empty sequence of times")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if not ((np.all(ts >= 0) or np.all(ts <= 0))
            and np.all(np.diff(np.abs(ts)) >= 0)):
        raise ValueError("times must run monotonically away from 0")
    coeffs = [c for c, _ in terms]
    mats = [np.asarray(m) for _, m in terms]
    if not mats:
        raise ValueError("need at least one term")
    if any(m.shape != (space.dim, space.dim) for m in mats):
        raise ValueError(f"every term's matrix must be {space.dim} x {space.dim}")
    n_terms = len(mats)
    js, ls = np.triu_indices(n_terms, 1)  # the pairs j < l
    # Omega's fixed matrices, flattened: the terms, then their commutators
    fixed = np.array([*mats, *(mats[j] @ mats[l] - mats[l] @ mats[j]
                               for j, l in zip(js, ls))], dtype=np.complex128)
    fixed = fixed.reshape(len(fixed), -1)
    weights = np.zeros((4, len(fixed)), dtype=np.complex128)
    u = np.eye(space.dim, dtype=np.complex128)
    out = []
    start = 0.0
    for stop in ts.tolist():
        steps = max(1, math.ceil(steps_per_unit * abs(stop - start)))
        h_step = (stop - start) / steps
        # a1, a2, a3 from -i c_j at the three nodes
        root, curve = _ROOT15 * h_step / 3.0, 10.0 * h_step / 3.0
        mix = -1j * np.array([[0.0, h_step, 0.0], [-root, 0.0, root],
                              [curve, -2.0 * curve, curve]])
        for k in range(steps):
            t0 = start + k * h_step
            at_nodes = np.array([[coef(t0 + node * h_step) for coef in coeffs]
                                 for node in _GAUSS_NODES])
            alpha = mix @ at_nodes
            weights[:3, :n_terms] = alpha
            weights[3, n_terms:] = (alpha[0, js] * alpha[1, ls]
                                    - alpha[0, ls] * alpha[1, js])
            u = _expm_matrix(_magnus6(weights @ fixed, space.dim)) @ u
        out.append(Operator(u, space))
        start = stop
    return out


def _magnus6(stacked: np.ndarray, dim: int) -> np.ndarray:
    """Omega of the sixth-order step from a1, a2, a3 and C = [a1, a2],
    stacked as the rows of a (4, dim^2) array: four matrix products.  Its
    temporaries are freed before the step's exponential is taken."""
    a1, a2, a3, c = stacked.reshape(4, dim, dim)
    inner = 2.0 * a3 + c
    x = c - 20.0 * a1 - a3
    y = a2 - (a1 @ inner - inner @ a1) / 60.0
    return a1 + a3 / 12.0 + (x @ y - y @ x) / 240.0


def frame_chain_fn(p: ModelParams, space: SpaceConfig) -> SpectralDecomposition:
    """t -> lab-frame propagator assembled algebraically, with no time ordering.

    The laser-frame rotation makes the generator static and the balanced
    transform relates it to the balanced Hamiltonian, so the lab propagator
    factorizes as R_t^dag T^dag e^{-i H_bal t} T.  With H_bal = V E V^dag
    and R_t = exp(i omega_L t sigma_z / 2) diagonal, that is the
    decomposition with eigenbasis T^dag V and rates omega_L sigma_z / 2:
    the balanced Hamiltonian is built and diagonalized once per call of
    this builder.  Any disagreement with the time-ordered integrator
    falsifies one of the chain's links.
    """
    td = t_delta(p, space).mat
    values, vectors = exact_eigs(bh(p, space))
    rates = 0.5 * p.omega_L * pauli("z", space).mat.diagonal().real
    return SpectralDecomposition(space, values, td.conj().T @ vectors,
                                 rates=rates)


# -- convergence-order fitting --------------------------------------------------

_CONCLUSIVE_R2 = 0.95


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares power-law fit of residuals over a coupling grid.

    slope and intercept live in log-log coordinates; a fit only counts as
    conclusive when r_squared >= _CONCLUSIVE_R2 = 0.95, below that the
    residual is no power of the coupling and no order can be claimed.
    """

    lambdas: tuple
    residuals: tuple
    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if len(self.lambdas) != len(self.residuals):
            raise ValueError("lambdas and residuals must align")
        if any(r <= 0 for r in self.residuals):
            raise ValueError("residuals must be strictly positive")

    @property
    def conclusive(self) -> bool:
        return self.r_squared >= _CONCLUSIVE_R2


def fit_order(residual_fn: Callable[[float], float],
              grid: Sequence[float]) -> ConvergenceFit:
    """Fit residual_fn(lam) ~ lam^slope over the grid.

    The grid needs at least four strictly positive points.  A residual
    that is zero or negative is rejected: it signals exact cancellation,
    and the caller should shrink whatever tolerance produced it rather
    than have a logarithm invent an order.  So is a grid whose logarithms
    the least-squares fit cannot tell apart (repeated points, say): the
    fit would be rank deficient and its slope arbitrary.
    """
    lambdas = tuple(float(x) for x in grid)
    if len(lambdas) < 4:
        raise ValueError("need at least 4 grid points for a credible fit")
    if any(x <= 0 for x in lambdas):
        raise ValueError("grid must be strictly positive")
    residuals = tuple(float(residual_fn(x)) for x in lambdas)
    for x, r in zip(lambdas, residuals):
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(
                f"residual {r!r} at lam={x!r} is not a positive number; "
                "exact cancellation, shrink the tolerance")
    lx = np.log(lambdas)
    ly = np.log(residuals)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            slope, intercept = np.polyfit(lx, ly, 1)
        except np.exceptions.RankWarning:
            raise ValueError(
                f"grid {lambdas} is too narrow in log(lam) for a fit: "
                "rank-deficient least squares") from None
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ConvergenceFit(lambdas=lambdas, residuals=residuals,
                          slope=float(slope), intercept=float(intercept),
                          r_squared=r2)


# -- anticrossing scans ----------------------------------------------------------

@dataclass(frozen=True)
class GapScan:
    """Exact avoided-crossing gap over a detuning scan.

    detuning_offsets holds the scanned values of b = (delta_breve - nu)/2,
    the pair's diagonal splitting parameter; gaps the exact E_plus - E_minus
    of the tracked pair; argmin the parabola-refined location of the
    smallest gap in the same units.  The vertex of the parabola through
    the three lowest gaps amplifies their ~1e-14 eigensolver rounding
    about 150 sqrt(n) times on the default grid of rung n, so argmin is
    reliable to about 1e-11 sqrt(n) only; compare it at that tolerance,
    not to the last printed digit.  ``scan_gap`` states how closely its
    gaps and argmin agree with factoring the whole array at each offset.
    """

    detuning_offsets: tuple
    gaps: tuple
    argmin: float

    def __post_init__(self):
        if len(self.detuning_offsets) != len(self.gaps):
            raise ValueError("detuning_offsets and gaps must align")
        if any(g < 0 for g in self.gaps):
            raise ValueError("gaps are magnitudes; got a negative entry")


def _parabolic_argmin(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Vertex of the parabola through the three lowest points.

    The parabola is fitted in u = (x - x_best) / spread, centred on the
    best sample and scaled by the three points' spread, so its
    conditioning does not depend on the offsets' size.  The arithmetic
    is Python float arithmetic, which warns on nothing; three points
    that fix no upward parabola give the best sample.
    """
    grid_best = xs[int(np.argmin(ys))]
    if len(xs) < 3:
        return grid_best
    x0 = float(grid_best)
    pick = np.argsort(ys)[:3]
    spread = max(abs(float(xs[i]) - x0) for i in pick)
    if not 0.0 < spread < math.inf:
        return grid_best
    (u0, y0), (u1, y1), (u2, y2) = sorted(
        ((float(xs[i]) - x0) / spread, float(ys[i])) for i in pick)
    if not u0 < u1 < u2:
        return grid_best
    d01 = (y1 - y0) / (u1 - u0)
    curv = ((y2 - y1) / (u2 - u1) - d01) / (u2 - u0)
    if not (math.isfinite(curv) and curv > 0):
        return grid_best
    vertex = x0 + spread * 0.5 * (u0 + u1 - d01 / curv)
    lo, hi = min(xs), max(xs)
    return min(max(vertex, lo), hi)


def scan_gap(n: int, p_base: ModelParams, offsets: Sequence[float],
             space: SpaceConfig) -> GapScan:
    """Exact gap of the n-th avoided pair as the detuning mismatch is swept.

    Each offset sets delta_breve = nu + 2*offset while the couplings lam
    and eta_breve keep their p_base values (the physical drive parameters
    are recomputed to match), so the scan moves only the pair's diagonal
    splitting.  Sweeping at fixed Rabi frequency instead would drag
    eta_breve along delta_breve and displace the gap minimum by
    ~lam^2 eta_breve n^2, swamping the effect being located.  Levels are
    matched to the pair by ``_rung_levels``.  A rung past the interior
    is refused by ``_require_interior_level``; an offset that drives
    delta_breve to 0 or below, or whose rebuilt drive Omega_R underflows
    to 0, is a ConfigError naming it.

    At fixed nu, lam and eta_breve, Delta = eta_breve/lam and eta stay
    fixed too, and only Omega_R = delta_breve/sqrt(4 + Delta^2) moves, so
    ``bh`` in the Fock phase gauge is F + Omega_R D at every offset.
    ``hamiltonians._bh_gauge_parts`` builds F and D once, from the first
    offset the checks above let through.  Each offset's F + Omega_R D
    goes to ``_rung_eigs`` for rung n, so its pairs are certified against
    the whole array by ``_window_pairs``, and the whole array takes the
    hermiticity test.  Against factoring the whole array at each offset
    the gaps agree to 5e-14 and argmin to 1.6e-11 (the vertex amplifies
    gap rounding about 150 sqrt(n) times), over rungs 1, 3, 10 and 30 at
    dim 242, lam 0.05 and eta_breve 0 and 0.03.  Empty offsets are a
    ValueError, raised before any work.
    """
    if len(offsets) == 0:
        raise ValueError("offsets must hold at least one offset")
    _require_interior_level(n, 1, space, "rung n")
    nu, lam, eta_b = p_base.nu, p_base.lam, p_base.eta_breve
    parts = None
    gaps = []
    for off in offsets:
        db = nu + 2.0 * float(off)
        if db <= 0:
            raise ConfigError(
                f"offset {float(off):g} drives delta_breve to {float(db):g} <= 0")
        p = ModelParams.from_balanced(nu, db, eta_b, lam)
        if p.Omega_R == 0:
            raise ConfigError(
                f"offset {float(off):g} rebuilds the drive at delta_breve "
                f"{db:g}, where Omega_R underflows to 0")
        if parts is None:  # from the first offset its checks let through
            parts = _bh_gauge_parts(p, space)
        fixed, drive = parts
        # the gauge's phases leave the overlaps |v|^2 as they are
        values, vectors = _rung_eigs(fixed + p.Omega_R * drive, (n,))
        lo, hi = _rung_levels(n, values, vectors, f" at offset {off!r}")
        gaps.append(float(hi - lo))
    offs = tuple(float(x) for x in offsets)
    return GapScan(detuning_offsets=offs, gaps=tuple(gaps),
                   argmin=float(_parabolic_argmin(offs, gaps)))
