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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import (
    SpaceConfig, Operator, basis_vector, op_norm, pauli, _expm_matrix,
    GROUND, EXCITED,
)
from .hamiltonians import ModelParams, bh, t_delta


class OverlapAmbiguityError(RuntimeError):
    """Exact eigenvectors could not be matched to the requested pair."""


_HERM_TOL = 1e-10
# minimal squared projection onto span{|n-1,e>, |n,g>} for a confident match
_OVERLAP_THRESHOLD = 0.8

# Gauss-Legendre nodes of the order-4 Magnus step
_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0


# -- exact diagonalization and propagation -------------------------------------

def exact_eigs(h: Operator, herm_tol: float = _HERM_TOL):
    """Ascending eigenvalues and eigenvector matrix of a hermitian operator.

    The matrix is symmetrized as (H + H^dag)/2 before factorization;
    a hermiticity defect beyond herm_tol (relative to max(1, ||H||)) is a
    caller bug and is rejected rather than silently averaged away.
    """
    scale = max(1.0, op_norm(h))
    defect = op_norm(h - h.dag)
    if defect > herm_tol * scale:
        raise ValueError(f"operator is not hermitian (defect {defect:.2e})")
    sym = 0.5 * (h.mat + h.mat.conj().T)
    values, vectors = np.linalg.eigh(sym)
    # factorization residual per pair; eigh leaves ~eps * ||H||
    try:
        with np.errstate(over="raise"):
            worst = np.linalg.norm(sym @ vectors - vectors * values, axis=0).max()
    except FloatingPointError:  # an overflowing residual is infinite
        worst = math.inf
    if not worst <= 1e-10 * scale:
        raise ArithmeticError(
            f"eigendecomposition residual {worst:.3e} exceeds 1e-10 * scale")
    return values, vectors


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Checked eigenpairs of a hermitian operator, callable as its propagator.

    Ascending eigenvalues E; eigenbasis L = F^dag V, the eigenvectors V
    with any time-independent frame change F folded in; rates r, the
    diagonal of a time-dependent frame rotation (zero when none).  At t
    it is U(t) = diag(e^{-i t r}) L diag(e^{-i t E}) L^dag, one matrix
    product; ``apply`` costs two matrix-vector products.  clusters
    groups the indices degenerate within eps_deg; only
    ``engine.decompose`` fills them, and the block methods need them.
    The arrays are private read-only copies, so one instance is safely
    shared between threads.
    """

    space: SpaceConfig
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    clusters: tuple | None = None
    eps_deg: float | None = None
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

    def _require_clusters(self) -> None:
        if self.clusters is None or self.eps_deg is None:
            raise ValueError("needs the clusters of engine.decompose; "
                             "this decomposition has none")

    def reconstruct(self) -> Operator:
        """L E L^dag: the operator, in the frame F if one is folded in."""
        return Operator((self.eigenbasis * self.eigenvalues) @ self._adjoint,
                        self.space)

    def intra_mask(self) -> np.ndarray:
        """Boolean matrix: True where row and column index share a cluster."""
        self._require_clusters()
        labels = np.empty(self.dim, dtype=int)
        for i, cluster in enumerate(self.clusters):
            labels[list(cluster)] = i
        return labels[:, None] == labels[None, :]

    def projector(self, m: int) -> np.ndarray:
        self._require_clusters()
        cols = self.eigenbasis[:, list(self.clusters[m])]
        return cols @ cols.conj().T

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


def exact_propagator(h: Operator, t: float) -> Operator:
    """expm(-i H t) = V e^{-i E t} V^dag; see ``exact_propagator_fn``."""
    return exact_propagator_fn(h)(t)


def time_ordered_sweep(h_fn: Callable[[float], np.ndarray],
                       times: Sequence[float], space: SpaceConfig,
                       steps_per_unit: float = 200.0,
                       order: int = 2) -> list[Operator]:
    """Propagators U(t_k, 0) of a time-dependent Hamiltonian, one per time.

    One uniform Magnus stepping run from 0 through the times in turn: the
    propagator at t_k continues from the one at t_{k-1} (t_0 = 0), so the
    last time is reached once and every earlier one on the way.  Segment
    [t_{k-1}, t_k] takes ceil(steps_per_unit * |t_k - t_{k-1}|) uniform
    steps, at least one.  The times must run monotonically away from 0
    (all >= 0 and non-decreasing, or all <= 0 and non-increasing).

    h_fn maps a time to the (hermitian) Hamiltonian matrix.  order=2
    exponentiates the midpoint Hamiltonian on each step (global error h^2);
    order=4 uses the two-point Gauss-Legendre rule with its commutator
    term (global error h^4, what the acceptance-grade comparisons use).
    Either way the step's Magnus exponent goes through ``expm``.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if steps_per_unit <= 0:
        raise ValueError("steps_per_unit must be positive")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a non-empty sequence of times")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if not ((np.all(ts >= 0) or np.all(ts <= 0))
            and np.all(np.diff(np.abs(ts)) >= 0)):
        raise ValueError("times must run monotonically away from 0")
    u = np.eye(space.dim, dtype=np.complex128)
    out = []
    start = 0.0
    for stop in ts.tolist():
        steps = max(1, math.ceil(steps_per_unit * abs(stop - start)))
        h_step = (stop - start) / steps
        for k in range(steps):
            t0 = start + k * h_step
            if order == 2:
                hm = np.asarray(h_fn(t0 + 0.5 * h_step))
                omega = -1j * h_step * hm
            else:
                h1 = np.asarray(h_fn(t0 + _GAUSS_LO * h_step))
                h2 = np.asarray(h_fn(t0 + _GAUSS_HI * h_step))
                omega = (-0.5j * h_step * (h1 + h2)
                         + (math.sqrt(3.0) / 12.0) * h_step * h_step
                         * (h1 @ h2 - h2 @ h1))
            u = _expm_matrix(omega) @ u
        out.append(Operator(u, space))
        start = stop
    return out


def time_ordered_propagator(h_fn: Callable[[float], np.ndarray], t: float,
                            space: SpaceConfig, steps_per_unit: float = 200.0,
                            order: int = 2) -> Operator:
    """Propagator U(t, 0) by uniform Magnus stepping: a one-time sweep.

    The step count is ceil(steps_per_unit * |t|), at least one; see
    ``time_ordered_sweep`` for the steps and the orders.
    """
    return time_ordered_sweep(h_fn, [t], space, steps_per_unit, order)[0]


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


def frame_chain_propagator(t: float, p: ModelParams,
                           space: SpaceConfig) -> Operator:
    """R_t^dag T^dag e^{-i H_bal t} T at one time; see ``frame_chain_fn``."""
    return frame_chain_fn(p, space)(t)


# -- convergence-order fitting --------------------------------------------------

@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares power-law fit of residuals over a coupling grid.

    slope and intercept live in log-log coordinates; a fit only counts as
    conclusive when r_squared >= 0.95, below that the residual is not
    behaving like a power of the coupling and no order can be claimed.
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
        return self.r_squared >= 0.95


def fit_order(residual_fn: Callable[[float], float],
              grid: Sequence[float]) -> ConvergenceFit:
    """Fit residual_fn(lam) ~ lam^slope over the grid.

    The grid needs at least four strictly positive points.  A residual
    that is zero or negative is rejected: it signals exact cancellation,
    and the caller should shrink whatever tolerance produced it rather
    than have a logarithm invent an order.
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
    slope, intercept = np.polyfit(lx, ly, 1)
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
    about 150x, so argmin is reliable to about 1e-11 only; compare it at
    that tolerance, not to the last printed digit.
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
    """Vertex of the parabola through the three lowest points."""
    grid_best = xs[int(np.argmin(ys))]
    if len(xs) < 3:
        return grid_best
    pick = np.argsort(ys)[:3]
    x3 = np.asarray([xs[i] for i in pick], dtype=float)
    y3 = np.asarray([ys[i] for i in pick], dtype=float)
    if len(set(x3)) < 3:
        return grid_best
    a, b, _ = np.polyfit(x3, y3, 2)
    if not (math.isfinite(a) and a > 0):
        return grid_best
    vertex = -b / (2.0 * a)
    lo, hi = min(xs), max(xs)
    return min(max(vertex, lo), hi)


def _rung_levels(n: int, values: np.ndarray, vectors: np.ndarray,
                space: SpaceConfig, where: str = "") -> tuple[float, float]:
    """The exact pair (E_minus, E_plus) of rung n, matched by overlap.

    The two eigenvectors with the largest squared projection onto
    span{|n-1,e>, |n,g>} are the rung's levels; a projection under 0.8 is
    refused with OverlapAmbiguityError instead of guessed.  where is
    appended to the error message.
    """
    va = basis_vector(space, n - 1, EXCITED)
    vb = basis_vector(space, n, GROUND)
    overlap = (np.abs(vectors.conj().T @ va) ** 2
               + np.abs(vectors.conj().T @ vb) ** 2)
    pick = np.argsort(overlap)[-2:]
    if overlap[pick].min() < _OVERLAP_THRESHOLD:
        raise OverlapAmbiguityError(
            f"pair n={n}: projection {overlap[pick].min():.3f} < "
            f"{_OVERLAP_THRESHOLD}{where}")
    lo, hi = sorted(values[pick])
    return float(lo), float(hi)


def scan_gap(n: int, p_base: ModelParams, offsets: Sequence[float],
             space: SpaceConfig | None = None) -> GapScan:
    """Exact gap of the n-th avoided pair as the detuning mismatch is swept.

    Each offset sets delta_breve = nu + 2*offset while the couplings lam
    and eta_breve keep their p_base values (the physical drive parameters
    are recomputed to match), so the scan moves only the pair's diagonal
    splitting.  Sweeping at fixed Rabi frequency instead would drag
    eta_breve along delta_breve and displace the gap minimum by
    ~lam^2 eta_breve n^2, swamping the effect being located.  Levels are
    matched to the pair by ``_rung_levels``.
    """
    if n < 1:
        raise ValueError("the bottom level is unpaired; need n >= 1")
    if space is None:
        space = SpaceConfig()
    nu, lam, eta_b = p_base.nu, p_base.lam, p_base.eta_breve
    gaps = []
    for off in offsets:
        db = nu + 2.0 * float(off)
        if db <= 0:
            raise ValueError(
                f"offset {float(off):g} drives delta_breve to {float(db):g} <= 0")
        p = ModelParams.from_balanced(nu, db, eta_b, lam)
        values, vectors = exact_eigs(bh(p, space))
        lo, hi = _rung_levels(n, values, vectors, space, f" at offset {off!r}")
        gaps.append(float(hi - lo))
    offs = tuple(float(x) for x in offsets)
    return GapScan(detuning_offsets=offs, gaps=tuple(gaps),
                   argmin=float(_parabolic_argmin(offs, gaps)))
