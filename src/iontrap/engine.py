"""Recursive constants-of-motion solver for perturbed Hamiltonians.

Given an exactly solvable H0 and an interaction series H(lam) = H0 + sum_m
lam^m H_m, find order by order hermitian C_n (commuting with H0) and
generators Z_n such that

    e^{i Z(lam)} H(lam) e^{-i Z(lam)} = H0 + C(lam) + O(lam^{N+1}),
    Z(lam) = sum lam^n Z_n,   C(lam) = sum lam^n C_n.

At each order the data is a single operator G_n built from nested commutators
of the previous generators with the series terms; C_n is its block-diagonal
part over the degenerate eigenspaces of H0 and Z_n solves
i[Z_n, H0] = -(off-diagonal part of G_n).  Z_n is fixed uniquely by zeroing
its block-diagonal part (the minimal solution); any other gauge works but
changes the higher orders.

The solver diagonalizes H0 once and works in that eigenbasis, where the
block split is a mask and the Z equation is division by eigenvalue
differences, taken in the Fock phase gauge U = diag(i^n) (x) 1: there
``regime_series`` and its solutions are real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    Operator, _expm_matrix, _flat_gauge_phases, _hermiticity_defect,
    _interior_size, _into_gauge, _out_of_gauge, _real_if_exact,
)
from .oracle import SpectralDecomposition, exact_eigs


class ClusterAmbiguityError(RuntimeError):
    """An energy gap falls in the ambiguous band of the degeneracy test."""


# the one degeneracy tolerance, absolute
_EPS_DEG = 1e-8


def _require_space(what: str, space, ref: str, ref_space) -> None:
    """ValueError naming both spaces unless they are one space."""
    if space != ref_space:
        raise ValueError(f"{what} space {space} != {ref} space {ref_space}")


def _degenerate(gap, what: str = "energy gap"):
    """Elementwise: True where |gap| <= _EPS_DEG, False where |gap| >=
    3 _EPS_DEG; a gap in the ambiguous band between raises
    ClusterAmbiguityError, naming the first one as ``what``."""
    size = np.abs(gap)
    grey = (size > _EPS_DEG) & (size < 3.0 * _EPS_DEG)
    if np.any(grey):
        raise ClusterAmbiguityError(
            f"{what} {float(size[grey].flat[0]):.3e} is inside the "
            f"ambiguous band ({_EPS_DEG:.1e}, {3 * _EPS_DEG:.1e})")
    return size <= _EPS_DEG


def chi(x: float) -> float:
    """Indicator of a degenerate gap: 1 if ``_degenerate(x)`` else 0, so
    |x| <= 1e-8 reads 1, |x| >= 3e-8 reads 0 and a gap between raises."""
    return 1.0 if _degenerate(x) else 0.0


def gamma(x: float) -> float:
    """Regularized reciprocal: 0 if ``_degenerate(x)`` else 1/x, so
    gamma(x)*x = 1 - chi(x) wherever ``chi`` does not raise."""
    return 0.0 if _degenerate(x) else 1.0 / x


def decompose(h0: Operator) -> SpectralDecomposition:
    """Diagonalize a hermitian operator and cluster degenerate eigenvalues.

    The eigenpairs come from ``exact_eigs``, with its checks; this is the
    one builder of clusters, and ``_eigenframe`` checks them on first use.
    Adjacent eigenvalues share a cluster when ``_degenerate`` calls their
    gap a degeneracy; a gap in its ambiguous band, or chained merging into
    a cluster wider than _EPS_DEG, raises ClusterAmbiguityError.
    """
    w, v = exact_eigs(h0)
    # a cluster starts at 0 and after every gap that is no degeneracy
    cuts = np.flatnonzero(~_degenerate(np.diff(w), "eigenvalue gap")) + 1
    bounds = [0, *cuts.tolist(), w.size]
    clusters = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    spread = max(w[c[-1]] - w[c[0]] for c in clusters)
    if spread > _EPS_DEG:
        raise ClusterAmbiguityError(
            f"chained near-degeneracies span {spread:.3e} > {_EPS_DEG:.1e}; "
            "no consistent clustering at this tolerance")
    return SpectralDecomposition(h0.space, w, v, clusters=clusters)


@dataclass(frozen=True)
class InteractionSeries:
    """Ordered interaction terms H_1, H_2, ...; term m multiplies lam^m.
    Each enters the gauge once, here; the engine reads only those arrays."""

    terms: tuple
    _gauge: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("an interaction series needs at least one term")
        for m, term in enumerate(self.terms, start=1):
            if not isinstance(term, Operator):
                raise TypeError(f"series term {m} is not an Operator")
            if _hermiticity_defect(term.mat, 1e-12) is not None:
                raise ValueError(f"series term {m} is not hermitian")
        spaces = {term.space for term in self.terms}
        if len(spaces) > 1:
            raise ValueError("series terms live on different spaces")
        object.__setattr__(self, "_gauge", tuple(
            _into_gauge(term.mat, term.space) for term in self.terms))

    def evaluate(self, lam: float) -> Operator:
        return _out_of_gauge(_lam_sum(lam, self._gauge), self.terms[0].space)


class PerturbativeSolution:
    """Constants of motion C_1..C_N and minimal generators Z_1..Z_N.

    Each order is stored once, in the gauge: U^dag C_n U and Y_n =
    U^dag (i Z_n) U, in the dtype ``_into_gauge`` gives them (real for
    ``regime_series``, Y_n antisymmetric).  ``C``, ``Z``, ``generator``
    and ``constant`` leave the gauge when read and keep nothing.  Built
    from the Operators C_n and Z_n, it takes them into the gauge once
    (the benchmark's self-test builds a spoiled solution so); ``solve``
    hands over its gauge arrays through ``_in_gauge``.
    """

    __slots__ = ("order", "_space", "_c", "_y")

    def __init__(self, order: int, C, Z):
        self.order, self._space = order, C[0].space
        self._c = tuple(_into_gauge(c.mat, self._space) for c in C)
        self._y = tuple(_into_gauge(1j * z.mat, self._space) for z in Z)

    @classmethod
    def _in_gauge(cls, order: int, space, c: list, y: list):
        sol = cls.__new__(cls)
        sol.order, sol._space, sol._c, sol._y = order, space, tuple(c), tuple(y)
        return sol

    @property
    def C(self) -> tuple:
        return tuple(_out_of_gauge(c, self._space) for c in self._c)

    @property
    def Z(self) -> tuple:
        return tuple(_out_of_gauge(-1j * y, self._space) for y in self._y)

    def generator(self, lam: float, upto: int | None = None) -> Operator:
        """W = sum_{k<=upto} lam^k Z_k."""
        return _out_of_gauge(-1j * _lam_sum(lam, self._y, upto), self._space)

    def constant(self, lam: float, upto: int | None = None) -> Operator:
        """C(lam) truncated at order upto."""
        return _out_of_gauge(_lam_sum(lam, self._c, upto), self._space)


def _lam_sum(lam: float, mats, upto: int | None = None) -> np.ndarray:
    """sum_{k<=upto} lam^k mats[k-1] (all terms by default), from k = 1 up,
    in the arrays' common dtype."""
    n = len(mats) if upto is None else upto
    if not 1 <= n <= len(mats):
        raise ValueError(f"upto must be in 1..{len(mats)}, got {n}")
    lam = float(lam)
    total = np.multiply(mats[0], lam, dtype=np.result_type(*mats[:n]))
    for k in range(2, n + 1):
        total += mats[k - 1] * lam ** k
    return total


def diagonal_split(G: Operator, spec: SpectralDecomposition):
    """Split G into Sum_m P_m G P_m and the rest.

    G enters the gauge and H0's eigenbasis through ``_eigenframe``, keeps
    its intra-cluster entries and leaves both again, as in ``solve``.
    Returns (block_diag, off_diag), on the decomposition's space; they
    add back to G exactly since the off part is the difference.
    """
    _require_space("operator", G.space, "decomposition", spec.space)
    to_eig, from_eig, _, mask = _eigenframe(spec)
    block_op = _out_of_gauge(
        from_eig(to_eig(_into_gauge(G.mat, G.space)) * mask), G.space)
    return block_op, G - block_op


# rows per block of the banded product
_BAND_BLOCK = 32


class _Banded:
    """A dense matrix with bounds on its lower and upper bandwidth.

    Entries (j, k) with k - j < -lower or k - j > upper are exact zeros.
    The bounds are read from the exact zeros once, when the matrix is
    made, and carried through products; only the arithmetic follows them.
    """

    __slots__ = ("mat", "lower", "upper")

    def __init__(self, mat: np.ndarray, lower: int | None = None,
                 upper: int | None = None):
        if lower is None or upper is None:
            rows, cols = np.nonzero(mat)
            offsets = cols - rows
            lower = max(0, -int(offsets.min())) if offsets.size else 0
            upper = max(0, int(offsets.max())) if offsets.size else 0
        self.mat, self.lower, self.upper = mat, lower, upper


def _add_commutator(out: _Banded, z: _Banded, x: _Banded) -> None:
    """out += [z, x] = z x - x z, multiplying only where the bands reach.

    Both products have the band of the sums of the operands' bands, and
    out's band grows to cover it.  Rows r0..r1 of Z reach the rows
    r0 - lower_Z .. r1 + upper_Z of X (and the other way round), so each
    block of _BAND_BLOCK rows is two small dense products, subtracted
    before they are added in place, as in the dense z @ x - x @ z.  A full
    band clamps the slices to whole rows and columns.
    """
    n = out.mat.shape[0]
    lower = min(z.lower + x.lower, n - 1)
    upper = min(z.upper + x.upper, n - 1)
    out.lower, out.upper = max(out.lower, lower), max(out.upper, upper)
    for r0 in range(0, n, _BAND_BLOCK):
        rows = slice(r0, min(r0 + _BAND_BLOCK, n))
        cols = slice(max(0, r0 - lower), min(n, rows.stop + upper))
        kz = slice(max(0, r0 - z.lower), min(n, rows.stop + z.upper))
        kx = slice(max(0, r0 - x.lower), min(n, rows.stop + x.upper))
        out.mat[rows, cols] += (z.mat[rows, kz] @ x.mat[kz, cols]
                                - x.mat[rows, kx] @ z.mat[kx, cols])


def _assemble_G(n: int, h0: _Banded, terms: list, y_mats: list) -> np.ndarray:
    """G_n: the lam^n coefficient of e^{iZ} H e^{-iZ} without i[Z_n, H0].

    Lie-transform recurrence (Deprit): with row_0[k] = H_k (H_0 = h0,
    H_m = terms[m-1], zero beyond the stored terms) and Y_p = i Z_p,
    row_j[k] = (1/j) sum_{p=1}^{min(k, len(y_mats))} [Y_p, row_{j-1}[k-p]]
    is the lam^k coefficient of (i ad_Z)^j H / j!, and G_n = sum_j row_j[n],
    in the operands' common dtype: real for real operands.  Each nested
    commutator is computed once, by ``_add_commutator`` on the bands, so
    order n costs O(n^3) banded commutators.  Bounding p by the number of
    known generators leaves out the unknown i[Z_n, H0] term.  The row is
    updated in place from the top, since row_j[k] reads only lower entries
    of row_{j-1}; None marks a zero entry.  Each row_j[n] is added into one
    array as it is made, and H_n last; the sum carries no band.
    """
    dtype = np.result_type(*(b.mat for b in (h0, *terms, *y_mats)))
    row = [h0] + [terms[m - 1] if m <= len(terms) else None
                  for m in range(1, n + 1)]
    h_n, total = row[n], None
    for j in range(1, n + 1):
        for k in range(n, j - 1, -1):
            acc = None
            for p in range(1, min(k, len(y_mats)) + 1):
                x, y = row[k - p], y_mats[p - 1]
                if x is not None:
                    if acc is None:
                        acc = _Banded(np.zeros(h0.mat.shape, dtype), 0, 0)
                    _add_commutator(acc, y, x)
            if acc is not None:
                acc.mat *= 1.0 / j
            row[k] = acc
        row[j - 1] = None
        # row_j[n] is a fresh array that nothing reads again
        if row[n] is not None:
            total = (row[n].mat if total is None
                     else np.add(total, row[n].mat, out=total))
    # H_n last, the order of the explicit sums for G_1 and G_2
    if h_n is not None:
        total = (h_n.mat.astype(dtype) if total is None
                 else np.add(total, h_n.mat, out=total))
    return np.zeros(h0.mat.shape, dtype) if total is None else total


def build_G(n: int, h0: Operator, series: InteractionSeries, z_prev: list) -> Operator:
    """The order-n data operator G_n, with the i[Z_n, H0] term left out.

    G_n is the lam^n coefficient of e^{iZ} H(lam) e^{-iZ} with
    Z = sum_{k<n} lam^k Z_k, H_0 = h0 and H_m = 0 beyond the stored series
    terms.  z_prev must hold Z_1..Z_{n-1}; they and the series must live
    on H0's space.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if len(z_prev) != n - 1:
        raise ValueError(f"expected {n-1} previous generators, got {len(z_prev)}")
    _require_space("series", series.terms[0].space, "H0", h0.space)
    for k, z in enumerate(z_prev, 1):
        _require_space(f"Z_{k}", z.space, "H0", h0.space)
    total = _assemble_G(n, _Banded(h0.mat),
                        [_Banded(t.mat) for t in series.terms],
                        [_Banded(1j * z.mat) for z in z_prev])
    return Operator(total, h0.space)


def _rotations(v: np.ndarray):
    """The basis changes X -> v^dag X v and Y -> v Y v^dag.

    When v is an exact 0/1 permutation (v[rows[a], a] = 1), as every
    ``regime_series`` H0's gauge eigenbasis is, each change is an indexing,
    since each entry of the dense products sums one exact product with
    exact zeros: the same numbers, up to the sign of a zero.  Any other v
    (phased, mixed within clusters, dense) takes the two dense products.
    """
    rows = v.argmax(axis=0)
    back = np.argsort(rows)
    if np.array_equal(v[:, back], np.eye(v.shape[1])):
        return ((lambda x: x[np.ix_(rows, rows)]),
                (lambda y: y[np.ix_(back, back)]))
    vd = v.conj().T
    return (lambda x: vd @ x @ v), (lambda y: v @ y @ vd)


def _eigenframe(spec: SpectralDecomposition):
    """The engine's one entry for a decomposition: the ``_rotations`` of
    its gauge eigenbasis, H0 in the gauge and the cluster mask.

    The clusters must be those of ``decompose``: none, or clusters that
    do not partition the indices, is a ValueError.  The mask is True where
    row and column index share a cluster.  The gauge eigenbasis is U^dag L,
    in the dtype ``_real_if_exact`` gives it: for a decomposition of
    ``exact_eigs``, bit for bit the eigenvectors it factored, since U's
    phases are exact.  All four are fixed for a decomposition, so this one
    caller of ``_rotations`` forms them on its first ``solve``,
    ``residual_norm`` or ``diagonal_split`` and keeps them on it; a
    decomposition the engine never reads (a propagator's) pays nothing.
    """
    frame = spec.__dict__.get("_eigenframe")
    if frame is None:
        clusters = spec.clusters
        if clusters is None:
            raise ValueError("needs the clusters of engine.decompose; "
                             "this decomposition has none")
        flat = [i for cluster in clusters for i in cluster]
        if sorted(flat) != list(range(spec.dim)):
            raise ValueError(f"the clusters do not partition range({spec.dim})")
        labels = np.repeat(np.arange(len(clusters)),
                           [len(c) for c in clusters])[np.argsort(flat)]
        mask = labels[:, None] == labels[None, :]
        to_eig, from_eig = _rotations(_real_if_exact(
            _flat_gauge_phases(spec.space).conj()[:, None] * spec.eigenbasis))
        h0 = from_eig(np.diag(spec.eigenvalues))
        h0.flags.writeable = mask.flags.writeable = False
        frame = (to_eig, from_eig, h0, mask)
        object.__setattr__(spec, "_eigenframe", frame)
    return frame


def solve(spec: SpectralDecomposition, series: InteractionSeries,
          N: int) -> PerturbativeSolution:
    """Run the recursion to order N (cluster mask, minimal gauge).

    The cluster mask of ``_eigenframe`` marks the entries of G_n that
    commute with H0: they form C_n, and the rest is solved away by
    (Z_n)_{jk} = i (G_n)_{jk} / (E_k - E_j), kept as Y_n = i Z_n; within
    a cluster Z_n is 0.  ``decompose`` cuts clusters where ``_degenerate``
    does, so this is the chi/gamma weighting of every E_k - E_j.  The
    series' gauge arrays enter H0's eigenbasis, and C_n, Y_n leave it,
    through the ``_rotations`` of the gauge eigenbasis U^dag V (for every
    ``regime_series`` H0 a 0/1 permutation, so an indexing), in the
    dtype the arrays come in: real for ``regime_series``, complex for a
    complex series or an eigenbasis mixed within clusters.  Each Y_n's
    band is read once, for ``_assemble_G``.  The series must live on the
    decomposition's space.
    """
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    _require_space("series", series.terms[0].space, "decomposition",
                   spec.space)
    w = spec.eigenvalues
    to_eig, from_eig, _, mask = _eigenframe(spec)
    # eigenvalue-difference matrix E(k) - E(j) at entry (j, k)
    diff = w[None, :] - w[:, None]
    inv_diff = np.divide(1.0, diff, out=np.zeros_like(diff), where=~mask)
    h0_eig = _Banded(np.diag(w), 0, 0)
    terms_eig = [_Banded(to_eig(term)) for term in series._gauge[:N]]

    c_gauge, y_gauge, y_mats = [], [], []
    for n in range(1, N + 1):
        g = _assemble_G(n, h0_eig, terms_eig, y_mats)
        g = (g + g.conj().T) / 2
        y_eig = -inv_diff * np.where(mask, 0.0, g)
        y_mats.append(_Banded(y_eig))
        c_gauge.append(from_eig(np.where(mask, g, 0.0)))
        y_gauge.append(from_eig(y_eig))
    return PerturbativeSolution._in_gauge(N, spec.space, c_gauge, y_gauge)


def assemble(h0: Operator, sol: PerturbativeSolution, lam: float, n: int):
    """Dress H0 and the constant back toward the interacting frame.

    Returns (H0n, Cn_op) = (e^{-iW} H0 e^{iW}, e^{-iW} C(lam) e^{iW}) with
    W = sum_{k<=n} lam^k Z_k.  The pair commutes like (H0, C) does and their
    sum approximates H(lam) to O(lam^{n+1}).  Both are dressed in the gauge,
    where e^{-iW} = e^{-Y(lam)}, Y(lam) = sum lam^k Y_k, by the exponential
    of ``residual_norm``.  An n outside 1..sol.order, or an H0 off the
    solution's space, is a ValueError.
    """
    _require_space("H0", h0.space, "solution", sol._space)
    u = _expm_matrix(-_lam_sum(lam, sol._y, n))
    c = _lam_sum(lam, sol._c, n)
    h0g = _into_gauge(h0.mat, h0.space)
    return tuple(_out_of_gauge(u @ x @ u.conj().T, h0.space) for x in (h0g, c))


def residual_norm(spec: SpectralDecomposition, series: InteractionSeries,
                  sol: PerturbativeSolution, lam: float,
                  upto: int | None = None,
                  n_keep: int | None = None) -> float:
    """Interior norm of e^{iW} H(lam) e^{-iW} - H0 - C(lam) at order upto.

    This is the quantity whose lam-scaling certifies the order of the
    solution: O(lam^{n+1}) for a correct order-n run.  n_keep pins the
    measurement window to a fixed Fock cutoff so residuals computed on
    different truncations stay comparable.

    It sums the gauge arrays the series and the solution store, with no
    gauge entry and no Operator: H0 from ``_eigenframe``, H = H0 + sum
    lam^k H_k and e^{iW} = e^{Y(lam)}, real orthogonal for
    ``regime_series``, whose interior rows alone dress H.  The residual is
    hermitian, so its norm is the largest |eigenvalue| of the symmetrized
    block: within 1.1e-13 ||H||_2 of scipy's expm and an SVD on the lam
    grid 0.02-0.16 at dim 242, orders 1-6.  The series and the solution
    must live on the decomposition's space.
    """
    _require_space("series", series.terms[0].space, "decomposition",
                   spec.space)
    _require_space("solution", sol._space, "decomposition", spec.space)
    n = sol.order if upto is None else upto
    k = _interior_size(spec.space, n_keep)
    u = _expm_matrix(_lam_sum(lam, sol._y, n))[:k]
    c = _lam_sum(lam, [c[:k, :k] for c in sol._c], n)
    _, _, h0, _ = _eigenframe(spec)
    h = h0 + _lam_sum(lam, series._gauge)
    resid = u @ h @ u.conj().T - h0[:k, :k] - c
    values = np.linalg.eigvalsh(0.5 * (resid + resid.conj().T))
    return float(max(-values[0], values[-1]))
