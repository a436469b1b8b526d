"""Property tests: numbers the library computes two ways agree over the
parameter space, not only at the fixed points of the other modules."""

import numpy as np
from hypothesis import assume, event, example, given, settings, strategies as st

from iontrap import (
    SpaceConfig, ModelParams, interior_distance, interior_norm,
    REGIME_KINDS, Regime, regime_series, bh_first_second_order,
    decompose, solve, bh, h_check, exact_eigs, OverlapAmbiguityError,
)
from iontrap.operators import _into_gauge
from iontrap.oracle import _rung_eigs, _rung_levels
from test_config_properties import DETERMINISTIC

SPACE = SpaceConfig(n_max=20, interior_margin=5)
# margin 10: at margin 5 the routes of bh part by 1.4e-8 at nu = 1,
# delta_breve = 2, eta_breve = 0.16, lam = 0.08
DEEP = SpaceConfig(n_max=20)

# nu log-uniform in [0.1, 10], and a scale factor log-uniform in [0.1, 10]
DECADES = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
LAMS = st.floats(0.005, 0.08)

# delta_breve / nu on resonance, below it, between nu and 2 nu, on the
# two-photon resonance and above it; every mismatch outside the ambiguous
# band of the engine's absolute degeneracy test at nu >= 0.1
RATIOS = st.one_of(st.just(1.0), st.floats(0.3, 0.999),
                   st.floats(1.001, 1.999), st.just(2.0),
                   st.floats(2.001, 4.0))
# inside the nearly resonant window |nu - delta_breve| <= 0.1 nu
NEAR_RATIOS = st.one_of(st.just(1.0), st.floats(0.901, 0.999),
                        st.floats(1.001, 1.099))


@st.composite
def regime_points(draw):
    """(kind, params): nu log-uniform in [0.1, 10], lam in [0.005, 0.08]
    and eta_breve in [0, 2 lam], 0 where the regime drops it."""
    kind = draw(st.sampled_from(REGIME_KINDS))
    nu = draw(DECADES)
    lam = draw(LAMS)
    ratio = draw(NEAR_RATIOS if kind == "near_resonant" else RATIOS)
    eta_breve = (0.0 if kind == "eta_much_less"
                 else draw(st.floats(0.0, 2.0 * lam)))
    return kind, ModelParams.from_balanced(nu, ratio * nu, eta_breve, lam)


@settings(DETERMINISTIC, max_examples=120)
@example(point=("eta_much_less",
                ModelParams.from_balanced(10.0, 10.0, 0.0, 0.05)))
@example(point=("eta_comparable",
                ModelParams.from_balanced(0.1, 0.2, 0.05, 0.05)))
@given(point=regime_points())
def test_engine_constants_are_the_printed_ones(point):
    # C1, Z1 and C2 of solve against bh_first_second_order, which carry
    # their powers of lam; interior norms.  C1 in units of lam nu; Z1 and
    # C2 relative, since both carry 1/(nu - delta_breve), 1000/nu at
    # delta_breve = 1.001 nu, where C2 is off by 4e-8 lam^2 nu but by
    # 2.6e-12 relative
    kind, p = point
    regime = Regime.of(kind, p)
    h0, series = regime_series(p, regime, SPACE)
    sol = solve(decompose(h0), series, 2)
    c1, z1, c2 = bh_first_second_order(p, regime, SPACE)
    assert interior_distance(p.lam * sol.C[0], c1) <= 1e-12 * p.lam * p.nu
    assert (interior_distance(p.lam * sol.Z[0], z1)
            <= 1e-9 * interior_norm(z1))
    assert (interior_distance(p.lam ** 2 * sol.C[1], c2)
            <= 1e-9 * interior_norm(c2))


@st.composite
def balanced_points(draw):
    """params: nu log-uniform in [0.1, 10], lam in [0.005, 0.08],
    delta_breve / nu from RATIOS and eta_breve in [0, 2 lam]."""
    nu = draw(DECADES)
    lam = draw(LAMS)
    ratio = draw(RATIOS)
    eta_breve = draw(st.floats(0.0, 2.0 * lam))
    return ModelParams.from_balanced(nu, ratio * nu, eta_breve, lam)


@settings(DETERMINISTIC, max_examples=120)
@given(p=balanced_points())
def test_closed_form_routes_match_conjugation(p):
    # the documented interior bound 1e-8, in units of nu
    for build in (bh, h_check):
        assert (interior_distance(build(p, DEEP), build(p, DEEP, "closed_form"))
                <= 1e-8 * p.nu)


def test_closed_form_routes_at_the_documented_margin():
    # the docstrings' edge: margin 8, at the point where margin 5 parts
    # the routes of bh by 1.4e-8
    p = ModelParams.from_balanced(1.0, 2.0, 0.16, 0.08)
    edge = SpaceConfig(n_max=20, interior_margin=8)
    for build in (bh, h_check):
        assert (interior_distance(build(p, edge), build(p, edge, "closed_form"))
                <= 1e-8)


def _clear_of_the_band(h0):
    """Every eigenvalue gap of h0 far below or far above the engine's
    absolute degeneracy tolerance 1e-8, so it clusters the same way at
    every scale that keeps it there."""
    gaps = np.diff(exact_eigs(h0)[0])
    return bool(np.all((gaps < 1e-9) | (gaps > 1e-7)))


@settings(DETERMINISTIC, max_examples=120)
@given(point=regime_points(), s=DECADES)
def test_constants_scale_with_the_frequencies(point, s):
    # nu and delta_breve times s: C_n times s and Z_n unchanged, orders
    # 1-3, relative to their norms
    kind, p = point
    scaled = ModelParams.from_balanced(s * p.nu, s * p.delta_breve,
                                       p.eta_breve, p.lam)
    sols = []
    for q in (p, scaled):
        h0, series = regime_series(q, Regime.of(kind, q), SPACE)
        assume(_clear_of_the_band(h0))
        sols.append(solve(decompose(h0), series, 3))
    base, moved = sols
    for c, c_s in zip(base.C, moved.C):
        assert interior_distance(c_s, s * c) <= 1e-9 * interior_norm(s * c)
    for z, z_s in zip(base.Z, moved.Z):
        assert interior_distance(z_s, z) <= 1e-9 * interior_norm(z)


# dim 122: rungs 1-9 keep their first window, Fock levels 0..n+20,
# within half the dimension
WINDOWED = SpaceConfig(n_max=60, interior_margin=15)


def _pair_or_refusal(n, eigs):
    try:
        return _rung_levels(n, *eigs)
    except OverlapAmbiguityError as exc:
        return str(exc)


@settings(DETERMINISTIC, max_examples=120)
@given(p=balanced_points(), n=st.integers(1, 9))
def test_window_pair_is_the_full_pair(p, n):
    # the certified window route and _rung_eigs of the whole array pick
    # the same pair, or refuse it with the same message; levels within
    # 1e-13 nu (n + 1), worst measured 1.1e-14 over 300 draws
    g = _into_gauge(bh(p, WINDOWED).mat, WINDOWED)
    window, full = _rung_eigs(g, (n,)), _rung_eigs(g)
    event("window" if window[0].size < full[0].size else "full array")
    got, want = _pair_or_refusal(n, window), _pair_or_refusal(n, full)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.abs(np.subtract(got, want)).max() <= 1e-13 * p.nu * (n + 1)
