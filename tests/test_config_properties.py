"""Property tests: bad config values surface as ConfigError and nothing else,
finite parameters and Fock-level options end every experiment with a
documented exit code, and the balanced couplings keep their bounds and their
inversion."""

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from iontrap import ModelParams
from iontrap.cli import _FULL_KEYS, _REDUCED_KEYS, _run, parse_config
from iontrap.experiments import EXPERIMENTS, ConfigError, Options

# A fixed seed and no example database keep the suite deterministic.
# Hypothesis still caches unicode tables and source constants on disk, from
# test collection on, so its home moves out of the working tree.
DETERMINISTIC = settings(database=None, derandomize=True, deadline=None)
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "iontrap-hypothesis")

# every spelling float() accepts (nan, inf, huge, subnormal), plus any text
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
PARAMS = st.one_of(*(st.fixed_dictionaries({key: VALUES for key in keys})
                     for keys in (_FULL_KEYS, _REDUCED_KEYS)))


@DETERMINISTIC
@example(params={"nu": "1", "delta_breve": "1", "eta_breve": "1e200",
                 "lambda": "1"})
@example(params={"nu": "-1", "omega_ge": "1.9", "omega_l": "1",
                 "omega_r": "0.25", "eta": "0.1"})
@given(params=PARAMS)
def test_parse_config_raises_only_config_error(tmp_path_factory, params):
    path = tmp_path_factory.getbasetemp() / "property.ini"
    lines = ["[params]"] + [f"{key} = {value}" for key, value in params.items()]
    path.write_text("\n".join(lines) + "\n[experiment]\nname = spectrum\n",
                    encoding="utf-8")
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    assert cfg.experiment == "spectrum"


@DETERMINISTIC
@given(raw=st.one_of(VALUES, st.lists(VALUES, max_size=4).map(",".join)))
def test_options_getters_return_finite_values(raw):
    for getter in ("get_float", "get_int", "get_floats", "get_ints"):
        try:
            value = getattr(Options({"key": raw}), getter)("key", ())
        except ConfigError:
            continue
        values = value if isinstance(value, tuple) else (value,)
        assert all(math.isfinite(v) for v in values)


FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)


def reduced(nu, delta_breve, eta_breve, lam):
    return {"params": dict(zip(_REDUCED_KEYS,
                               map(repr, (nu, delta_breve, eta_breve, lam))))}


def full(nu, omega_ge, omega_l, omega_r, eta):
    values = (nu, omega_ge, omega_l, omega_r, eta)
    return {"params": dict(zip(_FULL_KEYS, map(repr, values)))}


@settings(DETERMINISTIC, max_examples=300)
@example(**reduced(1.0, 1.0, 1.0, -1.0))  # limits: negative detuning
@example(**reduced(1.0, 1.0, 0.0, 0.0))  # spectrum: rungs past n_max
@example(**reduced(1.0, 1.0, 0.0, 2.0 ** 28))  # residual-order: R = 0
@example(**reduced(1.0, 1.00000002, 0.0, 0.05))  # ambiguous degeneracy
@example(**reduced(1.0, 1.0, 0.0, 1.034434839619222e153))  # expm norm
@example(**reduced(5.6e102, 1.0, 0.0, 5.6e102))  # lam^2 nu overflows
@example(**reduced(3.402823465999998e38, 1.0, 5.129361400639429e112,
                   3.531004721411451e89))  # anticrossing window overflows
@example(**reduced(1.0, 1.0, 0.0, 1e-12))  # anticrossing: flat gaps
@example(**reduced(1.0, 1.0, 0.0, 1e-6))  # anticrossing: unresolved window
@example(**reduced(1.0, 1.0, 0.0, 4e4))  # compare-rwa: H0 + C1's phases
@example(**reduced(3.176731312019717e-177, 1.0, 0.0,
                   0.25))  # anticrossing: offsets near 1e-178
@example(**full(1.0, 2.0, 1.0, 0.0, 0.1))  # undriven: no balanced frame
@given(params=st.one_of(*(st.fixed_dictionaries({key: FINITE for key in keys})
                          for keys in (_REDUCED_KEYS, _FULL_KEYS))))
def test_finite_parameters_exit_with_a_documented_code(tmp_path_factory,
                                                       params):
    # 0 success, 2 config error, 3 numerical diagnostic; never a traceback
    base = tmp_path_factory.getbasetemp()
    lines = ["[params]"] + [f"{key} = {value}" for key, value in params.items()]
    lines += ["[space]", "n_max = 6", "interior_margin = 2"]
    for name in sorted(EXPERIMENTS):
        path = base / "finite.ini"
        path.write_text("\n".join(lines + ["[experiment]", f"name = {name}"])
                        + "\n", encoding="utf-8")
        assert _run(str(path), str(base / "finite-out")) in (0, 2, 3)


# a Fock level at n_max 6, drawn from one below the range to two above it
FOCK = st.integers(-1, 6 + 2)


@settings(DETERMINISTIC, max_examples=60)
@example(levels=[7], n_levels=1, initial_n=0)  # a rung above n_max
@given(levels=st.lists(FOCK, min_size=1, max_size=3), n_levels=FOCK,
       initial_n=FOCK)
def test_fock_level_options_exit_with_a_documented_code(tmp_path_factory,
                                                        levels, n_levels,
                                                        initial_n):
    base = tmp_path_factory.getbasetemp()
    params = reduced(1.0, 1.0, 0.0, 0.05)["params"]
    lines = ["[params]"] + [f"{key} = {value}" for key, value in params.items()]
    lines += ["[space]", "n_max = 6", "interior_margin = 2"]
    options = {"anticrossing": "levels = " + ",".join(map(str, levels)),
               "spectrum": f"n_levels = {n_levels}",
               "evolve": f"initial_n = {initial_n}"}
    for name, option in options.items():
        path = base / "fock.ini"
        path.write_text("\n".join(lines + ["[experiment]", f"name = {name}",
                                           option]) + "\n", encoding="utf-8")
        assert _run(str(path), str(base / "fock-out")) in (0, 2, 3)


def float_lists(min_size, max_size):
    """Comma-joined finite floats of any size, subnormals and +-1.7e308
    among them."""
    return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=min_size, max_size=max_size).map(
        lambda values: ", ".join(map(repr, values)))


# The float options whose run time does not grow with their value, each
# with the parameters of its experiment.  Left out: frame-chain's t_max,
# which sets its number of Magnus steps, and counts such as t_steps and
# points, whose cost grows with the value drawn.
FULL_SET = {"nu": "1.0", "omega_ge": "1.9", "omega_L": "1.0",
            "Omega_R": "0.25", "eta": "0.1"}
RESONANT = reduced(1.0, 1.0, 0.0, 0.05)["params"]
FLOAT_OPTIONS = {
    ("limits", "delta_grid"): (FULL_SET, float_lists(1, 4)),
    ("residual-order", "lambda_grid"): (RESONANT, float_lists(4, 5)),
    ("anticrossing", "offsets"): (RESONANT, float_lists(1, 4)),
    ("evolve", "t_max"): (RESONANT, float_lists(1, 1)),
    ("compare-rwa", "t_max"): (RESONANT, float_lists(1, 1)),
}


@settings(DETERMINISTIC, max_examples=400)
@example(case=(("limits", "delta_grid"), "1e-310, 1.0"))  # Omega_R = inf
@example(case=(("residual-order", "lambda_grid"),
               "0.5, 0.5, 0.5, 0.5"))  # no slope to fit
@given(case=st.one_of(*(st.tuples(st.just(key), values)
                        for key, (_, values) in FLOAT_OPTIONS.items())))
def test_float_options_exit_with_a_documented_code(tmp_path_factory, case):
    (name, option), raw = case
    base = tmp_path_factory.getbasetemp()
    params, _ = FLOAT_OPTIONS[name, option]
    lines = ["[params]"] + [f"{key} = {value}" for key, value in params.items()]
    lines += ["[space]", "n_max = 6", "interior_margin = 2",
              "[experiment]", f"name = {name}", f"{option} = {raw}"]
    path = base / "float-option.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _run(str(path), str(base / "float-option-out")) in (0, 2, 3)


def magnitudes(lo, hi):
    """Floats log-uniform in exponent between 10**lo and 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def signed(values):
    return st.tuples(st.sampled_from((-1.0, 1.0)), values).map(
        lambda pair: pair[0] * pair[1])


@settings(DETERMINISTIC, max_examples=400)
@example(omega_r=3.0, delta=0.0, eta=0.1)  # lam overshot eta/2 by one ulp
@example(omega_r=0.0, delta=3.0, eta=0.1)  # eta_breve overshot eta
@given(omega_r=st.one_of(st.just(0.0), magnitudes(-300, 300)),
       delta=st.one_of(st.just(0.0), signed(magnitudes(-300, 300))),
       eta=signed(magnitudes(-300, 300)))
def test_coupling_bounds_hold_exactly(omega_r, delta, eta):
    if omega_r == 0.0 and delta == 0.0:
        return  # no balanced frame without drive or detuning
    p = ModelParams(nu=1.0, omega_ge=delta, omega_L=0.0, Omega_R=omega_r,
                    eta=eta)
    assert abs(p.lam) <= abs(eta) / 2
    assert abs(p.eta_breve) <= abs(eta)


@settings(DETERMINISTIC, max_examples=200)
@given(delta_breve=magnitudes(-30, 30),
       eta_breve=st.one_of(st.just(0.0), signed(magnitudes(-30, 30))),
       lam=signed(magnitudes(-30, 30)))
def test_from_balanced_round_trip(delta_breve, eta_breve, lam):
    p = ModelParams.from_balanced(1.0, delta_breve, eta_breve, lam)
    for got, want in ((p.delta_breve, delta_breve),
                      (p.eta_breve, eta_breve), (p.lam, lam)):
        assert abs(got - want) <= 1e-15 * abs(want)
