"""Config parsing, experiment tables, output files and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from iontrap import (
    SpaceConfig, ModelParams, JCParams, experiments, frame_chain_fn, ith,
    ith_terms, bh, exact_eigs, spectrum_second_order, time_ordered_sweep,
    first_order_evolutor_fn, identity, interior_distance, decompose,
    regime_series, Regime, t_delta, t1, t2, t3, scan_gap,
    bh_reference, bh_interaction_term, h_check, h_check_reference,
    h_check_interaction_term,
)
from iontrap.experiments import (
    EXPERIMENTS, ConfigError, DiagnosticError, Options, ResultTable,
    spectrum, evolve, compare_rwa, residual_order, anticrossing,
    limits, frame_chain,
)
from iontrap.cli import main, parse_config
from iontrap.operators import _position_eigen
from iontrap.oracle import _rung_levels

SPACE = SpaceConfig()
P_RES = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.05)

REDUCED = """\
[params]
nu = 1.0
delta_breve = 1.0
eta_breve = 0.0
lambda = 0.05
"""

FULL = """\
[params]
nu = 1.0
omega_ge = 1.9
omega_L = 1.0
Omega_R = 0.25
eta = 0.1
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_reduced_set(self, tmp_path):
        cfg = parse_config(write(tmp_path, REDUCED + "[experiment]\nname = spectrum\n"))
        assert cfg.experiment == "spectrum"
        assert cfg.params.lam == 0.05
        assert cfg.params.delta_breve == pytest.approx(1.0)
        assert cfg.space == SpaceConfig()

    def test_full_set_and_space(self, tmp_path):
        text = FULL + "[space]\nn_max = 20\ninterior_margin = 5\n" \
                      "[experiment]\nname = limits\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.params.Omega_R == 0.25
        assert cfg.space.n_max == 20

    def test_mixed_sets_rejected(self, tmp_path):
        text = REDUCED + "eta = 0.1\n[experiment]\nname = spectrum\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text))

    def test_unknown_experiment_names_the_valid_ones(self, tmp_path):
        text = REDUCED + "[experiment]\nname = teleport\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        for name in EXPERIMENTS:
            assert name in str(err.value)

    def test_empty_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            parse_config(write(tmp_path, ""))

    def test_missing_name_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, REDUCED + "[experiment]\nt_max = 2\n"))

    def test_unknown_section_rejected(self, tmp_path):
        text = REDUCED + "[experiment]\nname = spectrum\n[plotting]\nx = 1\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text))

    def test_bad_number_rejected(self, tmp_path):
        text = REDUCED.replace("0.05", "five") + "[experiment]\nname = spectrum\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text))

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.ini"))


UNDRIVEN = ModelParams(nu=1.0, omega_ge=2.0, omega_L=1.0, Omega_R=0.0, eta=0.1)
FAR = ModelParams.from_balanced(1.0, 1.7, 0.0, 0.05)


class TestConfigErrorWhereDecided:
    def test_one_class(self):
        import iontrap.operators
        assert iontrap.ConfigError is iontrap.operators.ConfigError
        assert iontrap.ConfigError is ConfigError

    # each input rule the library decides, called as a library user would
    @pytest.mark.parametrize("call", [
        lambda: SpaceConfig(n_max=3),
        lambda: SpaceConfig(n_max=6, interior_margin=0),
        lambda: SpaceConfig(n_max=6, interior_margin=5),
        lambda: ModelParams(nu=math.nan, omega_ge=1.0, omega_L=1.0,
                            Omega_R=0.25, eta=0.1),
        lambda: ModelParams(nu=0.0, omega_ge=1.0, omega_L=1.0,
                            Omega_R=0.25, eta=0.1),
        lambda: ModelParams(nu=1.0, omega_ge=1.0, omega_L=1.0,
                            Omega_R=-0.25, eta=0.1),
        lambda: dataclasses.replace(UNDRIVEN, omega_ge=1.0).lam,
        lambda: dataclasses.replace(UNDRIVEN, omega_ge=1.0).eta_breve,
        lambda: ModelParams.from_balanced(1.0, 0.0, 0.0, 0.05),
        lambda: ModelParams.from_balanced(1.0, 1.0, 0.1, 0.0),
        lambda: spectrum_second_order(FAR, 3),
        lambda: regime_series(ModelParams.from_balanced(1.0, 1.0, 0.0, 0.0),
                              Regime("eta_much_less"), SPACE),
        lambda: spectrum_second_order(P_RES, -1),
        lambda: scan_gap(1, P_RES, [-0.6], SpaceConfig(6, 2)),
        lambda: scan_gap(5, P_RES, [0.0], SpaceConfig(6, 2)),
        lambda: JCParams(1.0, math.inf, 0.1),
        lambda: JCParams(0.0, 1.0, 0.1),
    ], ids=["n_max", "margin", "interior", "finite", "nu", "Omega_R",
            "lam", "eta_breve", "delta_breve", "lam-zero", "near-resonance",
            "regime-lam-zero", "n_levels", "offset", "rung", "jc-finite",
            "jc-nu"])
    def test_input_rules_raise_config_error(self, call):
        with pytest.raises(ConfigError):
            call()

    @pytest.mark.parametrize("p", [
        UNDRIVEN, dataclasses.replace(UNDRIVEN, omega_ge=1.0)],
        ids=["detuned", "delta-zero"])
    def test_drive_rule_has_one_message(self, p):
        # every balanced-frame builder reaches _require_rabi, itself or
        # through Delta, before anything else can fail
        small = SpaceConfig(6, 2)
        calls = [lambda: p.Delta, lambda: p.theta,
                 lambda: spectrum(p, small, Options({}), map)]
        calls += [lambda f=f: f(p, small) for f in (
            t1, t2, t3, t_delta, bh_reference, h_check_reference,
            frame_chain_fn)]
        calls += [lambda f=f, r=r: f(p, small, r) for f in (bh, h_check)
                  for r in ("conjugation", "closed_form")]
        calls += [lambda f=f, m=m: f(m, p, small) for m in (0, 2) for f in (
            bh_interaction_term, h_check_interaction_term)]
        for call in calls:
            with pytest.raises(ConfigError) as info:
                call()
            assert str(info.value) == ("the balanced frame needs a drive, "
                                       "Omega_R > 0; got Omega_R = 0")


class TestOptions:
    def test_leftovers_rejected(self):
        opts = Options({"bogus": "1"})
        with pytest.raises(ConfigError, match="bogus"):
            opts.finish()

    def test_typed_getters(self):
        opts = Options({"a": "2.5", "b": "3", "c": "1,2,3"})
        assert opts.get_float("a", 0.0) == 2.5
        assert opts.get_int("b", 0) == 3
        assert opts.get_ints("c", ()) == (1, 2, 3)
        opts.finish()

    @pytest.mark.parametrize("getter, raw", [
        ("get_float", "nan"), ("get_float", "-inf"),
        ("get_floats", "0.02, nan"), ("get_ints", "1, inf"),
    ])
    def test_non_finite_rejected(self, getter, raw):
        with pytest.raises(ConfigError, match="finite"):
            getattr(Options({"k": raw}), getter)("k", ())

    @pytest.mark.parametrize("raw", ["1.5", "1e1", "2.0", "1, 2.0"])
    def test_non_integer_rejected(self, raw):
        # one rule for n_levels and for each entry of levels: no float
        # spelling, even of a whole number
        for getter in ("get_int", "get_ints"):
            with pytest.raises(ConfigError, match="integer"):
                getattr(Options({"levels": raw}), getter)("levels", ())

    def test_integer_entries_keep_every_digit(self):
        # 2**53 + 1 has no double; a float route reads ...992
        assert Options({"k": "9007199254740993"}).get_ints("k", ()) == (
            9007199254740993,)

    def test_defaults_pass_through(self):
        opts = Options({})
        assert opts.get_floats("grid", (0.1, 0.2)) == (0.1, 0.2)
        assert opts.get_str("mode", "x", choices={"x", "y"}) == "x"


class TestSpectrumExperiment:
    def test_formula_tracks_exact_levels(self):
        (table,) = spectrum(P_RES, SPACE, Options({"n_levels": "5"}), map)
        bound = 5 * P_RES.lam ** 3 * P_RES.nu
        assert max(table.columns["err_minus"]) <= bound
        assert max(table.columns["err_plus"]) <= bound
        assert table.metadata["err_E0"] <= bound

    def test_crossing_rungs_paired_by_overlap(self):
        # at lam = 0.16, delta_breve = 1.08 the exact levels of rungs 10 and
        # 11 cross, so pairing by sorted index would compare rung 10 with
        # rung 11 (error 5.43e-2 at n = 10 instead of 3.72e-2)
        p = ModelParams.from_balanced(1.0, 1.08, 0.0, 0.16)
        (table,) = spectrum(p, SPACE, Options({"n_levels": "10"}), map)
        cols = table.columns
        got = [max(lo, hi) for lo, hi in zip(cols["err_minus"], cols["err_plus"])]
        values, vectors = exact_eigs(bh(p, SPACE))
        want = []
        for n, e_lo, e_hi in spectrum_second_order(p, 10).levels:
            lo, hi = _rung_levels(n, values, vectors)
            want.append(max(abs(lo - e_lo), abs(hi - e_hi)))
        assert got == pytest.approx(want, abs=1e-12)
        assert got[-1] == pytest.approx(3.72e-2, abs=5e-5)

    def test_unresolved_rung_is_a_diagnostic(self):
        # lam sqrt(n) ~ nu mixes the rungs beyond any confident pairing
        strong = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.6)
        with pytest.raises(DiagnosticError, match="ambiguous level pairing"):
            spectrum(strong, SPACE, Options({"n_levels": "10"}), map)

    def test_bottom_level_paired_by_overlap(self):
        # at lam = 1.3 the lowest exact level is no longer E0: the level
        # with the most |0,g> weight sits at 0.843 and holds only 0.41 of it
        strong = ModelParams.from_balanced(1.0, 1.0, 0.0, 1.3)
        with pytest.raises(DiagnosticError,
                           match="ambiguous level pairing: level E0") as info:
            spectrum(strong, SPACE, Options({"n_levels": "0"}), map)
        (table,) = info.value.tables
        assert "E0_exact" not in table.metadata

    def test_far_detuned_rejected(self):
        far = ModelParams.from_balanced(1.0, 1.7, 0.0, 0.05)
        with pytest.raises(ConfigError):
            spectrum(far, SPACE, Options({}), map)


class TestEvolveExperiment:
    def test_probabilities_stay_physical(self):
        opts = Options({"t_max": "2.0", "t_steps": "5", "initial_n": "1"})
        (table,) = evolve(P_RES, SPACE, opts, map)
        p_exc = table.columns["p_excited"]
        surv = table.columns["survival"]
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in p_exc)
        assert surv[0] == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.99 for v in table.columns["mean_n"])

    def test_norm_defect_recorded(self):
        opts = Options({"t_max": "6.0", "t_steps": "13", "initial_n": "2",
                        "initial_spin": "e"})
        (table,) = evolve(P_RES, SPACE, opts, map)
        assert 0.0 <= table.metadata["norm_defect"] <= 1e-12

    def test_initial_state_validated(self):
        with pytest.raises(ConfigError):
            evolve(P_RES, SPACE, Options({"initial_n": "99"}), map)
        with pytest.raises(ConfigError):
            evolve(P_RES, SPACE, Options({"initial_spin": "up"}), map)


class TestCompareRwaExperiment:
    def test_first_order_beats_rwa(self):
        opts = Options({"t_max": "2.0", "t_steps": "5"})
        (table,) = compare_rwa(P_RES, SPACE, opts, map)
        assert table.columns["err_rwa"][-1] > table.columns["err_e1"][-1]
        assert table.metadata["final_ratio"] > 1.0

    def test_off_resonance_rejected(self):
        off = ModelParams.from_balanced(1.0, 1.7, 0.0, 0.05)
        opts = Options({"t_max": "1.0", "t_steps": "3"})
        with pytest.raises(ConfigError):
            compare_rwa(off, SPACE, opts, map)

    def test_off_resonance_rejected_before_any_point(self):
        def mapper(f, xs):
            raise AssertionError("a point was mapped")

        # outside the first-order window, and inside it but off resonance
        for delta_breve in (1.7, 1.05):
            off = ModelParams.from_balanced(1.0, delta_breve, 0.0, 0.05)
            with pytest.raises(ConfigError):
                compare_rwa(off, SPACE, Options({}), mapper)

    @pytest.mark.parametrize("lam", [1e6, 1e12])
    def test_first_order_evolutor_is_exact_at_t_zero(self, lam):
        # U_1(0) = 1: e^{iZ1} is the closed-form pair rotation at any lam;
        # compare-rwa itself stops at these lam on the phase budget
        small = SpaceConfig(n_max=6, interior_margin=2)
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, lam)
        u0 = first_order_evolutor_fn(p, small)(0.0)
        assert interior_distance(u0, identity(small)) <= 1e-14


class TestSweepsFactorOnce:
    # the time sweeps diagonalize per run, not per time point
    def count_eigh(self, monkeypatch, fn, *args):
        # the displacements' one decomposition is kept per n_max: made
        # before counting, so the counts see only what each call factors
        _position_eigen(SPACE.n_max)
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counting)
            fn(*args)
        return len(calls)

    @pytest.mark.parametrize("experiment,few,many",
                             [(evolve, 5, 41), (compare_rwa, 3, 21)],
                             ids=["evolve", "compare-rwa"])
    def test_eigh_count_independent_of_steps(self, monkeypatch, experiment,
                                             few, many):
        def count(steps):
            opts = Options({"t_max": "1.0", "t_steps": str(steps)})
            return self.count_eigh(monkeypatch, experiment,
                                   P_RES, SPACE, opts, map)

        n_few = count(few)
        assert n_few > 0
        assert count(many) == n_few

    def test_frame_chain_integrates_once_to_the_last_time(self, monkeypatch):
        # defaults t = 0.5, 1, 1.5, 2 at 40 steps per unit: one sweep of
        # 80 order-6 steps, one exponential each; each time from 0 would
        # take 20 + 40 + 60 + 80 steps.  The steps weigh the lab
        # Hamiltonian's fixed terms, so nothing evaluates H(t)
        from iontrap import hamiltonians, oracle

        evaluations, exponentials = [], []

        def counting_ith(t, *args):
            evaluations.append(t)
            return ith(t, *args)

        expm_matrix = oracle._expm_matrix

        def counting_expm(m):
            exponentials.append(1)
            return expm_matrix(m)

        monkeypatch.setattr(hamiltonians, "ith", counting_ith)
        monkeypatch.setattr(oracle, "_expm_matrix", counting_expm)
        # the steps' generators are small, so no step needs an eigensolver:
        # only building the chain and the lab terms call eigh
        n_setup = (self.count_eigh(monkeypatch, frame_chain_fn, P_RES, SPACE)
                   + self.count_eigh(monkeypatch, ith_terms, P_RES, SPACE))
        n_run = self.count_eigh(monkeypatch, frame_chain,
                                P_RES, SPACE, Options({}), map)
        assert len(exponentials) == 80
        assert len(evaluations) == 0
        assert n_run == n_setup

    def test_replay_steps_need_no_eigensolver(self, monkeypatch):
        # criterion 10's replay of criterion 1: n_max 60, the strong drive,
        # 200 steps per unit, as criterion 1.  The steps' generators pass the
        # Taylor bound 0.33 but not twice it, so one squaring serves
        big = SpaceConfig(n_max=60, interior_margin=15)
        strong = ModelParams(nu=1.0, omega_ge=1.3, omega_L=1.0,
                             Omega_R=5.0, eta=0.1)
        norms = [np.abs(ith(t, strong, big).mat).sum(axis=0).max() / 200.0
                 for t in np.linspace(0.0, 2.0, 9)]
        assert 0.33 < max(norms) <= 0.66
        assert self.count_eigh(monkeypatch, time_ordered_sweep,
                               ith_terms(strong, big), [2.0], big, 200.0) == 0


class TestResidualOrderExperiment:
    def test_slopes_certify_the_orders(self):
        (table,) = residual_order(P_RES, SPACE, Options({}), map)
        meta = table.metadata
        assert meta["R1_slope"] >= 1.7
        assert meta["R2_slope"] >= 2.7
        assert meta["R1_conclusive"] and meta["R2_conclusive"]

    def test_metadata_records_the_clusters(self):
        small = SpaceConfig(6, 2)
        (table,) = residual_order(P_RES, small, Options({}), map)
        spec = decompose(regime_series(
            P_RES, Regime.of("eta_much_less", P_RES), small)[0])
        w, gaps = spec.eigenvalues, []
        for lo, hi in zip(spec.clusters, spec.clusters[1:]):
            gaps.append(w[hi[0]] - w[lo[-1]])
        assert table.metadata["clusters"] == len(spec.clusters) > 1
        assert table.metadata["min_cluster_gap"] == min(gaps) > 0.0

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigError):
            residual_order(P_RES, SPACE, Options({"regime": "bogus"}), map)

    def test_internal_fault_is_no_config_error(self, monkeypatch):
        # a decomposition that fails is the library's fault, not the
        # config's, and surfaces as it was raised
        def broken(h0):
            raise ValueError("operator is not hermitian (defect 1.00e+00)")

        monkeypatch.setattr(experiments, "decompose", broken)
        with pytest.raises(ValueError, match="not hermitian") as info:
            residual_order(P_RES, SPACE, Options({}), map)
        assert not isinstance(info.value, ConfigError)

    def test_points_where_second_order_stops_helping_are_named(self):
        assert residual_order(P_RES, SPACE, Options({}), map)[0].metadata[
            "R2_ge_R1"] == []
        # near resonance at lam = 0.16: R1 = 1.0137 and R2 = 1.1331, with
        # an R2 slope of 3.0 that is a clean power all the same
        near = ModelParams.from_balanced(1.0, 1.05, 0.025, 0.05)
        (table,) = residual_order(near, SPACE,
                                  Options({"regime": "near_resonant"}), map)
        cols = table.columns
        assert cols["R1"][-1] == pytest.approx(1.0137, abs=1e-4)
        assert cols["R2"][-1] == pytest.approx(1.1331, abs=1e-4)
        assert table.metadata["R2_ge_R1"] == [0.16]
        assert table.metadata["R2_conclusive"]

    def test_uncertified_order_is_a_diagnostic(self):
        # the README full set: delta_breve - nu = 0.03 makes the first-order
        # generator large, and the clean fits (r^2 0.9997 and 0.9993) read
        # slopes 1.12 and 2.12, below criterion 3's N + 0.7
        full = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25,
                           eta=0.1)
        with pytest.raises(DiagnosticError, match="uncertified order") as info:
            residual_order(full, SPACE, Options({}), map)
        (table,) = info.value.tables
        meta = table.metadata
        assert meta["R1_conclusive"] and meta["R2_conclusive"]
        assert meta["R1_slope"] < 1.7 and meta["R2_slope"] < 2.7
        assert meta["R2_ge_R1"] == list(table.columns["lam"])


class TestAnticrossingExperiment:
    def test_argmin_matches_prediction(self):
        base = ModelParams.from_balanced(1.0, 1.0, 0.02, 0.05)
        opts = Options({"levels": "1,2", "points": "9"})
        tables = anticrossing(base, SPACE, opts, map)
        assert [t.name for t in tables] == ["anticrossing_n1", "anticrossing_n2"]
        for table in tables:
            n = table.metadata["n"]
            got = table.metadata["argmin"]
            want = table.metadata["predicted_argmin"]
            assert abs(got - want) <= base.lam ** 3 * base.nu * n

    def test_minimum_at_the_window_edge_is_a_diagnostic(self):
        # at lam = 0.08 the fourth-order remainder (~ -0.65 n^2 lam^4 nu)
        # carries rungs 12 and 14 out of the default +-6 lam^3 nu window,
        # and leaves rung 10's minimum between its first two samples: in
        # each the smallest gap is the first sample, so no sample on the
        # left brackets the minimum.  The first such rung is named.
        p = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.08)
        with pytest.raises(DiagnosticError, match=r"missed minimum at n=10"):
            anticrossing(p, SPACE, Options({"levels": "10,12,14"}), map)
        with pytest.raises(DiagnosticError,
                           match=r"missed minimum at n=12") as exc:
            anticrossing(p, SPACE, Options({"levels": "12,14"}), map)
        (table,) = exc.value.tables
        assert table.name == "anticrossing_n12"
        # the clamped vertex is the window's first offset
        assert table.metadata["argmin"] == table.columns["offset"][0]

    def test_rung_above_n_max_is_a_config_error(self):
        # rung n pairs |n-1,e> with |n,g>; at n_max 6, margin 2 rungs past
        # the interior's top level 4 feel the edge, so 5 to 7 are refused
        small = SpaceConfig(n_max=6, interior_margin=2)
        for levels in ("1,7", "6", "5"):
            with pytest.raises(ConfigError, match=r"must be in 1\.\.4"):
                anticrossing(P_RES, small, Options({"levels": levels}), map)
        # rung 4 is scanned: a window right of its minimum misses it
        with pytest.raises(DiagnosticError, match="missed minimum at n=4"):
            anticrossing(P_RES, small, Options(
                {"levels": "4", "offsets": "0.0,0.001,0.002"}), map)

    def test_repeated_rung_is_a_config_error(self):
        # each rung names one table, anticrossing_n<rung>.csv
        with pytest.raises(ConfigError, match="repeat"):
            anticrossing(P_RES, SPACE, Options({"levels": "1,1"}), map)
        with pytest.raises(ConfigError, match="repeat"):
            anticrossing(P_RES, SPACE, Options({"levels": "2,1,2"}), map)

    def test_ambiguity_is_a_diagnostic(self):
        strong = ModelParams.from_balanced(1.0, 1.0, 0.12, 0.6)
        opts = Options({"levels": "1", "offsets": "-0.01,0.0,0.01"})
        with pytest.raises(DiagnosticError,
                           match="ambiguous level pairing at n=1"):
            anticrossing(strong, SPACE, opts, map)


class TestLimitsExperiment:
    def test_both_limits_exhibited(self):
        p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)
        (table,) = limits(p, SPACE, Options({}), map)
        grid = table.columns["Delta"]
        ident = dict(zip(grid, table.columns["dist_identity"]))
        strong = dict(zip(grid, table.columns["dist_strong_field"]))
        assert ident[1e6] < 1e-5          # weak field: transform melts away
        assert strong[1e-6] < 1e-5        # strong field: spin-flip transform
        assert ident[1.0] > 0.1 and strong[1.0] > 0.1

    def test_resonant_base_rejected(self):
        p = ModelParams(nu=1.0, omega_ge=1.0, omega_L=1.0, Omega_R=0.25, eta=0.1)
        with pytest.raises(ConfigError):
            limits(p, SPACE, Options({}), map)

    @pytest.mark.parametrize("entry", ["1e-310", "5e-324"])
    def test_overflowing_drive_is_a_config_error(self, entry):
        # |delta| / Delta overflows to inf: the entry is named before any
        # point of the sweep runs
        p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)
        opts = Options({"delta_grid": f"1.0, {entry}"})
        with pytest.raises(ConfigError, match=f"delta_grid entry {entry}"):
            limits(p, SPACE, opts, map)

    def test_columns_match_the_svd_norms_out_of_gauge(self):
        # the gauge leaves the norms as they are: the columns agree with
        # the SVD of t_delta - 1 and t_delta - t1 in the Fock basis
        p = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)
        grid = "1e-6, 1e-3, 0.5, 1, 2, 1e3, 1e6"
        (table,) = limits(p, SPACE, Options({"delta_grid": grid}), map)
        eye = np.eye(SPACE.dim)
        for big_delta, ident, strong in zip(table.columns["Delta"],
                                            table.columns["dist_identity"],
                                            table.columns["dist_strong_field"]):
            pd = dataclasses.replace(p, Omega_R=abs(p.delta) / big_delta)
            td = t_delta(pd, SPACE).mat
            want_ident = np.linalg.norm(td - eye, 2)
            want_strong = np.linalg.norm(td - t1(pd, SPACE).mat, 2)
            assert abs(ident - want_ident) <= 1e-14 * want_ident
            assert abs(strong - want_strong) <= 1e-14 * want_strong


class TestNoSvd:
    # every spectral norm of these experiments is op_norm's eigenvalue
    # solve; an SVD anywhere, np.linalg.norm(m, 2) included, fails
    @pytest.mark.parametrize("fn,p,opts", [
        (limits, ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0,
                             Omega_R=0.25, eta=0.1), {}),
        (compare_rwa, P_RES, {"t_max": "1.0", "t_steps": "3"}),
        (frame_chain, ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0,
                                  Omega_R=0.25, eta=0.1),
         {"t_max": "1.0", "t_steps": "2"})],
        ids=["limits", "compare-rwa", "frame-chain"])
    def test_experiment_runs_without_svd(self, monkeypatch, fn, p, opts):
        def svd(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", svd)
        (table,) = fn(p, SPACE, Options(opts), map)
        assert table.n_rows > 0


class TestFrameChainExperiment:
    P = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)

    def test_self_check_passes(self):
        opts = Options({"t_max": "2.0", "t_steps": "3"})
        (table,) = frame_chain(self.P, SPACE, opts, map)
        assert max(table.columns["interior_err"]) <= 1e-6

    @pytest.mark.parametrize("p", [P, ModelParams(nu=1.0, omega_ge=1.3,
                                                  omega_L=1.0, Omega_R=5.0,
                                                  eta=0.1)],
                             ids=["weak-drive", "strong-drive"])
    def test_unitarity_defect_is_recorded(self, p):
        # defaults: 80 steps, none of which is unitary by construction
        (table,) = frame_chain(p, SPACE, Options({}), map)
        assert 0.0 < table.metadata["unitarity_defect"] <= 1e-12

    def test_tolerance_violation_is_a_diagnostic(self, monkeypatch):
        # 2 steps per unit leave an interior error of about 3.5e-5 > 1e-6
        sweep = experiments.time_ordered_sweep
        monkeypatch.setattr(experiments, "time_ordered_sweep",
                            lambda terms, ts, space: sweep(terms, ts, space, 2))
        opts = Options({"t_max": "1.0", "t_steps": "2"})
        with pytest.raises(DiagnosticError) as err:
            frame_chain(self.P, SPACE, opts, map)
        assert err.value.tables  # partial results survive for the writer


class TestResultTable:
    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            ResultTable("x", {"a": [1.0, 2.0], "b": [1.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ResultTable("x", {})


class TestRunner:
    def run(self, tmp_path, text, out="out"):
        return main(["run", write(tmp_path, text), "--out",
                     str(tmp_path / out)])

    def test_success_writes_csv_and_metadata(self, tmp_path):
        text = REDUCED + "[experiment]\nname = spectrum\nn_levels = 4\n"
        assert self.run(tmp_path, text) == 0
        csv = (tmp_path / "out" / "spectrum.csv").read_text()
        lines = csv.split("\n")
        assert lines[0] == "n,E_minus,E_plus,E_minus_exact,E_plus_exact,err_minus,err_plus"
        assert len(lines) == 6 and lines[-1] == ""
        assert "\r" not in csv
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["experiment"] == "spectrum"
        assert meta["params"]["eta"] == pytest.approx(0.1)
        assert meta["tables"]["spectrum"]["n_levels"] == 4
        assert "diagnostic" not in meta

    def test_outputs_take_the_umask(self, tmp_path):
        # a plain open() under umask 022 makes rw-r--r--, and so does a run
        text = FULL + "[experiment]\nname = limits\n"
        old = os.umask(0o022)
        try:
            assert self.run(tmp_path, text) == 0
        finally:
            os.umask(old)
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["limits.csv",
                                                         "metadata.json"]
        for path in out.iterdir():
            assert path.stat().st_mode & 0o777 == 0o644, path.name

    def test_full_precision_round_trip(self, tmp_path):
        text = REDUCED + "[experiment]\nname = spectrum\nn_levels = 3\n"
        self.run(tmp_path, text)
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        cells = [row.split(",") for row in lines[1:]]
        from iontrap import spectrum_second_order
        spec = spectrum_second_order(P_RES, 3)
        for (n, e_minus, e_plus), row in zip(spec.levels, cells):
            assert float(row[1]) == e_minus  # 17 digits reproduce the double
            assert float(row[2]) == e_plus

    def test_config_error_exit_2(self, tmp_path):
        assert self.run(tmp_path, "") == 2
        assert self.run(tmp_path, REDUCED + "[experiment]\nname = bogus\n") == 2

    def test_out_that_cannot_be_a_directory_exit_2(self, tmp_path, capsys):
        # an existing file, and a path beneath it: the run stops before
        # the experiment, with one line and no traceback
        (tmp_path / "taken").write_text("")
        text = REDUCED + "[experiment]\nname = spectrum\nn_levels = 4\n"
        for out in ("taken", "taken/sub/dir"):
            assert self.run(tmp_path, text, out) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot make --out")
            assert len(err.splitlines()) == 1
        assert (tmp_path / "taken").read_text() == ""

    def test_option_error_exit_2(self, tmp_path):
        text = REDUCED + "[experiment]\nname = spectrum\nwidgets = 7\n"
        assert self.run(tmp_path, text) == 2

    @pytest.mark.parametrize("text", [
        FULL.replace("nu = 1.0", "nu = -1") + "[experiment]\nname = limits\n",
        REDUCED + "[experiment]\nname = evolve\nt_max = nan\n",
        REDUCED + "[experiment]\nname = residual-order\n"
                  "lambda_grid = -0.02,0.04,0.08,0.16\n",
        REDUCED + "[experiment]\nname = residual-order\n"
                  "lambda_grid = 0.02,0.04,0.08\n",
        REDUCED + "[experiment]\nname = residual-order\nregime = x\n",
        # float() and int() read these as 5.0, 10 and 1.5
        REDUCED.replace("0.05", "0_05") + "[experiment]\nname = spectrum\n",
        REDUCED + "[experiment]\nname = spectrum\nn_levels = 1_0\n",
        REDUCED + "[experiment]\nname = evolve\nt_max = \uff11.\uff15\n",
    ], ids=["negative-nu", "nan-t_max", "nonpositive-lambda",
            "three-lambdas", "unknown-regime", "underscore-float",
            "underscore-integer", "full-width-digits"])
    def test_bad_value_exit_2(self, tmp_path, text):
        assert self.run(tmp_path, text) == 2

    @pytest.mark.parametrize("default", ["", "lambda = 0.05\n"])
    def test_default_section_is_an_unknown_section(self, tmp_path, capsys,
                                                   default):
        # configparser would copy its keys into every section
        text = "[DEFAULT]\n" + default + REDUCED + \
            "[experiment]\nname = spectrum\n"
        assert self.run(tmp_path, text) == 2
        assert capsys.readouterr().err == \
            "config error: unknown sections: ['DEFAULT']\n"

    @pytest.mark.parametrize("option", ["steps_per_unit = 40", "order = 4",
                                        "tolerance = 1e-6"])
    def test_fixed_frame_chain_settings_are_unknown_options(
            self, tmp_path, capsys, option):
        # the integrator takes 40 order-6 steps per unit and the bound is
        # criterion 1's 1e-6, always
        text = FULL + f"[experiment]\nname = frame-chain\n{option}\n"
        assert self.run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "unknown experiment options" in err
        assert option.split(" = ")[0] in err

    @pytest.mark.parametrize("name,raised", [
        ("spectrum", "OverflowError"),
        ("evolve", "ArithmeticError"),
    ])
    def test_out_of_range_numbers_exit_3(self, tmp_path, capsys, name, raised):
        # finite parameters whose arithmetic overflows are a diagnostic
        text = (REDUCED.replace("nu = 1.0", "nu = 1e300")
                .replace("delta_breve = 1.0", "delta_breve = 1e300")
                + "[space]\nn_max = 20\ninterior_margin = 5\n"
                + f"[experiment]\nname = {name}\n")
        assert self.run(tmp_path, text) == 3
        assert "numerical diagnostic:" in capsys.readouterr().err
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["diagnostic"].startswith(raised)
        assert meta["tables"] == {}

    @pytest.mark.parametrize("name,params,options", [
        # the property test's falsifying set: phases E t ~ 1e104
        ("evolve", {"nu": "5.6e102", "delta_breve": "1", "eta_breve": "0",
                    "lambda": "5.6e102"}, ""),
        ("compare-rwa", {"nu": "1e12", "delta_breve": "1e12",
                         "eta_breve": "0", "lambda": "0.01"}, "t_max = 1e4\n"),
        # the exact energies stay O(1); H0 + C1 carries lam^2 nu = 1e12
        ("compare-rwa", {"nu": "1", "delta_breve": "1", "eta_breve": "0",
                         "lambda": "1e6"}, ""),
        # the chain's energies reach 1e10, before the sweep's 80 steps
        ("frame-chain", {"nu": "1", "omega_ge": "1.9", "omega_L": "1",
                         "Omega_R": "1e10", "eta": "0.1"}, ""),
    ])
    def test_phases_past_the_budget_exit_3(self, tmp_path, name, params,
                                           options):
        # eps * max|E| * t_max above 1e-6 leaves no digit to vouch for
        text = ("[params]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
                + "[space]\nn_max = 6\ninterior_margin = 2\n"
                + f"[experiment]\nname = {name}\n" + options)
        assert self.run(tmp_path, text) == 3
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["diagnostic"].startswith("phase budget exceeded")
        assert meta["tables"] == {}

    @pytest.mark.parametrize("params,diagnostic", [
        (FULL, "uncertified order"),
        (REDUCED.replace("delta_breve = 1.0", "delta_breve = 1.00000002"),
         "ambiguous degeneracy"),
    ], ids=["readme-full-set", "ambiguous-resonance"])
    def test_residual_order_diagnostics_exit_3(self, tmp_path, params,
                                               diagnostic):
        text = params + "[experiment]\nname = residual-order\n"
        assert self.run(tmp_path, text) == 3
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["diagnostic"].startswith(diagnostic)

    @pytest.mark.parametrize("params", [
        FULL,
        # delta_breve overflows to inf, which resonates with no nu
        FULL.replace("omega_ge = 1.9", "omega_ge = 0")
            .replace("omega_L = 1.0", "omega_L = 0")
            .replace("Omega_R = 0.25", "Omega_R = 1e308"),
    ], ids=["readme-full-set", "infinite-delta_breve"])
    def test_compare_rwa_off_resonance_exit_2(self, tmp_path, capsys, params):
        # the message speaks CLI
        text = params + "[experiment]\nname = compare-rwa\n"
        assert self.run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "delta_breve" in err and "expm" not in err

    def test_space_entries_follow_the_integer_rule(self, tmp_path, capsys):
        text = (REDUCED + "[space]\nn_max = 20\ninterior_margin = 2.0\n"
                "[experiment]\nname = spectrum\n")
        assert self.run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "[space] interior_margin" in err and "'2.0'" in err

    def test_underflowing_scan_drive_exit_2(self, tmp_path, capsys):
        # a driven base point whose drive, rebuilt at delta_breve = nu +
        # 2 offset, underflows to 0: the scan names the offset, not the
        # config's Omega_R
        text = ("[params]\nnu = 5.6e-268\nomega_ge = -1\nomega_L = 0\n"
                "Omega_R = 7.5e-112\neta = 1.6e-118\n"
                "[space]\nn_max = 6\ninterior_margin = 2\n"
                "[experiment]\nname = anticrossing\n")
        assert self.run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: offset ")
        assert "Omega_R underflows to 0" in err

    def test_diagnostic_exit_3_still_writes(self, tmp_path):
        text = ("[params]\nnu = 1.0\ndelta_breve = 1.0\n"
                "eta_breve = 0.12\nlambda = 0.6\n"
                "[experiment]\nname = anticrossing\nlevels = 1\n"
                "offsets = -0.01,0.0,0.01\n")
        assert self.run(tmp_path, text) == 3
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert "ambiguous level pairing at n=1" in meta["diagnostic"]
        assert "at offset -0.01" in meta["diagnostic"]

    @pytest.mark.parametrize("offsets,distinct", [
        ("-0.00125", 1), ("-0.005,0.005", 2), ("0.0,-0.0,0.01,0.01", 2)])
    def test_fewer_than_three_offsets_exit_2(self, tmp_path, capsys, offsets,
                                             distinct):
        # one offset was read as an unresolved window and two as a missed
        # minimum: neither fixes a parabola or brackets a minimum
        text = (REDUCED + "[space]\nn_max = 12\n[experiment]\n"
                f"name = anticrossing\nlevels = 1\noffsets = {offsets}\n")
        assert self.run(tmp_path, text) == 2
        assert ("option 'offsets' must hold at least 3 distinct values, "
                f"got {distinct}") in capsys.readouterr().err

    @pytest.mark.parametrize("points", [99, 3])
    def test_offsets_and_points_together_exit_2(self, tmp_path, capsys,
                                                points):
        # points sizes only the default window, so beside offsets any
        # value is refused for both, one below its minimum 5 included
        text = (REDUCED + "[space]\nn_max = 12\n[experiment]\n"
                "name = anticrossing\nlevels = 1\n"
                "offsets = -0.005,-0.0025,0.0,0.0025,0.005\n"
                f"points = {points}\n")
        assert self.run(tmp_path, text) == 2
        assert ("options 'offsets' and 'points' exclude each other"
                in capsys.readouterr().err)

    def test_missed_minimum_exit_3(self, tmp_path):
        text = ("[params]\nnu = 1.0\ndelta_breve = 1.0\n"
                "eta_breve = 0.0\nlambda = 0.08\n"
                "[experiment]\nname = anticrossing\nlevels = 10,12,14\n")
        assert self.run(tmp_path, text) == 3
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["diagnostic"].startswith("missed minimum at n=10")
        assert sorted(meta["tables"]) == ["anticrossing_n10"]

    @pytest.mark.parametrize("offsets,code", [
        ("0.005,0.0,0.01", 3), ("0.0,0.005,0.01", 3),
        ("0.005,-0.005,0.0", 0), ("-0.005,0.0,0.005", 0),
    ])
    def test_window_edge_is_judged_by_offset_value(self, tmp_path, offsets,
                                                   code):
        # the predicted minimum is -0.00125, so the smallest gap is at
        # offset 0.0: the lowest offset of the first two windows, inside
        # the last two, wherever the offsets list it; rows keep its order
        text = (REDUCED + "[space]\nn_max = 12\n[experiment]\n"
                f"name = anticrossing\nlevels = 1\noffsets = {offsets}\n")
        assert self.run(tmp_path, text) == code
        rows = (tmp_path / "out" / "anticrossing_n1.csv").read_text()
        assert [float(r.split(",")[0]) for r in rows.splitlines()[1:]] == [
            float(x) for x in offsets.split(",")]

    def test_unresolved_window_exit_3(self, tmp_path):
        # the default window, 12 lam^3 nu = 1.2e-17 wide, is below the
        # rounding of delta_breve = 1 + 2 offset: all 13 gaps are one gap
        text = ("[params]\nnu = 1.0\ndelta_breve = 1.0\n"
                "eta_breve = 0.0\nlambda = 1e-6\n"
                "[space]\nn_max = 6\ninterior_margin = 2\n"
                "[experiment]\nname = anticrossing\n")
        assert self.run(tmp_path, text) == 3
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["diagnostic"].startswith(
            "unresolved window at n=1: delta_breve does not resolve the "
            "scan window of width 1.200e-17")
        assert sorted(meta["tables"]) == ["anticrossing_n1"]

    def test_determinism_across_runs(self, tmp_path):
        runs = (
            ("compare-rwa", REDUCED, "t_max = 1.0\nt_steps = 5\n"),
            ("evolve", REDUCED, "t_max = 2.0\nt_steps = 7\ninitial_n = 1\n"),
            ("frame-chain", FULL, "t_max = 0.5\nt_steps = 4\n"),
            ("residual-order", REDUCED, ""),
        )
        for name, params, options in runs:
            text = params + f"[experiment]\nname = {name}\n" + options
            outs = [f"{name}-a", f"{name}-b"]
            assert self.run(tmp_path, text, out=outs[0]) == 0
            assert self.run(tmp_path, text, out=outs[1]) == 0
            for f in (name.replace("-", "_") + ".csv", "metadata.json"):
                a = (tmp_path / outs[0] / f).read_bytes()
                assert a == (tmp_path / outs[1] / f).read_bytes()

    @pytest.mark.parametrize("omega_ge,omega_l,eta", [
        (2.0, 1.0, 0.0), (2.0, 1.0, 0.1), (1.00000002, 0.0, 0.1),
        (-1.0, 0.0, 0.0)])
    def test_undriven_ion_exit_codes(self, tmp_path, capsys, omega_ge,
                                     omega_l, eta):
        # no balanced frame at Omega_R = 0: every experiment that needs
        # one says so, exit 2; limits sets its own drives, exit 0
        params = (f"[params]\nnu = 1\nomega_ge = {omega_ge!r}\n"
                  f"omega_L = {omega_l!r}\nOmega_R = 0\neta = {eta!r}\n"
                  "[space]\nn_max = 6\ninterior_margin = 2\n")
        for name in sorted(EXPERIMENTS):
            text = params + f"[experiment]\nname = {name}\n"
            assert self.run(tmp_path, text) == (0 if name == "limits" else 2)
            err = capsys.readouterr().err
            assert err == ("" if name == "limits" else
                           "config error: the balanced frame needs a drive, "
                           "Omega_R > 0; got Omega_R = 0\n")

    @pytest.mark.parametrize("name,lowest,options", [
        ("spectrum", 0, "n_levels = {}\n"),
        ("evolve", 0, "initial_n = {}\nt_max = 1.0\nt_steps = 3\n"),
        # offsets around rung 30's minimum, which the default window misses
        ("anticrossing", 1, "levels = {}\n"
                            "offsets = -0.06,-0.045,-0.04,-0.035,-0.02\n"),
    ], ids=["spectrum", "evolve", "anticrossing"])
    def test_levels_past_the_interior_exit_2(self, tmp_path, capsys, name,
                                             lowest, options):
        # the interior of n_max 40, margin 10 ends at level 30; measured
        # against n_max 80, level 40 read spectrum's E_plus 0.026 off and
        # evolve's p_excited 0.19 off, while both exited 0
        text = (REDUCED + "[space]\nn_max = 40\ninterior_margin = 10\n"
                + f"[experiment]\nname = {name}\n")
        assert self.run(tmp_path, text + options.format(31)) == 2
        assert f"must be in {lowest}..30" in capsys.readouterr().err
        assert self.run(tmp_path, text + options.format(30), out="ok") == 0

    def test_import_loads_only_numpy_beyond_the_stdlib(self):
        # every run pays this import in a fresh interpreter
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import iontrap; "
             "print(*{m.partition('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) <= {"numpy", "iontrap"}

    def test_import_leaves_scipy_unloaded(self):
        # scipy is a test-only dependency; the runtime must not pull it in
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, iontrap.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_invocation(self, tmp_path):
        cfg = write(tmp_path, REDUCED + "[experiment]\nname = bogus\n")
        proc = subprocess.run(
            [sys.executable, "-m", "iontrap.cli", "run", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "valid:" in proc.stderr
