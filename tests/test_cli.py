"""Config parsing, experiment tables, output files and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from iontrap import SpaceConfig, ModelParams, frame_chain_fn, ith_fn
from iontrap.experiments import (
    EXPERIMENTS, ConfigError, DiagnosticError, Options, ResultTable,
    spectrum, evolve, compare_rwa, residual_order, anticrossing,
    limits, frame_chain,
)
from iontrap.cli import main, parse_config
from level_pairing import paired_level_errors

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

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError):
            Options({"levels": "1.5"}).get_ints("levels", ())

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
        want = [err for _, err in paired_level_errors(p, 10, SPACE)]
        assert got == pytest.approx(want, abs=1e-12)
        assert got[-1] == pytest.approx(3.72e-2, abs=5e-5)

    def test_unresolved_rung_is_a_diagnostic(self):
        # lam sqrt(n) ~ nu mixes the rungs beyond any confident pairing
        strong = ModelParams.from_balanced(1.0, 1.0, 0.0, 0.6)
        with pytest.raises(DiagnosticError, match="ambiguous level pairing"):
            spectrum(strong, SPACE, Options({"n_levels": "10"}), map)

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


class TestSweepsFactorOnce:
    # the time sweeps diagonalize per run, not per time point
    def count_eigh(self, monkeypatch, fn, *args):
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
        # defaults t = 0.5, 1, 1.5, 2 at 200 steps per unit: one sweep of
        # 400 order-4 steps, one eigh each, besides building the chain and
        # the lab Hamiltonian; each time from 0 takes 100 + 200 + 300 + 400
        n_setup = (self.count_eigh(monkeypatch, frame_chain_fn, P_RES, SPACE)
                   + self.count_eigh(monkeypatch, ith_fn, P_RES, SPACE))
        n_run = self.count_eigh(monkeypatch, frame_chain,
                                P_RES, SPACE, Options({}), map)
        assert n_run == 400 + n_setup


class TestResidualOrderExperiment:
    def test_slopes_certify_the_orders(self):
        (table,) = residual_order(P_RES, SPACE, Options({}), map)
        meta = table.metadata
        assert meta["R1_slope"] >= 1.7
        assert meta["R2_slope"] >= 2.7
        assert meta["R1_conclusive"] and meta["R2_conclusive"]

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigError):
            residual_order(P_RES, SPACE, Options({"regime": "bogus"}), map)


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

    def test_ambiguity_is_a_diagnostic(self):
        strong = ModelParams.from_balanced(1.0, 1.0, 0.12, 0.6)
        opts = Options({"levels": "1", "offsets": "0.0"})
        with pytest.raises(DiagnosticError):
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


class TestFrameChainExperiment:
    P = ModelParams(nu=1.0, omega_ge=1.9, omega_L=1.0, Omega_R=0.25, eta=0.1)

    def test_self_check_passes(self):
        opts = Options({"t_max": "2.0", "t_steps": "3"})
        (table,) = frame_chain(self.P, SPACE, opts, map)
        assert max(table.columns["interior_err"]) <= 1e-6

    def test_tolerance_violation_is_a_diagnostic(self):
        opts = Options({"t_max": "1.0", "t_steps": "2", "tolerance": "1e-15"})
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
    def run(self, tmp_path, text, out="out", threads=None):
        argv = ["run", write(tmp_path, text), "--out", str(tmp_path / out)]
        if threads:
            argv += ["--threads", str(threads)]
        return main(argv)

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

    def test_option_error_exit_2(self, tmp_path):
        text = REDUCED + "[experiment]\nname = spectrum\nwidgets = 7\n"
        assert self.run(tmp_path, text) == 2

    @pytest.mark.parametrize("text", [
        FULL.replace("nu = 1.0", "nu = -1") + "[experiment]\nname = limits\n",
        FULL + "[experiment]\nname = frame-chain\ntolerance = nan\n",
        REDUCED + "[experiment]\nname = evolve\nt_max = nan\n",
        FULL + "[experiment]\nname = frame-chain\norder = 3\n",
    ], ids=["negative-nu", "nan-tolerance", "nan-t_max", "integrator-order"])
    def test_bad_value_exit_2(self, tmp_path, text):
        assert self.run(tmp_path, text) == 2

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

    def test_diagnostic_exit_3_still_writes(self, tmp_path):
        text = ("[params]\nnu = 1.0\ndelta_breve = 1.0\n"
                "eta_breve = 0.12\nlambda = 0.6\n"
                "[experiment]\nname = anticrossing\nlevels = 1\noffsets = 0.0\n")
        assert self.run(tmp_path, text) == 3
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert "ambiguity" in meta["diagnostic"]

    def test_determinism_across_runs_and_threads(self, tmp_path):
        # one factored propagator is shared read-only by the worker threads
        runs = (
            ("compare-rwa", REDUCED, "t_max = 1.0\nt_steps = 5\n"),
            ("evolve", REDUCED, "t_max = 2.0\nt_steps = 7\ninitial_n = 1\n"),
            ("frame-chain", FULL, "t_max = 0.5\nt_steps = 4\n"
                                  "steps_per_unit = 40\n"),
            ("residual-order", REDUCED, ""),
        )
        for name, params, options in runs:
            text = params + f"[experiment]\nname = {name}\n" + options
            outs = [f"{name}-a", f"{name}-b", f"{name}-c"]
            assert self.run(tmp_path, text, out=outs[0]) == 0
            assert self.run(tmp_path, text, out=outs[1]) == 0
            assert self.run(tmp_path, text, out=outs[2], threads=3) == 0
            for f in (name.replace("-", "_") + ".csv", "metadata.json"):
                a = (tmp_path / outs[0] / f).read_bytes()
                assert a == (tmp_path / outs[1] / f).read_bytes()
                assert a == (tmp_path / outs[2] / f).read_bytes()

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
