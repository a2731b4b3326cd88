import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hekdv
import hekdv.sim
from hekdv import cli
from hekdv.cli import run
from hekdv.errors import (SingularityAbort, StepBudgetExhausted,
                          ZeroDenominatorError)
from hekdv.report import emit_report


class TestVerifyCommand:
    def test_rational_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "rational", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "PASS"
        assert doc["version"] == "0.1.0"
        ids = [c["id"] for c in doc["checks"]]
        assert "thm-8.1" in ids and "sec-8-UV" in ids
        for check in doc["checks"]:
            assert set(check) == {"id", "paper_anchor", "status",
                                  "residual_summary", "residuals", "millis"}

    def test_appendix_suite(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "appendix", "--out", str(out)]) == 0
        ids = [c["id"] for c in json.loads(out.read_text())["checks"]]
        assert ids == ["app-F-forms", "thm-A.1", "ex-A.1", "ex-A.3"]

    def test_bm_suite_ids(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "bm", "--out", str(out)]) == 0
        ids = [c["id"] for c in json.loads(out.read_text())["checks"]]
        assert ids == ["thm-3.1-I", "thm-3.1-II", "prop-5.4-T1", "prop-5.4-T3"]

    def test_dkdv_suite_composition(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["verify", "dkdv", "--out", str(out)]) == 0
        ids = [c["id"] for c in json.loads(out.read_text())["checks"]]
        assert ids == ["eq-seconddif", "thm-5.5-first", "thm-5.5-second",
                       "thm-5.5-third", "thm-5.5-fourth", "prop-6.5",
                       "psi-identity", "eq-trans2", "prop-6.3"]

    def test_verify_all(self, tmp_path):
        out = tmp_path / "all.json"
        assert run(["verify", "all", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "PASS"
        ids = [c["id"] for c in doc["checks"]]
        assert len(ids) == len(set(ids))        # one entry per check id
        for expected in ("thm-3.1-I", "eq-seconddif", "thm-5.5-first",
                         "prop-6.5", "thm-8.1", "thm-A.1", "ex-A.1", "ex-A.3"):
            assert expected in ids

    def test_verify_all_matches_golden(self, capsys):
        # the committed report of the benchmark's certify workload; only
        # millis may differ
        golden = (Path(__file__).resolve().parents[1]
                  / "perfbench" / "golden" / "verify_all.json")
        assert run(["verify", "all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for check in doc["checks"]:
            check.pop("millis")
        assert doc == json.loads(golden.read_text())

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "nonsense"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run(["verify", "bm", "--bogus", "1"]) == 2

    def test_determinism_modulo_millis(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(["verify", "rational", "--out", str(out1)])
        run(["verify", "rational", "--out", str(out2)])
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        for d in (d1, d2):
            for c in d["checks"]:
                c.pop("millis")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


class TestSimulateCommand:
    def test_csv_and_summary(self, tmp_path):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "sum.json"
        code = run(["simulate", "--flow", "I", "--t-end", "0.5",
                    "--rel-tol", "1e-12", "--csv", str(csv),
                    "--out", str(out)])
        assert code == 0
        assert csv.read_text().splitlines()[0] == "time,u2,u4,u5,u7,H12,H14"
        doc = json.loads(out.read_text())
        assert doc["relative_drift_H12"] <= 1e-9
        assert not doc["aborted"]
        steps = doc["steps"]
        assert steps["accepted"] == doc["samples"] - 1
        assert steps["nfev"] == 2 + 6 * (steps["accepted"] + steps["rejected"])
        assert 0 < steps["h_min"] <= steps["h_max"]

    def test_exact_rational_parameters(self, tmp_path):
        out = tmp_path / "sum.json"
        code = run(["simulate", "--flow", "I", "--t-end", "0.2",
                    "--y", "0,0,0,0,1/1024,-1/1024",
                    "--p1", "1/4,auto", "--p2", "1/8,auto",
                    "--out", str(out)])
        assert code == 0

    def test_negative_span_runs_backwards(self, tmp_path):
        out = tmp_path / "sum.json"
        code = run(["simulate", "--flow", "I", "--t-end", "-0.05",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reached_time"] == -0.05 and not doc["aborted"]

    def test_t_flow_from_a_zero_abscissa_is_a_seed_error(self, capsys):
        # u4 - u2^2 = -x1*x2 vanishes: the seed is on T1's singular set
        assert run(["simulate", "--flow", "T1", "--y", "0,0,0,0,1,0",
                    "--p1", "0,0", "--p2", "1,auto"]) == 2
        err = capsys.readouterr().err
        assert "error: seed sits on the singular set" in err

    def test_singular_curve_rejected(self):
        assert run(["simulate", "--flow", "I", "--y", "0,0,0,0,0,0"]) == 2

    def test_off_curve_point_rejected(self):
        assert run(["simulate", "--flow", "I", "--p1", "1,7"]) == 2


class TestSeriesCommand:
    def test_matches_expansion(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["series", "phi", "--order", "12", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        coeffs = doc["coefficients"]
        assert coeffs[2] == "1" and coeffs[7] == "1/3" and coeffs[12] == "14/45"

    def test_rational_strings(self, tmp_path):
        out = tmp_path / "s.json"
        run(["series", "phi", "--order", "7", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert all("/" in c or c.lstrip("-").isdigit()
                   for c in doc["coefficients"])


class TestCommuteCommand:
    def test_default_pair(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["commute", "--sigma", "0.1", "--tau", "0.1",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] and doc["discrepancy"] <= 1e-8
        assert set(doc["steps"]) == {"accepted", "rejected", "guard_rejected",
                                     "nfev", "h_min", "h_max"}
        assert doc["steps"]["accepted"] > 0

    def test_backward_legs(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["commute", "--sigma", "-0.05", "--tau", "0.05",
                    "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_bad_flows_usage(self):
        assert run(["commute", "--sigma", "0.1", "--tau", "0.1",
                    "--flows", "T1"]) == 2

    def test_unknown_flows_with_zero_spans(self, capsys):
        # no leg runs, and the flow ids are still checked
        assert run(["commute", "--sigma", "0", "--tau", "0",
                    "--flows", "X,Y"]) == 2
        assert "unknown flow" in capsys.readouterr().err

    def test_zero_span_legs_add_no_steps(self, tmp_path):
        # both nonzero legs are T3 over 0.05 from the seed, and the legs of
        # zero span run through integrate without a step
        out = tmp_path / "c.json"
        assert run(["commute", "--sigma", "0", "--tau", "0.05",
                    "--out", str(out)]) == 0
        steps = json.loads(out.read_text())["steps"]
        params = hekdv.CurveParams.numeric(3, [0, 0, 0, 0, 1, 1])
        s0 = hekdv.seed_state(params, (1, 1),
                              (2, hekdv.curve_ordinate(params, 2)))
        one = hekdv.integrate("T3", s0, 0.05, params=params).step_stats()
        for key in ("accepted", "rejected", "guard_rejected", "nfev"):
            assert steps[key] == 2 * one[key]
        assert (steps["h_min"], steps["h_max"]) == (one["h_min"], one["h_max"])
        assert one["accepted"] > 0

    def test_zero_spans_from_a_zero_abscissa_are_a_seed_error(self, capsys):
        # a leg of zero span checks its seed as any run does
        assert run(["commute", "--sigma", "0", "--tau", "0",
                    "--y", "0,0,0,0,1,0", "--p1", "0,0", "--p2", "1,auto"]) == 2
        assert "error: seed sits on the singular set" in capsys.readouterr().err


class TestExitCodes:
    def test_malformed_rational_is_usage_error(self):
        assert run(["simulate", "--flow", "I", "--p1", "1,one"]) == 2
        assert run(["simulate", "--flow", "I", "--y", "0,0,0,0,1/0,1"]) == 2

    def test_internal_fault_exits_one(self, monkeypatch, capsys):
        def boom():
            raise ValueError("zero polynomial has no leading term")
        monkeypatch.setitem(cli.SUITES, "bm", boom)
        assert run(["verify", "bm"]) == 1
        err = capsys.readouterr().err
        assert "internal error: ValueError" in err
        assert "Traceback (most recent call last)" in err

    def test_package_error_from_a_suite_is_internal(self, monkeypatch, capsys):
        # a package exception that is not about the input is a program
        # fault, not a usage error
        def boom():
            raise ZeroDenominatorError("rational function with zero denominator")
        monkeypatch.setitem(cli.SUITES, "bm", boom)
        assert run(["verify", "bm"]) == 1
        assert "internal error: ZeroDenominatorError" in capsys.readouterr().err

    def test_commute_abort_exits_one(self, monkeypatch, capsys):
        # a leg escapes to infinity before sigma = tau = 1: the T3 leg, at
        # a step that the escape test must not move
        integrate = hekdv.sim.integrate
        raised = []

        def record(flow, *args, **kwargs):
            try:
                return integrate(flow, *args, **kwargs)
            except SingularityAbort as exc:
                raised.append((flow, exc))
                raise
        monkeypatch.setattr(hekdv.sim, "integrate", record)
        assert run(["commute", "--sigma", "1", "--tau", "1"]) == 1
        err = capsys.readouterr().err
        assert "error: state magnitude overflow (finite-time escape)" in err
        assert "Traceback" not in err and "internal error" not in err
        [(flow, exc)] = raised
        traj = exc.trajectory
        assert flow == "T3"
        assert traj.abort_reason == "state magnitude overflow (finite-time escape)"
        stats = traj.step_stats()
        assert (stats["accepted"], stats["rejected"], stats["guard_rejected"],
                stats["nfev"]) == (34945, 1, 0, 209678)
        assert traj.samples[-1][0] == 0.5219687944365357

    @pytest.mark.parametrize("argv", [
        ["simulate", "--y", "0,100,100,1e308,0.5,1", "--flow", "II",
         "--t-end", "-1"],
        ["simulate", "--p1", "1e308,0", "--flow", "I", "--t-end", "2"],
        ["commute", "--p2", "7,1e308", "--sigma", "1", "--tau", "2"],
    ], ids=["ordinate", "abscissa", "ordinate-square"])
    def test_values_outside_the_float_range_exit_two(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "lies outside the float range" in err
        assert "Traceback" not in err and "internal error" not in err

    def test_simulate_step_budget_exits_one(self, monkeypatch, tmp_path):
        monkeypatch.setattr(hekdv.sim, "MAX_STEPS", 3)
        out = tmp_path / "sum.json"
        assert run(["simulate", "--flow", "I", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["aborted"] is True
        assert doc["abort_reason"] == "step budget exhausted"
        assert doc["steps"]["accepted"] + doc["steps"]["rejected"] == 3

    def test_commute_step_budget_exits_one(self, monkeypatch, capsys):
        integrate = hekdv.sim.integrate
        raised = []

        def tight_budget(*args, **kwargs):
            try:
                return integrate(*args, **kwargs)
            except SingularityAbort as exc:
                raised.append(exc)
                raise
        monkeypatch.setattr(hekdv.sim, "MAX_STEPS", 3)
        monkeypatch.setattr(hekdv.sim, "integrate", tight_budget)
        assert run(["commute", "--sigma", "0.1", "--tau", "0.1"]) == 1
        assert [type(exc) for exc in raised] == [StepBudgetExhausted]
        assert issubclass(StepBudgetExhausted, SingularityAbort)
        err = capsys.readouterr().err
        assert "error: step budget exhausted" in err
        assert "Traceback" not in err and "internal error" not in err


class TestUnusableSimulatorSettings:
    """Spans and tolerances the stepper cannot honour, and series targets
    that do not exist, exit 2 with no result."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--flow", "I", "--t-end=nan"],
        ["simulate", "--flow", "I", "--rel-tol=-1e-6"],
        ["simulate", "--flow", "I", "--rel-tol=0", "--abs-tol=0"],
        ["simulate", "--flow", "I", "--abs-tol=nan"],
        ["commute", "--sigma=nan", "--tau=0.1"],
        ["commute", "--sigma=0", "--tau=0", "--rel-tol=-1"],
        ["series", "psi"],
        ["simulate", "--flow", "II", "--t-end", "5e-14"],
        ["commute", "--sigma", "5e-14", "--tau", "0.1"],
        # u2 = 0 at this seed: with abs_tol 0 its error scale would be 0
        ["simulate", "--abs-tol", "0", "--p1", "1,1", "--p2=-1,auto",
         "--flow", "I"],
    ])
    def test_exits_two_without_a_document(self, argv, tmp_path, capsys):
        out = tmp_path / "doc.json"
        assert run([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert '"pass"' not in captured.out
        assert "error: " in captured.err
        assert "step size underflow" not in captured.err


class TestColdVerify:
    @pytest.mark.parametrize("argv", [
        ["verify", "integrals"],
        ["simulate", "--flow", "I", "--t-end", "0.1"],
        ["commute", "--sigma", "0.01", "--tau", "0.01"],
    ], ids=["verify", "simulate", "commute"])
    def test_verify_does_not_import_numpy(self, argv):
        src = str(Path(hekdv.__file__).resolve().parents[1])
        code = ("import sys, hekdv.cli; "
                "assert hekdv.cli.run(sys.argv[2:] + ['--out', "
                "sys.argv[1]]) == 0; "
                "assert 'numpy' not in sys.modules, 'numpy was imported'")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, os.devnull, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


class TestImportFootprint:
    """A process loads only what its command runs: no module of the
    standard library that only dataclasses or an internal error needs, and
    no suite's module or simulator that the command does not run."""

    UNUSED = ("dataclasses", "inspect", "ast", "dis", "traceback")

    @pytest.mark.parametrize("argv, absent", [
        (["verify", "bm"], ("hekdv.sim",)),
        (["simulate", "--flow", "I", "--t-end", "0.01"],
         ("hekdv.phiring", "hekdv.ratlimit")),
    ], ids=["verify", "simulate"])
    def test_modules_loaded(self, argv, absent):
        src = str(Path(hekdv.__file__).resolve().parents[1])
        code = ("import json, sys, hekdv.cli; "
                "imported = sorted(sys.modules); "
                "code = hekdv.cli.run(sys.argv[2:] + ['--out', sys.argv[1]]); "
                "print(json.dumps([code, imported, sorted(sys.modules)]))")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, os.devnull, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        code, imported, ran = json.loads(done.stdout)
        assert code == 0, done.stderr
        assert "hekdv.cli" in imported
        assert set(imported) & set(self.UNUSED) == set()
        assert set(ran) & {*self.UNUSED, *absent} == set()


class TestMalformedMemCap:
    """A malformed HEKDV_MEM_CAP_MB is a usage error, also at import time."""

    @pytest.mark.parametrize("argv", [
        ["verify", "integrals"],
        ["simulate", "--flow", "I", "--t-end", "0.01"],
    ])
    def test_exits_two_without_traceback(self, argv):
        src = str(Path(hekdv.__file__).resolve().parents[1])
        env = {**os.environ, "HEKDV_MEM_CAP_MB": "abc", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "hekdv.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2, done.stderr
        assert "error: HEKDV_MEM_CAP_MB='abc' is not a number" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400", "0", "-5"])
    def test_non_finite_or_non_positive_exits_two(self, raw):
        src = str(Path(hekdv.__file__).resolve().parents[1])
        env = {**os.environ, "HEKDV_MEM_CAP_MB": raw, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "hekdv.cli", "verify", "bm"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2, done.stderr
        assert (f"error: HEKDV_MEM_CAP_MB={raw!r} is not a finite positive "
                f"number") in done.stderr
        assert "Traceback" not in done.stderr


class TestReportHelpers:
    def test_empty_check_list_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])

    def test_failed_check_yields_overall_fail_with_residual(self):
        from hekdv.poly import MPoly
        from hekdv.tables import flow_table
        from hekdv.verify_tables import verify_flow_table
        mutated = flow_table("I").mutated("u5", 2 * MPoly.var("u2", 4))
        doc = emit_report([verify_flow_table("I", table=mutated)])
        assert doc["overall"] == "FAIL"
        bad = [r for c in doc["checks"] for r in c["residuals"]
               if r["value"] != "0"]
        # the offending residual is included, written in the pullback chart
        assert bad and any("X1" in r["value"] for r in bad)


class TestAbortExitCode:
    def test_simulate_abort_exits_one(self, tmp_path):
        # T1 from a seed that crosses the singular set aborts with a
        # partial trajectory and exit code 1
        out = tmp_path / "sum.json"
        csv = tmp_path / "partial.csv"
        code = run(["simulate", "--flow", "T1", "--t-end", "1",
                    "--y", "0,0,0,0,1,-1", "--p1=-1/2,auto",
                    "--p2", "1/2,auto", "--out", str(out),
                    "--csv", str(csv)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["aborted"] and doc["reached_time"] < 1.0
        assert csv.read_text().startswith("time,")

    def test_polynomial_flow_underflow_names_no_singular_set(self, tmp_path):
        # flow I has no singular set: a tolerance no float step can honour
        # aborts for the step size alone
        out = tmp_path / "sum.json"
        code = run(["simulate", "--rel-tol=0", "--abs-tol=1e-30", "--flow",
                    "I", "--t-end=0.05", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["aborted"] and doc["abort_reason"] == "step size underflow"

    def test_overflowed_first_derivative_norm_aborts(self, tmp_path, capsys):
        # u2 = 0 at this seed, so u2's error scale is abs_tol = 1e-300 and
        # the norm of the first derivative overflows to inf; the first step
        # guess falls back to 1e-6 instead of dividing by a zero guess
        out = tmp_path / "sum.json"
        code = run(["simulate", "--flow", "II", "--p2=-1,auto",
                    "--abs-tol=1e-300", "--t-end=3.5", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["aborted"] and doc["abort_reason"] == "step size underflow"
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err
