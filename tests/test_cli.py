"""Command-line surface: parsing, outputs, exit codes, bit stability."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from truncgauss import ball, xi
from truncgauss.cli import _build_parser, main
from truncgauss.report import Report, holds


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegral:
    def test_semifactorial_limit(self, capsys):
        code, out, _ = run(
            ["integral", "--v", "1", "--lambda", "1", "--rho", "1e9",
             "--index", "1:2"], capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(3.0, rel=1e-10)

    def test_equal_variance_identity(self, capsys):
        code, out, _ = run(
            ["integral", "--v", "2", "--lambda", "1,1", "--rho", "2",
             "--index", ""], capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_malformed_index_usage_error(self, capsys):
        code, _, err = run(
            ["integral", "--v", "2", "--lambda", "1,1", "--rho", "2",
             "--index", "banana"], capsys)
        assert code == 2
        assert "error" in err

    def test_dimension_mismatch_usage_error(self, capsys):
        code, _, _ = run(
            ["integral", "--v", "3", "--lambda", "1,2", "--rho", "1.0"], capsys)
        assert code == 2

    def test_numeric_failure_exit_code(self, capsys):
        # underflow at an absurdly small radius is a numeric failure, not a crash
        code, _, err = run(
            ["integral", "--v", "4", "--lambda", "1,1,1,1", "--rho", "1e-200"],
            capsys)
        assert code == 3
        assert "numeric" in err

    def test_bound_past_float_range(self, capsys):
        # (399)!! lies past float range; the member is 6.03e-5 and prints
        code, out, err = run(
            ["integral", "--lambda", "1,1", "--rho", "1", "--index", "1:200"], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2  # the header and one row

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["integral", "--v", "1", "--lambda", "2", "--rho", "3",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "est_abs_error"}

    def test_mc_oracle_route(self, capsys):
        args = ["integral", "--lambda", "1,2", "--rho", "4", "--index", "1:1",
                "--mc", "--samples", "200000", "--seed", "11"]
        code, out, _ = run(args, capsys)
        assert code == 0
        head, row = out.strip().splitlines()
        assert head == "mean,std_error,n_kept,n_total"
        mean, stderr, kept, total = row.split(",")
        assert int(total) == 200000 and 0 < int(kept) <= 200000
        code2, out2, _ = run(args, capsys)
        assert out2 == out  # reproducible per seed

    def test_mc_json_carries_seed(self, capsys):
        code, out, _ = run(
            ["integral", "--lambda", "1,2", "--rho", "4", "--index", "1:1",
             "--mc", "--samples", "20000", "--seed", "7", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"mean", "std_error", "n_kept", "n_total",
                                "seed"}
        assert payload["seed"] == 7 and payload["n_total"] == 20000

    def test_rho_range_json(self, capsys):
        code, out, _ = run(
            ["integral", "--lambda", "1", "--rho-range", "0.5:8:4:log",
             "--index", "1:2", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 4
        assert all(list(rec) == ["rho", "value", "est_abs_error"]
                   for rec in payload)
        assert payload[0]["rho"] == 0.5 and payload[-1]["rho"] == 8.0


class TestMomentsAndEta:
    def test_moments_csv_shape(self, capsys):
        code, out, _ = run(
            ["moments", "--lambda", "1,2,3", "--rho", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rho,n,lambda,second_moment")
        assert len(lines) == 4

    def test_moments_rho_range(self, capsys):
        code, out, _ = run(
            ["moments", "--lambda", "1,2", "--rho-range", "1:10:4:log"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4 * 2
        rhos = [float(l.split(",")[0]) for l in lines[1::2]]
        assert rhos[0] == pytest.approx(1.0) and rhos[-1] == pytest.approx(10.0)

    def test_bad_rho_range(self, capsys):
        code, _, _ = run(
            ["moments", "--lambda", "1", "--rho-range", "1:10:4"], capsys)
        assert code == 2
        code, _, _ = run(
            ["moments", "--lambda", "1", "--rho-range", "a:10:4:lin"], capsys)
        assert code == 2

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(
            ["eta", "--lambda", "1", "--rho", "2", "--order", "1",
             "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 2
        assert "error" in err

    def test_moments_json_negative_gaps(self, capsys):
        code, out, _ = run(
            ["moments", "--lambda", "1,2", "--rho", "4", "--format", "json"],
            capsys)
        payload = json.loads(out)
        assert code == 0
        assert all(d <= 0.0 for d in payload["delta"])

    def test_moments_rho_range_json(self, capsys):
        code, out, _ = run(
            ["moments", "--lambda", "1,2", "--rho-range", "1:10:3:lin",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [rec["rho"] for rec in payload] == [1.0, 5.5, 10.0]
        for rec in payload:
            assert list(rec) == ["rho", "second", "fourth", "gamma", "delta"]
            assert len(rec["second"]) == len(rec["fourth"]) == 2
            assert len(rec["delta"]) == 2
            assert [len(row) for row in rec["gamma"]] == [2, 2]

    def test_eta_json_keys_are_orders(self, capsys):
        code, out, _ = run(
            ["eta", "--lambda", "1,2", "--rho", "5", "--order", "3",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rho"] == 5.0
        assert list(payload["eta"]) == ["1", "2", "3"]
        assert payload["eta"]["1"] == pytest.approx(0.36655929027728096,
                                                    rel=1e-10)

    def test_eta_values(self, capsys):
        code, out, _ = run(
            ["eta", "--lambda", "1,2", "--rho", "5", "--order", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,k,eta"
        assert len(lines) == 4
        assert float(lines[1].split(",")[2]) == pytest.approx(
            0.36655929027728096, rel=1e-10)

    def test_eta_reads_one_family_per_radius(self, capsys):
        # every order at one radius comes from one family read
        ball._alpha_quad.cache_clear()
        code, _, _ = run(["eta", "--lambda", "1,2,3", "--rho", "5",
                          "--order", "6"], capsys)
        assert code == 0
        assert ball._alpha_quad.cache_info().misses == 1

    @pytest.mark.parametrize("order", ["0", "-1", "7"])
    def test_eta_order_outside_combinatorial_range_exit_two(self, order, capsys):
        # the combinatorial route covers k = 1..6: an empty table or the
        # cost cap must not pass as success or as a numeric failure
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--lambda", "1,2", "--rho", "5", "--order", order])
        assert exc.value.code == 2

    def test_integral_rho_range(self, capsys):
        code, out, _ = run(
            ["integral", "--lambda", "1", "--rho-range", "0.5:8:4:lin",
             "--index", "1:1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,value,est_abs_error"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFigures:
    def test_cp_table_alias_and_values(self, capsys):
        code, out, _ = run(["cp-table"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,p,C,fit_A,fit_eps,fit_chi2"
        rows_v2 = [l for l in lines[1:] if l.startswith("2,")]
        assert len(rows_v2) == 51
        fit_a = float(rows_v2[0].split(",")[3])
        fit_eps = float(rows_v2[0].split(",")[4])
        assert abs(fit_a - 0.522) / 0.522 < 0.05
        assert abs(fit_eps - 0.734) < 0.02

    def test_figure_cp_table_ignores_quick(self, capsys):
        code, out, _ = run(["figure", "cp-table"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "v,p,C,fit_A,fit_eps,fit_chi2"
        code, quick, _ = run(["figure", "cp-table", "--quick"], capsys)
        assert code == 0
        assert quick == out

    def test_delta_grid_quick_all_nonpositive(self, capsys):
        code, out, _ = run(["figure", "delta-grid", "--quick"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda1,lambda2,delta_1,delta_2"
        assert len(lines) == 1 + 20 * 20
        for line in lines[1:]:
            _, _, d1, d2 = line.split(",")
            assert float(d1) <= 1e-12 and float(d2) <= 1e-12

    def test_gamma_curves_quick(self, capsys):
        code, out, _ = run(["figure", "gamma-curves", "--quick"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rho_over_lambda3,abs_gamma_12")
        # beyond a few units of the largest variance the curves fall off
        tail = [float(l.split(",")[1]) for l in lines[-4:]]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_gamma_convergence_quick(self, capsys):
        code, out, _ = run(["figure", "gamma-convergence", "--quick"], capsys)
        assert code == 0
        head, *rows = out.strip().splitlines()
        assert head == ("rho_over_lambda3,gamma3_11,gamma1_11,gamma3_22,gamma1_22,"
                        "gamma3_33,gamma1_33")
        assert len(rows) == 12
        for row in rows:
            fields = [float(x) for x in row.split(",")]
            # gamma_nn of the three-variance spectrum over its one-variance limit
            ratios = [fields[1 + 2 * n] / fields[2 + 2 * n] for n in range(3)]
            assert all(0.0 < r <= 1.0 for r in ratios), row
        assert ratios == pytest.approx([1.0, 1.0, 1.0], abs=2e-3)

    def test_bit_stable_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "gamma-curves", "--quick", "--out", str(f1)]) == 0
        assert main(["figure", "gamma-curves", "--quick", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "nope"])
        assert exc.value.code == 2


# every table command; the columns that hold integers
_TABLES = {
    "integral": "integral --lambda 1,2 --rho 4 --index 1:1",
    "integral --rho-range": "integral --lambda 1 --rho-range 0.5:8:4:log --index 1:2",
    "integral --mc": "integral --lambda 1,2 --rho 4 --index 1:1 --mc --samples 10000 --seed 7",
    "moments": "moments --lambda 1,2,3 --rho 5",
    "moments --rho-range": "moments --lambda 1,2 --rho-range 1:10:3:log",
    "eta": "eta --lambda 1,2 --rho 5 --order 3",
    **{f"figure {name}": f"figure {name} --quick"
       for name in ("delta-grid", "gamma-curves", "gamma-convergence")},
    "cp-table": "cp-table",
}
_INTEGER_COLUMNS = {"v", "p", "n", "k", "n_kept", "n_total"}


@pytest.mark.parametrize("argv", _TABLES.values(), ids=_TABLES.keys())
def test_csv_fields_are_integers_or_17_digit_floats(argv, capsys):
    # every other test parses fields with float(), so none pins this form
    code, out, _ = run(shlex.split(argv), capsys)
    assert code == 0
    head, *rows = [line.split(",") for line in out.splitlines()]
    assert rows
    for row in rows:
        assert len(row) == len(head)
        for column, field in zip(head, row):
            form = r"-?\d+" if column in _INTEGER_COLUMNS else r"-?\d\.\d{16}e[+-]\d{2,3}"
            assert re.fullmatch(form, field), (column, field)


class TestVerify:
    def test_xi_suite_passes(self, capsys):
        code, out, _ = run(["verify", "xi", "--qmax", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["passed"] is True
        assert payload["claims_violated"] is False
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_xi_checks_run_to_their_ceilings(self, capsys):
        # every check runs to --qmax, which reaches xi._Q_MAX, and each
        # check's name prefix states the q it ran at
        args = _build_parser().parse_args(["verify", "xi", "--qmax", str(xi._Q_MAX)])
        assert args.qmax == xi._Q_MAX
        for q_max in (3, 8):
            code, out, _ = run(["verify", "xi", "--qmax", str(q_max)], capsys)
            assert code == 0
            names = [c["name"] for c in json.loads(out)["checks"]]
            assert {name.split("|")[0] for name in names} == {
                f"{suite}[qmax={q_max}]" for suite in
                ("omega-scan", "gap-convolution", "inverse-mass-identity")}
            for head in (f"omega-scan[qmax={q_max}]|sign-law[q={q_max}]",
                         f"gap-convolution[qmax={q_max}]|route-equivalence[q={q_max},",
                         f"inverse-mass-identity[qmax={q_max}]|identity[q={q_max},"):
                assert any(name.startswith(head) for name in names), head

    def test_structural_suite(self, capsys):
        code, out, _ = run(
            ["verify", "structural", "--lambda", "1,2", "--rho", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_report_keys_and_order(self, capsys):
        # the JSON schema: top-level keys, then each check's, in this order
        _, out, _ = run(
            ["verify", "structural", "--lambda", "1,2", "--rho", "3"], capsys)
        payload = json.loads(out)
        assert list(payload) == [
            "schema_version", "suite", "passed", "claims_violated", "checks"]
        assert payload["checks"]
        for check in payload["checks"]:
            assert list(check) == ["name", "status", "margin", "detail"]

    def test_eta_suite_quick(self, capsys):
        code, out, _ = run(["verify", "eta", "--quick"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "xi", "--qmax", str(xi._Q_MAX + 1)],
        ["verify", "all", "--quick", "--qmax", str(xi._Q_MAX + 1)],
        ["verify", "xi", "--qmax", "0"],
    ], ids=["xi-over-cap", "all-over-cap", "xi-0"])
    def test_qmax_outside_scan_range_exit_two(self, argv, capsys):
        # the xi checks cover q <= xi._Q_MAX; a larger request must not be capped
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_suite_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        "verify structural --rho 1e200",
        "verify structural --lambda 1e-300,1 --rho 1",
        "verify inequalities --lambda 1e-300,1",
        "verify inequalities --lambda 1e300,1",
        "verify asymptotic --lambda 1e-300,1",
        "integral --lambda 1,2 --rho 5 --index 1:100000",
    ])
    def test_extreme_input_ends_in_a_typed_exit(self, argv, capsys):
        # each leaked an OverflowError or ZeroDivisionError: a power past
        # float range, a squared variance that underflows, or 2^k at k > 1023
        def non_finite(constant):
            raise AssertionError(f"non-finite JSON value {constant}")

        code, out, err = run(shlex.split(argv), capsys)
        assert "Traceback" not in out + err
        if code == 0:
            json.loads(out, parse_constant=non_finite)
        else:
            assert code in (2, 3) and len(err.splitlines()) == 1, (code, err)

    @pytest.mark.parametrize("argv", [
        pytest.param("verify asymptotic --lambda 0.3,0.4,0.5", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "ROADMAP 4(h): eta_k at large radius is rounding noise, and seven "
                "asymptotic checks fail on it; item 6(b) is the fix"))),
        pytest.param("verify inequalities --lambda 1e-200,1e-200", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "ROADMAP 4(n): rho^2 underflows below rho = 1.5e-162, so the gap "
                "cannot be divided by it; item 6(a) is the fix"))),
    ], ids=["asymptotic-small-spectrum", "inequalities-tiny-spectrum"])
    def test_valid_extreme_spectrum_exits_zero(self, argv, capsys):
        # both exit 3 while their items are open
        def non_finite(constant):
            raise AssertionError(f"non-finite JSON value {constant}")

        code, out, err = run(shlex.split(argv), capsys)
        assert code == 0, (code, err)
        json.loads(out, parse_constant=non_finite)

    @pytest.mark.parametrize("argv", [
        "verify all", "verify xi --qmax 12", "verify structural --rho 1e200",
        "verify asymptotic --lambda 0.3,0.4,0.5"])
    def test_status_is_the_rule_on_the_margin(self, argv, capsys, monkeypatch):
        # every printed check has the status report.holds gives the margin
        # and size it was added with, and prints that margin's value; so one
        # without a bar passes iff its printed margin is >= 0
        added, add = [], Report.add

        def spy(report, name, margin, size=0.0, claim=False, detail=""):
            added.append((name, margin, size, claim))
            return add(report, name, margin, size, claim, detail)

        monkeypatch.setattr(Report, "add", spy)
        _, out, _ = run(shlex.split(argv), capsys)
        checks = json.loads(out)["checks"]
        assert len(checks) == len(added) > 0
        for check, (name, margin, size, claim) in zip(checks, added):
            value, error = margin if isinstance(margin, tuple) else (margin, 0.0)
            assert check["name"].endswith(name)
            assert repr(check["margin"]) == repr(float(value))
            status = "pass" if holds(margin, size) else \
                "violated-claim" if claim else "fail"
            assert check["status"] == status, check
            if check["margin"] >= 0.0 or not (error or size):
                assert (check["status"] == "pass") == (check["margin"] >= 0.0), check

    def test_all_quick_within_budget(self, capsys):
        import time

        start = time.time()
        code, out, _ = run(["verify", "all", "--quick", "--qmax", "4"], capsys)
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 300.0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_thread_count_does_not_change_output(self, capsys, monkeypatch):
        # grids run in order in the calling thread; TG_THREADS is not read
        for argv in (["figure", "gamma-curves", "--quick"],
                     ["moments", "--lambda", "1,2", "--rho-range", "1:5:6:log"]):
            outputs = set()
            for threads in (None, "4", "four"):
                if threads is None:
                    monkeypatch.delenv("TG_THREADS", raising=False)
                else:
                    monkeypatch.setenv("TG_THREADS", threads)
                code, out, err = run(argv, capsys)
                assert code == 0 and out and not err, (argv, threads)
                outputs.add(out)
            assert len(outputs) == 1, argv


# a valid invocation of each subcommand, and the options none of them reads
_BASES = {
    "moments": ["moments", "--lambda", "1", "--rho", "2"],
    "eta": ["eta", "--lambda", "1", "--rho", "2", "--order", "1"],
    "figure": ["figure", "gamma-curves", "--quick"],
    "cp-table": ["cp-table"],
    "verify": ["verify", "xi", "--qmax", "2"],
    **{f"verify {suite}": ["verify", suite]
       for suite in ("structural", "inequalities", "eta", "asymptotic", "xi", "all")},
}
_UNREAD = [("moments", "--seed 1"), ("eta", "--seed 1"),
           ("figure", "--v 2"), ("figure", "--lambda 1"),
           ("figure", "--seed 1"), ("figure", "--format json"),
           ("cp-table", "--v 2"), ("cp-table", "--lambda 1"),
           ("cp-table", "--seed 1"), ("cp-table", "--format json"),
           ("cp-table", "--quick"),
           ("verify", "--rho-range 1:2:2:lin"), ("verify", "--seed 1"),
           ("verify", "--format csv"), ("verify", "--order 2"),
           ("verify eta", "--lambda 1,2"), ("verify eta", "--v 2"),
           ("verify eta", "--rho 3"), ("verify eta", "--qmax 2"),
           ("verify xi", "--rho 3"), ("verify xi", "--quick"),
           ("verify xi", "--lambda 1"), ("verify structural", "--quick"),
           ("verify structural", "--qmax 2"), ("verify inequalities", "--rho 3"),
           ("verify inequalities", "--qmax 2"), ("verify asymptotic", "--rho 3"),
           ("verify asymptotic", "--qmax 2"),
           # --v could only repeat what --lambda or a suite's default fixes
           ("verify structural", "--v 3"), ("verify inequalities", "--v 2"),
           ("verify asymptotic", "--v 2"), ("verify all", "--quick --v 3")]


# every option each verify suite reads, and `all` reads them all
_SUITE_READ = {
    "structural": "--lambda 1,2 --rho 3",
    "inequalities": "--lambda 1,2 --quick",
    "eta": "--quick",
    "asymptotic": "--lambda 1,2 --quick",
    "xi": "--qmax 3",
    "all": "--lambda 1,2 --rho 3 --quick --qmax 3",
}


_BOTH_RADII = {
    "integral": ["integral", "--lambda", "1,2", "--index", "1:1"],
    "integral --mc": ["integral", "--mc", "--lambda", "1,2", "--samples",
                      "10000"],
    "moments": ["moments", "--lambda", "1,2"],
    "eta": ["eta", "--lambda", "1,2", "--order", "1"],
}


class TestSurface:
    @pytest.mark.parametrize("base", _BOTH_RADII)
    def test_rho_with_rho_range_exit_two(self, base, capsys):
        # one of the two used to be dropped without notice
        with pytest.raises(SystemExit) as exc:
            main(_BOTH_RADII[base] + ["--rho", "2", "--rho-range", "1:3:2:lin"])
        assert exc.value.code == 2

    def test_mc_rho_range_exit_two(self, capsys):
        code, out, err = run(_BOTH_RADII["integral --mc"]
                             + ["--rho-range", "1:3:2:lin"], capsys)
        assert code == 2 and not out
        assert "--rho-range" in err

    @pytest.mark.parametrize("option", ["--samples 20000", "--seed 3"])
    def test_mc_options_without_mc_exit_two(self, option, capsys):
        # the quadrature route used to ignore them without notice
        code, out, err = run(_BOTH_RADII["integral"] + ["--rho", "2"]
                             + option.split(), capsys)
        assert code == 2 and not out
        assert "--mc" in err

    @pytest.mark.parametrize(
        "command,option", _UNREAD,
        ids=[f"{c} {o.split()[0]}" for c, o in _UNREAD])
    def test_unread_option_rejected(self, command, option, capsys):
        # an option no handler reads would be silently ignored; the usage
        # line shown is the command's own, not the top-level one
        with pytest.raises(SystemExit) as exc:
            main(_BASES[command] + option.split())
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[0].startswith(
            f"usage: truncgauss {command} ")

    @pytest.mark.parametrize("suite", _SUITE_READ)
    def test_suite_options_parse(self, suite):
        args = _build_parser().parse_args(
            ["verify", suite, "--out", "r.json"] + _SUITE_READ[suite].split())
        assert args.suite == suite and args.out == "r.json"

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1]
        block = block.split("```", 2)[1]
        commands = [shlex.split(line, comments=True)
                    for line in block.splitlines()
                    if line.startswith("truncgauss ")]
        assert len(commands) >= 10
        parser = _build_parser()
        for tokens in commands:
            parser.parse_args(tokens[1:])


# every usage error the command line raises after argparse, one case each;
# rho-range-inf printed a numpy RuntimeWarning first, rho-range-memory ended
# in a MemoryError traceback, and variance-empty-token read 1,,2 as 1,2
_USAGE_ERRORS = {
    "index-form": "integral --lambda 1,1 --rho 2 --index banana",
    "index-empty-tokens": "integral --lambda 1,1 --rho 2 --index ,,",
    "index-dimension": "integral --lambda 1,1 --rho 2 --index 3:1",
    "index-multiplicity": "integral --lambda 1,1 --rho 2 --index 1:-1",
    "v-mismatch": "integral --v 3 --lambda 1,2 --rho 1",
    "variance-token": "moments --lambda 1,a --rho 1",
    "variance-empty-token": "moments --lambda 1,,2 --rho 1",
    "no-variance": "moments --rho 1",
    "no-radius": "moments --lambda 1",
    "rho-range-form": "moments --lambda 1 --rho-range 1:10:4",
    "rho-range-scale": "moments --lambda 1 --rho-range 1:10:4:cubic",
    "rho-range-end": "moments --lambda 1 --rho-range a:10:4:lin",
    "rho-range-zero": "moments --lambda 1 --rho-range 0:10:4:log",
    "rho-range-inf": "moments --lambda 1 --rho-range 1:inf:3:lin",
    "rho-range-order": "eta --lambda 1 --rho-range 5:1:4:lin",
    "rho-range-points": "integral --lambda 1 --rho-range 1:2:1:lin",
    "rho-range-memory": "moments --lambda 1 --rho-range 1:2:100000000000:lin",
    "mc-rho-range": "integral --mc --lambda 1,2 --samples 10000 --rho-range 1:3:2:lin",
    "mc-no-radius": "integral --mc --lambda 1,2",
    "mc-options": "integral --lambda 1,2 --rho 2 --seed 3",
}


@pytest.fixture
def no_large_grid(monkeypatch):
    """numpy's grids raise MemoryError past 10^6 points, allocating nothing."""
    for name in ("linspace", "geomspace"):
        def grid(start, stop, num, *rest, _real=getattr(np, name), **kwargs):
            if num > 10 ** 6:
                raise MemoryError(f"cannot allocate a grid of {num} points")
            return _real(start, stop, num, *rest, **kwargs)
        monkeypatch.setattr(np, name, grid)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
    def test_usage_error_is_one_line(self, argv, capsys, no_large_grid):
        code, out, err = run(shlex.split(argv), capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err and "Warning" not in err

    def test_underflowing_rho_square_is_numeric_failure(self, capsys):
        # the battery's smallest radius squares to 0: a ZeroDivisionError traceback
        code, out, err = run(["verify", "inequalities", "--lambda", "1e-200,1e-200"],
                             capsys)
        assert (code, out) == (3, "")
        assert err == "numeric failure: rho^2 at rho = 5e-201 underflows to 0\n"
