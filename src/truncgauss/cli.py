"""Command-line surface: single-point queries, figure data, verify suites.

Emits CSV (default) or JSON.  Exit codes: 0 on success (including claim
findings, which are flagged in the JSON rather than the exit code), 2 on
usage errors, 3 on numeric failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import eta as eta_mod
from . import moments as moments_mod
from . import xi as xi_mod
from .ball import (MultiIndex, Spectrum, ball_integral, ball_integral_mc,
                   verify_structural)
from .errors import DomainError, NumericError, TruncGaussError
from .expansion import convergence_estimate
from .report import Report
from .special import _integer, _positive

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _number(token: str):
    """A command-line token as an int or a float where it parses as one,
    else the token itself, for the library's validators to reject."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def _parse_index(raw: str, v: int) -> MultiIndex:
    """--index dim:mult[,dim:mult...], 1-based dims; "" is the zero index."""
    ks = [0] * v
    for token in raw.split(",") if raw.strip() else ():
        dim, colon, mult = token.partition(":")
        if not colon:
            raise DomainError(f"index token {token!r} is not of the form dim:mult")
        ks[_integer(_number(dim), "index dimension", 1, v) - 1] += _integer(
            _number(mult), "index multiplicity", 0)
    return MultiIndex(tuple(ks))


def _radii(args: argparse.Namespace) -> list[float]:
    """[--rho], or the --rho-range grid min:max:points:lin|log."""
    if args.rho_range is None:
        if args.rho is None:
            raise DomainError(f"{args.command} needs --rho or --rho-range")
        return [args.rho]
    parts = args.rho_range.split(":")
    grid = {"lin": np.linspace, "log": np.geomspace}.get(parts[-1])
    if len(parts) != 4 or grid is None:
        raise DomainError(f"rho range must be min:max:points:lin or "
                          f"min:max:points:log, got {args.rho_range!r}")
    lo, hi = (_positive(_number(end), "rho range end") for end in parts[:2])
    points = _integer(_number(parts[2]), "rho range point count", 2)
    if not lo < hi:
        raise DomainError(f"rho range needs min < max, got {lo} and {hi}")
    try:
        return grid(lo, hi, points).tolist()
    except MemoryError:
        raise DomainError(f"a rho range of {points} points does not fit in memory") from None


def _csv(head: list[str], rows) -> list[str]:
    """The CSV lines of a table: the header, then each row of numbers, an
    integer as an int and any other number with 17 significant digits."""
    return [",".join(head)] + [
        ",".join(str(x) if isinstance(x, (int, np.integer)) else f"{x:.16e}" for x in row)
        for row in rows]


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum(args: argparse.Namespace, default: Spectrum | None = None) -> Spectrum:
    """--lambda as a Spectrum, else ``default``; a query's --v must match it."""
    tokens = () if args.lambdas is None else args.lambdas.split(",")
    spec = Spectrum(tuple(map(_number, tokens))) if tokens or default is None else default
    if getattr(args, "v", None) not in (None, spec.v):
        raise DomainError(f"--v {args.v} does not match the {spec.v} variances "
                          f"of the spectrum")
    return spec


def _write(args: argparse.Namespace, head: list[str], records: list,
           rows, single: bool) -> int:
    """Write records as JSON (a bare object when single) or as CSV.

    rows(record) gives the CSV rows of one record, each a list of numbers.
    """
    if args.fmt == "json":
        lines = [json.dumps(records[0] if single else records)]
    else:
        lines = _csv(head, [row for rec in records for row in rows(rec)])
    _emit(lines, args.out)
    return EXIT_OK


def _query(args: argparse.Namespace, head: list[str], record, rows) -> int:
    """Evaluate record(rho) at --rho, or over --rho-range in cell order."""
    return _write(args, head, [record(rho) for rho in _radii(args)], rows,
                  single=args.rho_range is None)


def cmd_integral(args: argparse.Namespace) -> int:
    spec = _spectrum(args)
    index = _parse_index(args.index, spec.v)
    if args.mc:
        if args.rho is None:
            raise DomainError("integral --mc needs --rho, and takes no --rho-range")
        est = ball_integral_mc(index, args.rho, spec,
                               1_000_000 if args.samples is None else args.samples,
                               0 if args.seed is None else args.seed)
        head = ["mean", "std_error", "n_kept", "n_total"]
        return _write(args, head, [vars(est)],  # JSON also carries the seed
                      lambda rec: [[rec[key] for key in head]], single=True)
    if args.samples is not None or args.seed is not None:
        raise DomainError("--samples and --seed belong to integral --mc")
    # a single point carries no rho field
    head = ([] if args.rho_range is None else ["rho"]) + ["value", "est_abs_error"]

    def record(rho: float) -> dict:
        x = ball_integral(index, rho, spec)
        full = {"rho": rho, "value": x.value, "est_abs_error": x.est_abs_error}
        return {key: full[key] for key in head}

    return _query(args, head, record, lambda rec: [list(rec.values())])


def cmd_moments(args: argparse.Namespace) -> int:
    spec = _spectrum(args)

    def record(rho: float) -> dict:
        mom = moments_mod.conditional_moments(rho, spec)
        cors = moments_mod.correlation_set(rho, spec)
        return {"rho": rho, "second": list(mom.second),
                "fourth": list(mom.fourth),
                "gamma": [list(r) for r in cors.gamma],
                "delta": list(cors.delta)}

    def rows(rec: dict) -> list[list]:
        return [[rec["rho"], n + 1, spec.lambdas[n], rec["second"][n],
                 rec["fourth"][n], rec["delta"][n], *rec["gamma"][n]]
                for n in range(spec.v)]

    head = ["rho", "n", "lambda", "second_moment", "fourth_moment",
            "variance_gap"] + [f"gamma_{m + 1}" for m in range(spec.v)]
    return _query(args, head, record, rows)


def cmd_eta(args: argparse.Namespace) -> int:
    spec = _spectrum(args)

    def record(rho: float) -> dict:
        etas = eta_mod._etas(args.order, rho, spec)[1]
        return {"rho": rho, "eta": dict(enumerate(etas[1:], start=1))}

    return _query(args, ["rho", "k", "eta"], record, lambda rec: [
        [rec["rho"], k, eta] for k, eta in rec["eta"].items()])


def _figure_delta_grid(quick: bool = False) -> tuple[list[str], list]:
    """Variance-gap signs over a log grid of two-dimensional spectra.

    The grid covers rho/lambda in [0.1, 50] on both axes at unit radius
    (60 x 60 points, 20 x 20 in quick mode).
    """
    lams = np.geomspace(1.0 / 50.0, 1.0 / 0.1, 20 if quick else 60)
    return ["lambda1", "lambda2", "delta_1", "delta_2"], [
        [l1, l2, *moments_mod.correlation_set(1.0, Spectrum((l1, l2))).delta]
        for l1 in lams for l2 in lams]


def _figure_gamma_curves(quick: bool = False) -> tuple[list[str], list]:
    spec = Spectrum((1.0, 2.0, 3.0))
    pairs = [(0, 1), (0, 2), (1, 2)]
    rows = []
    for rho in np.geomspace(1.0, 30.0, 12 if quick else 30):
        gamma = moments_mod.correlation_set(float(rho), spec).gamma
        rows.append([rho / 3.0] + [abs(gamma[n][m]) for n, m in pairs])
    return ["rho_over_lambda3"] + [f"abs_gamma_{n + 1}{m + 1}" for n, m in pairs], rows


def _figure_gamma_convergence(quick: bool = False) -> tuple[list[str], list]:
    spec = Spectrum((1.0, 2.0, 3.0))
    rows = []
    for rho in map(float, np.geomspace(2.0, 60.0, 12 if quick else 30)):
        gamma = moments_mod.correlation_set(rho, spec).gamma
        rows.append([rho / 3.0])
        for n in range(3):
            one = moments_mod.correlation_set(rho, Spectrum((spec.lambdas[n],)))
            rows[-1] += [gamma[n][n], one.gamma[0][0]]
    return ["rho_over_lambda3"] + [f"gamma{v}_{n + 1}{n + 1}"
                                   for n in range(3) for v in (3, 1)], rows


def _figure_cp_table(quick: bool = False) -> tuple[list[str], list]:
    rows = []
    for v in range(2, 7):
        est = convergence_estimate(v, 50, 100)
        rows += [[v, p, c, est.fit_A, est.fit_eps, est.fit_chi2]
                 for p, c in zip(est.p_values, est.c_values)]
    return ["v", "p", "C", "fit_A", "fit_eps", "fit_chi2"], rows


_FIGURES = {
    "delta-grid": _figure_delta_grid,
    "gamma-curves": _figure_gamma_curves,
    "gamma-convergence": _figure_gamma_convergence,
    "cp-table": _figure_cp_table,
}


def cmd_figure(args: argparse.Namespace) -> int:
    _emit(_csv(*_FIGURES[args.figure](args.quick)), args.out)
    return EXIT_OK


def _suite_structural(args: argparse.Namespace) -> Report:
    spec = _spectrum(args, Spectrum((1.0, 2.0)))
    rho = args.rho if args.rho is not None else 3.0
    return verify_structural(rho, spec)


def _suite_inequalities(args: argparse.Namespace) -> Report:
    spec = _spectrum(args, Spectrum((1.0, 2.0, 3.0)))
    report = Report("inequalities")
    rhos = ([1.0, 5.0] if args.quick else [0.5, 1.0, 2.0, 5.0, 10.0, 25.0])
    for rho in rhos:
        sub = moments_mod.inequality_battery(rho * spec.lambda_max, spec)
        report.extend(sub, prefix=f"rho={rho:g}max|")
    return report


def _suite_eta(args: argparse.Namespace) -> Report:
    report = Report("eta")
    battery = [
        (Spectrum((1.0,)), (2.0, 3.0, 4.0)),
        (Spectrum((1.0, 2.0)), (2.0, 3.0, 4.0, 5.0, 8.0)),
        (Spectrum((1.0, 2.0, 3.0)), (2.0, 8.0, 11.0, 16.0)),
    ]
    if args.quick:
        battery = [(spec, rhos[:2]) for spec, rhos in battery[:2]]
    for spec, rhos in battery:
        for rho in rhos:
            etas = eta_mod._etas(3, rho, spec)[1]
            for k, comb in enumerate(etas[1:], start=1):
                fd = eta_mod.eta_fd_oracle(k, rho, spec)
                denom = max(abs(comb), 1e-10)
                rel = abs(comb - fd) / denom
                report.add(
                    f"oracle-equivalence[v={spec.v},rho={rho:g},k={k}]",
                    1e-3 - rel,
                    detail=f"combinatorial {comb:.6e}, fd {fd:.6e}")
    return report


def _suite_asymptotic(args: argparse.Namespace) -> Report:
    spec = _spectrum(args, Spectrum((1.0, 2.0, 3.0)))
    schedule = (20.0, 40.0, 80.0)
    k_max = 2 if args.quick else 4
    return eta_mod.asymptotic_checks(spec, k_max, schedule)


def _suite_xi(args: argparse.Namespace) -> Report:
    """Every check runs to --qmax; its name prefix states that q."""
    report = Report("xi")
    for check in (xi_mod.omega_inequality_scan, xi_mod.gap_convolution_check,
                  xi_mod.inverse_mass_identity_check):
        sub = check(args.qmax)
        report.extend(sub, prefix=f"{sub.suite}[qmax={args.qmax}]|")
    return report


# each suite with the options it reads; `all` takes every suite's options
_SUITES = {
    "structural": (_suite_structural, {"spectrum", "rho"}),
    "inequalities": (_suite_inequalities, {"spectrum", "quick"}),
    "eta": (_suite_eta, {"quick"}),
    "asymptotic": (_suite_asymptotic, {"spectrum", "quick"}),
    "xi": (_suite_xi, {"qmax"}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    report = Report(args.suite)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        report.extend(_SUITES[name][0](args))
    _emit([json.dumps(report.to_dict(), indent=2)], args.out)
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncgauss",
        description="Moments of a diagonal Gaussian truncated to a ball: "
                    "integrals, figure data, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, spectrum=False, under=sub):
        p = under.add_parser(name, help=text)
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if spectrum:
            p.add_argument("--lambda", dest="lambdas", default=None,
                           help="comma-separated variances")
        return p

    def rho(p):
        p.add_argument("--rho", type=float, default=None,
                       help="square radius of the ball")

    def query(name, handler, text):
        p = command(name, handler, text, spectrum=True)
        p.add_argument("--v", type=int, default=None,
                       help="dimension (checked against --lambda)")
        radius = p.add_mutually_exclusive_group()
        rho(radius)
        radius.add_argument("--rho-range", default=None,
                            help="min:max:points:scale grid over rho")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        return p

    p = query("integral", cmd_integral, "one ball integral")
    p.add_argument("--index", default="",
                   help="multi-index as dim:mult[,dim:mult...], 1-based dims")
    p.add_argument("--mc", action="store_true",
                   help="use the seeded sampling oracle, not quadrature or mixture")
    p.add_argument("--samples", type=int, default=None,
                   help="sample budget for --mc (default 1000000)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --mc (default 0)")

    query("moments", cmd_moments, "conditional moments and correlations")

    p = query("eta", cmd_eta, "coefficient functions at one radius")
    k_max = eta_mod._K_MAX_COMBINATORIAL
    p.add_argument("--order", type=int, default=4, choices=range(1, k_max + 1),
                   metavar=f"{{1..{k_max}}}", help="highest order")

    p = command("figure", cmd_figure, "figure-reproduction data")
    p.add_argument("figure", choices=_FIGURES)
    p.add_argument("--quick", action="store_true",
                   help="reduced grids for smoke runs")
    p = command("cp-table", cmd_figure, "alias of figure cp-table")
    p.set_defaults(figure="cp-table", quick=False)

    suites = sub.add_parser("verify", help="verification suites (JSON report)") \
        .add_subparsers(dest="suite", required=True)
    suite_reads = {name: reads for name, (_, reads) in _SUITES.items()}
    suite_reads["all"] = set().union(*suite_reads.values())
    for name, reads in suite_reads.items():
        p = command(name, cmd_verify,
                    "every suite" if name == "all" else f"the {name} suite",
                    spectrum="spectrum" in reads, under=suites)
        if "rho" in reads:
            rho(p)
        if "qmax" in reads:
            q_max = xi_mod._Q_MAX
            p.add_argument("--qmax", type=int, default=6, choices=range(1, q_max + 1),
                           metavar=f"{{1..{q_max}}}", help="highest order of the xi suite")
        if "quick" in reads:
            p.add_argument("--quick", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    if unread:  # rejected with the usage line of the command that did not read it
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.handler(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, TruncGaussError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
