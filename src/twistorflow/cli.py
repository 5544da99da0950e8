"""Command-line front end: verification suite, Ricci/Einstein queries, flow
integration and entropy export.

Exit codes: 0 all checks pass / command succeeded, 1 verification failure,
2 invalid input or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .canonical import (MetricParams, OutOfDomain, einstein_solve_canonical,
                        ricci_canonical)
from .liealg import MAX_QUERY_N, hpn_curvature, sectional
from .zmetric import einstein_solve_z, ricci_z

# flow.CANONICAL and flow.Z: verify and flow are imported only by the
# commands that use them, so ricci, einstein and curvature load neither
CANONICAL, Z = "canonical", "z"


def _parse_rational(text: str):
    """(value, exact): p/q and integer strings give an exact Fraction, a
    decimal gives a float.

    Raises ValueError on a zero denominator or a non-finite decimal.
    """
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den)), True
    try:
        return Fraction(int(text)), True
    except ValueError:
        x = float(text)
        if not math.isfinite(x):
            raise ValueError(f"{text!r} is not a finite number")
        return x, False


def _fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
        return str(x)
    return format(x, ".17g")


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, default=_fmt_value, sort_keys=True))
    elif fmt == "csv":
        import csv
        row = [v if isinstance(v, str) else _fmt_value(v) for v in payload.values()]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(payload)
        writer.writerow(row)
    else:
        width = max(len(k) for k in payload)
        for k, v in payload.items():
            print(f"{k.ljust(width)}  {_fmt_value(v) if not isinstance(v, str) else v}")


def cmd_verify(args) -> int:
    if not (2 <= args.n <= MAX_QUERY_N):
        sys.stderr.write(f"verify supports n in 2..{MAX_QUERY_N} (the paper assumes n > 1)\n")
        return 2
    tamper = None
    if args.tamper is not None:
        tamper = tuple(int(x) for x in args.tamper.split(","))
        dim = (args.n + 1) * (2 * args.n + 3)
        if len(tamper) != 3 or not all(0 <= x < dim for x in tamper):
            raise ValueError(f"--tamper needs three basis indices i,j,k in 0..{dim - 1}")
        if tamper[0] == tamper[1]:
            raise ValueError("--tamper needs i != j: c^k_ii is not a structure constant")
    from .verify import run_checks
    report = run_checks(args.n, tamper=tamper)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for rec in report:
            print(f"[{rec['status']:4s}] {rec['check']}: {rec['detail']}")
    failed = [r for r in report if r["status"] == "fail"]
    return 1 if failed else 0


def cmd_ricci(args) -> int:
    if args.n > MAX_QUERY_N:
        sys.stderr.write(f"ricci supports n in 2..{MAX_QUERY_N}\n")
        return 2
    mu, exact = _parse_rational(args.lambda2)
    if exact:
        mu_frac = mu
    elif mu:
        # a decimal is exactly the rational its text spells: 1e-13 is 1/10^13
        mu_frac = Fraction(args.lambda2.strip())
        sys.stderr.write(f"warning: decimal input {args.lambda2.strip()!r} is read as the exact "
                         f"rational {mu_frac}; the Ricci values are printed as floats\n")
    else:
        # zero, or below the float range: no float Ricci value to report
        sys.stderr.write(f"lambda^2 = {args.lambda2} rounds to 0 as a float\n")
        return 2
    try:
        p = MetricParams(args.n, lambda2=mu_frac)
    except ValueError as ex:
        sys.stderr.write(f"{ex}\n")
        return 2
    rd = ricci_canonical(p) if args.family == CANONICAL else ricci_z(p)
    fiber, base = rd.fiber_at(mu_frac), rd.base_at(mu_frac)
    if not exact:
        try:
            fiber, base = float(fiber), float(base)
        except OverflowError:
            sys.stderr.write(f"lambda^2 = {args.lambda2}: the Ricci values overflow a float\n")
            return 2
    payload = {
        "family": args.family, "n": args.n, "lambda2": mu if not exact else mu_frac,
        "fiber": fiber, "base": base,
        "einstein": fiber == base,
        "off_diagonal_zero": rd.off_diagonal_zero,
    }
    _emit(payload, args.format)
    return 0


def cmd_einstein(args) -> int:
    if args.family == CANONICAL:
        roots = sorted(einstein_solve_canonical(args.n))
        payload = {"family": args.family, "n": args.n,
                   "lambda2_roots": "{" + ", ".join(_fmt_value(r) for r in roots) + "}"}
    else:
        payload = {"family": args.family, "n": args.n,
                   "lambda2_roots": "{" + _fmt_value(einstein_solve_z(args.n)) + "}"}
    _emit(payload, args.format)
    return 0


def cmd_curvature(args) -> int:
    if args.n > MAX_QUERY_N:
        sys.stderr.write(f"curvature supports n in 2..{MAX_QUERY_N}\n")
        return 2
    T = hpn_curvature(args.n)
    payload = {"n": args.n, "scalar": T.scalar()}
    if args.sectional:
        m = 4 * args.n
        secs = sorted({sectional(T, A, B) for A in range(1, m + 1)
                       for B in range(1, m + 1) if A != B})
        payload["sectional_min"] = secs[0]
        payload["sectional_max"] = secs[-1]
    ric = T.ricci_matrix()
    payload["ricci_diagonal"] = ric[0][0]
    _emit(payload, args.format)
    return 0


def _export(path, write, *args):
    """Stream write(*args, out) into the file at path, or to stdout when no
    path is given; return what write returns."""
    if path:
        with open(path, "w") as fh:
            return write(*args, fh)
    return write(*args, sys.stdout)


def _initial_state(args) -> FlowState:
    from .flow import FlowState
    value = {}
    for name in ("lambda2", "rho0"):
        x, _ = _parse_rational(getattr(args, name))
        try:
            value[name] = float(x)
        except OverflowError:
            raise ValueError(f"--{name} is too large for a float") from None
    return FlowState(0.0, value["rho0"], value["lambda2"], args.family, args.n)


def cmd_flow(args) -> int:
    from .flow import classify, integrate, write_trajectory
    try:
        init = _initial_state(args)
    except ValueError as ex:
        sys.stderr.write(f"{ex}\n")
        return 2
    if args.t_end == "auto":
        if args.family != Z:
            sys.stderr.write("--t-end auto needs the z family (classified singular time)\n")
            return 2
        T = classify(init)["time"]
        t_end = 0.99 * T
        steps = T / args.dt if args.dt > 0 else math.nan
        if 0 < steps < math.inf:
            # integrate rounds to whole steps: end at least one step short of T
            t_end = min(t_end, (math.ceil(steps) - 1) * args.dt)
    else:
        t_end = float(args.t_end)
    traj = integrate(init, args.dt, t_end)
    _export(args.out, write_trajectory, traj, args.format)
    summary = {"samples": len(traj.t),
               "max_invariant_drift": traj.max_invariant_drift()}
    if args.family == Z:
        cls = classify(init)
        if cls["mu_limit"] == float("inf"):
            cls["mu_limit"] = "inf"
        summary.update(cls)
        summary["mode_detail"] = {
            "extinction": "base-shrinks-faster", "collapse": "fiber-collapse",
            "einstein-ray": "homothety"}[summary["mode"]]
    else:
        mus = traj.mu
        summary["mu_start"], summary["mu_end"] = mus[0], mus[-1]
        summary["mu_monotone"] = ("decreasing" if all(a >= b for a, b in zip(mus, mus[1:]))
                                  else "increasing" if all(a <= b for a, b in zip(mus, mus[1:]))
                                  else "non-monotone")
    sys.stderr.write(json.dumps(summary, default=_fmt_value) + "\n")
    return 0


def cmd_entropy(args) -> int:
    from .flow import entropy_records, write_entropy
    try:
        init = _initial_state(args)
        records = entropy_records(init, args.samples)
    except ValueError as ex:
        sys.stderr.write(f"{ex}\n")
        return 2
    # write_entropy compares each w with the one before it as it writes
    w_nondecreasing = _export(args.out, write_entropy, records, args.format)
    summary = {"samples": args.samples, "w_nondecreasing": w_nondecreasing}
    sys.stderr.write(json.dumps(summary) + "\n")
    return 0


def _join_negative_t_end(argv: list[str]) -> list[str]:
    """argv with "--t-end X" written "--t-end=X" where X is a negative number,
    also for the prefixes of --t-end that argparse accepts (--t-e).

    argparse reads a token that starts with "-" as an option unless it looks
    like -3 or -0.03, so it would reject "--t-end -3e-2"; repr writes small
    negative floats in that form (-3e-05)."""
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        if option.startswith("--t") and "--t-end".startswith(option) and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{option}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tflow",
                                     description="twistor-space metric families: "
                                                 "verification and flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--format", choices=["json", "table"], default="table")
    pv.add_argument("--tamper", default=None,
                    help="test hook: 'i,j,k' perturbs one structure constant")
    pv.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("ricci", help="Ricci coefficients of a family member")
    pr.add_argument("--family", choices=[CANONICAL, Z], required=True)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--lambda2", required=True, help="exact p/q preferred")
    pr.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pr.set_defaults(fn=cmd_ricci)

    pe = sub.add_parser("einstein", help="Einstein values of lambda^2")
    pe.add_argument("--family", choices=[CANONICAL, Z], required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pe.set_defaults(fn=cmd_einstein)

    pc = sub.add_parser("curvature", help="quaternion projective space curvature data")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--sectional", action="store_true")
    pc.add_argument("--format", choices=["json", "csv", "table"], default="table")
    pc.set_defaults(fn=cmd_curvature)

    pf = sub.add_parser("flow", help="integrate the reduced Ricci flow")
    pf.add_argument("--family", choices=[CANONICAL, Z], required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--rho0", default="1")
    pf.add_argument("--lambda2", required=True)
    pf.add_argument("--dt", type=float, default=1e-4)
    pf.add_argument("--t-end", dest="t_end", default="auto")
    pf.add_argument("--out", default=None)
    pf.add_argument("--format", choices=["csv", "json"], default="csv")
    pf.set_defaults(fn=cmd_flow)

    pn = sub.add_parser("entropy", help="entropy diagnostics along a Z-trajectory")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--rho0", default="1")
    pn.add_argument("--lambda2", required=True)
    pn.add_argument("--samples", type=int, default=200)
    pn.add_argument("--out", default=None)
    pn.add_argument("--format", choices=["csv", "json"], default="csv")
    pn.set_defaults(fn=cmd_entropy)
    pn.set_defaults(family=Z)

    args = parser.parse_args(_join_negative_t_end(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except OutOfDomain as ex:
        sys.stderr.write(f"domain error: {ex}\n")
        return 2
    except ValueError as ex:
        sys.stderr.write(f"invalid input: {ex}\n")
        return 2
    except ChildProcessError as ex:
        # an OSError, but no output was refused: a forked worker was lost
        sys.stderr.write(f"lost a worker process: {ex}\n")
        return 2
    except OSError as ex:
        sys.stderr.write(f"cannot write output: {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
