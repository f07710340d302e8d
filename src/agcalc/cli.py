"""Command-line front end with deterministic reports and exit codes.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 input or
contract error, 3 resource-guard abort.  Reports (text or JSON) carry no
timestamps; --timing prints elapsed seconds to stderr so report bytes stay
identical across runs.  The AGCALC_TERM_CEILING environment variable
overrides the scan resource guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import cache
from pathlib import Path

from . import __version__
from .errors import (
    AgcalcError,
    ContractViolation,
    ConvergenceViolation,
    MapFileError,
    PreconditionError,
    TermCeilingExceeded,
    TruncationError,
)
from .inversion import (
    FIXED_POINT,
    ag_jacobian_identity,
    cross_method_results,
    invert_ag,
    invert_fixed_point,
    invert_lambda,
    jacobian_factor,
    require_inputs,
    route_agreement,
    verify_phi_exponential,
    verify_round_trip,
    xi_moment_series,
)
from .lab import (
    CorpusSpec,
    EquivalencePlan,
    check_equivalences,
    deformation_det,
    gen_corpus,
    is_nilpotent,
    standard_corpus,
    vanishing_scan,
)
from .mapfile import load_map_file, parse_poly, poly_to_entries
from .poly import (
    MapTuple,
    SparsePoly,
    VarSet,
    compose,
    det,
    jacobian,
    render_poly,
    xi_pairing,
)
from .report import (
    FAIL,
    Check,
    IdentityReport,
    Report,
    failed_check,
    first_failure,
    passed_check,
    skipped_check,
)
from .weyl import verify_phi_normal_order

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _require_min(value: int, least: int, name: str) -> None:
    if value < least:
        raise MapFileError(f"{name} must be >= {least}")


def _term_ceiling() -> int | None:
    raw = os.environ.get("AGCALC_TERM_CEILING")
    if raw is None:
        return None
    try:
        ceiling = int(raw)
    except ValueError:
        raise MapFileError(f"AGCALC_TERM_CEILING must be an integer, got {raw!r}")
    _require_min(ceiling, 1, "AGCALC_TERM_CEILING")
    return ceiling


def _g_result(result) -> dict:
    return {
        "method": result.method,
        "degree": result.D,
        "G": [render_poly(c) for c in result.G.components],
        "G_terms": [poly_to_entries(c) for c in result.G.components],
        "N_order": (None if result.N.order() == float("inf")
                    else int(result.N.order())),
    }


# -- invert -------------------------------------------------------------------


def _known_inverse_check(known: MapTuple, result, degree: int) -> Check:
    """The computed inverse tail N against a known one, truncated at degree."""
    return first_failure(
        IdentityReport("known inverse", got, want.truncate_z(degree),
                       where=f"component {i + 1}")
        for i, (want, got) in enumerate(zip(known.components,
                                            result.N.components))).check


def cmd_invert(args) -> Report:
    h, meta, data = load_map_file(args.mapfile)
    _require_min(args.degree, 1, "--degree")
    checks: list[Check] = []
    if args.method == "all":
        results = cross_method_results(h, args.degree)
        checks.append(route_agreement(
            results, detail="3 methods, coefficientwise").check)
        shown = results[FIXED_POINT]
    else:
        runner = {"fixedpoint": invert_fixed_point, "ag": invert_ag,
                  "lambda": invert_lambda}[args.method]
        shown = runner(h, args.degree)
        checks.append(passed_check(f"inverted via {shown.method}"))
    if meta.get("known_inverse") is not None:
        checks.append(_known_inverse_check(meta["known_inverse"], shown, args.degree))
    return Report(
        command="invert",
        args={"mapfile": str(args.mapfile), "degree": args.degree,
              "method": args.method},
        input_digest=_digest(data),
        checks=tuple(checks),
        result=_g_result(shown),
    )


# -- verify -------------------------------------------------------------------


def _small_exponents(n: int) -> list[tuple[int, ...]]:
    """The multi-indices e with |e| <= 2, the sums of two of 0, e_1, ..., e_n, in lex order."""
    basis = [(0,) * n, *(tuple(int(i == j) for j in range(n)) for i in range(n))]
    return sorted({tuple(a + b for a, b in zip(u, v)) for u in basis for v in basis})


@cache  # the battery reads n alone, never the map or q
def _symbol_battery(n: int) -> Check:
    vs = VarSet.xiz(n)
    small = _small_exponents(n)
    rep = first_failure(verify_phi_normal_order(SparsePoly.monomial(vs, xa + zb))
                        for xa in small for zb in small)
    return IdentityReport("symbol transport battery", rep.lhs, rep.rhs,
                          detail=f"monomials |a|<=2, |b|<=2, n={n}").check


def verify_suite(h: MapTuple, bound: int, xi_bound: int,
                 q: SparsePoly) -> list[Check]:
    # one oracle and one JF for every check: JG differentiates G, so the oracle
    # goes to bound + 1, and the chain rule composes JF with G, so JF goes to bound
    require_inputs(h, bound)  # the refusals of the checks at bound, not of the oracle at bound + 1
    oracle = invert_fixed_point(h, bound + 1)
    jf = jacobian_factor(h, bound)
    results = cross_method_results(h, bound, jf=jf, oracle=oracle)
    checks = [route_agreement(results).check,
              verify_round_trip(h, results[FIXED_POINT]).check]

    jf_of_g = compose(jf, oracle.G, bound)
    jg = det(jacobian(oracle.G), trunc=bound)
    checks.append(IdentityReport("chain rule JF(G) * JG == 1",
                                 jf_of_g.mul(jg, trunc=bound),
                                 SparsePoly.one(h.vars)).check)

    checks.append(ag_jacobian_identity(q, h, bound, oracle).check)

    q_of_g = compose(q, oracle.G, bound).lift(VarSet.xiz(h.n))
    xi_n = xi_pairing(oracle.N)
    checks.append(first_failure(
        IdentityReport("xi-moment series k=0,1,2", xi_moment_series(h, q, k, bound, jf=jf),
                       q_of_g.mul(xi_n.power(k, trunc=bound), trunc=bound),
                       where=f"k={k}")
        for k in range(3)).check)

    checks.append(verify_phi_exponential(h, q, xi_bound, bound, oracle, jf=jf).check)
    checks.append(_symbol_battery(h.n))
    return checks


def _xi_window(args) -> int:
    """--xi-degree, checked and capped at --degree by the window rule, with a warning."""
    _require_min(args.xi_degree, 0, "--xi-degree")
    if args.xi_degree <= args.degree:
        return args.xi_degree
    print(f"warning: window rule caps effective xi-degree at {args.degree}", file=sys.stderr)
    return args.degree


def cmd_verify(args) -> Report:
    h, _meta, data = load_map_file(args.mapfile)
    _require_min(args.degree, 1, "--degree")
    k_eff = _xi_window(args)
    q = parse_poly(args.q, VarSet.z(h.n))
    checks = verify_suite(h, args.degree, k_eff, q)
    return Report(
        command="verify",
        args={"mapfile": str(args.mapfile), "degree": args.degree,
              "xi_degree": k_eff, "q": args.q},
        input_digest=_digest(data),
        checks=tuple(checks),
    )


# -- lab ----------------------------------------------------------------------


def cmd_lab(args) -> Report:
    h, meta, data = load_map_file(args.mapfile)
    _require_min(args.m_max, 1, "--m-max")
    ceiling = _term_ceiling()
    wanted = args.checks
    cert = is_nilpotent(h) if wanted in ("nilpotent", "equiv", "all") else None
    plan = (EquivalencePlan(h, args.m_max, cert, meta.get("nt_degree"))
            if wanted in ("equiv", "all") else None)
    # one chain: the depths the plan reads, each shown scan raised to --m-max
    read = {} if plan is None else plan.depths
    shown = {"scan0": (0,), "scan1": (1,), "all": (0, 1)}.get(wanted, ())
    stop = plan
    if plan is not None and shown:  # "all" shows both scans: they run on to --m-max
        stop = lambda scan: plan(scan) and scan.mmax >= args.m_max
    depths = {**read, **{k: max(read.get(k, 0), args.m_max) for k in shown}}
    scans: dict = {}
    flags: dict = {}
    if depths:
        try:
            done = vanishing_scan(h, depths, term_ceiling=ceiling, stop=stop)
        except TermCeilingExceeded as err:
            done = err.partial
            flags = {"resource_guard": str(err), "partial": True}
        scans = {rep.k: rep for rep in done if rep.complete}

    checks: list[Check] = []
    result: dict = {}
    if wanted in ("nilpotent", "all"):
        checks.append(passed_check(
            "nilpotency certificate", detail=f"nilpotent={cert.nilpotent}"))
        # the report shows the whole determinant, which a cut certificate lacks
        whole = deformation_det(h) if cert.cut else cert.det_deformation
        result["det_deformation"] = render_poly(whole)
    if cert is not None:
        result["nilpotent"] = cert.nilpotent
    for rep in (scans[k].through(args.m_max) for k in shown if k in scans):
        edge = (f"first nonzero at m={rep.first_nonzero}" if rep.k == 0
                else f"last nonzero at m={rep.last_nonzero}")
        checks.append(passed_check(f"vanishing scan k={rep.k}",
                                   detail="all zero" if rep.all_zero else edge))
        result[f"scan{rep.k}"] = {
            "k": rep.k,
            "mmax": rep.mmax,
            "first_nonzero": rep.first_nonzero,
            "last_nonzero": rep.last_nonzero,
            "values": [{"m": m, "value": render_poly(v)} for m, v in rep.values],
        }
    if plan is not None and read.keys() <= scans.keys():  # every scan the checks read finished
        checks.extend(plan.checks(scans))
    if flags:
        checks.append(failed_check("resource guard", witness=flags["resource_guard"],
                                   detail="scan aborted at term ceiling"))
    return Report(
        command="lab",
        args={"mapfile": str(args.mapfile), "m_max": args.m_max,
              "checks": args.checks},
        input_digest=_digest(data),
        checks=tuple(checks),
        result=result or None,
        flags=flags,
    )


# -- corpus -------------------------------------------------------------------


def _corpus_items(args):
    # the mixed corpus draws its own counts, but every report records --count
    _require_min(args.count, 1, "corpus count")
    if args.family == "mixed":
        return standard_corpus(seed=args.seed)
    if args.n is None:
        raise MapFileError("--n is required unless --family mixed")
    spec = CorpusSpec(n=args.n, family=args.family, count=args.count,
                      seed=args.seed)
    return gen_corpus(spec)


def _invert_all_checks(item, degree: int) -> list[Check]:
    results = cross_method_results(item.h, degree)
    base = results[FIXED_POINT]
    checks = [route_agreement(results).check, verify_round_trip(item.h, base).check]
    if item.known_n is not None:
        checks.append(_known_inverse_check(item.known_n, base, degree))
    return checks


def _run_suite_on_item(item, args, k_eff, ceiling) -> Check:
    try:
        if args.run == "invert-all":
            checks = _invert_all_checks(item, args.degree)
            done = f"invert-all D={args.degree}"
        elif args.run == "lab":
            if not item.is_polynomial:
                return skipped_check(item.item_id, detail="series map; lab is exact-only")
            eq = check_equivalences(item.h, args.m_max,
                                    known_nt_degree=item.nt_degree,
                                    term_ceiling=ceiling)
            checks = eq.checks
            done = f"lab mmax={args.m_max}, nilpotent={eq.nilpotent}"
        else:
            q = SparsePoly.one(item.h.vars)
            checks = verify_suite(item.h, args.degree, k_eff, q)
            done = f"verify D={args.degree} K={k_eff}"
    except (TruncationError, PreconditionError) as err:
        return failed_check(item.item_id, witness=str(err), detail="contract")
    except ConvergenceViolation as err:
        return failed_check(item.item_id, witness=str(err), detail="summation cutoff")
    bad = next((c for c in checks if c.status == FAIL), None)
    if bad is not None:
        return failed_check(item.item_id, witness=bad.witness, detail=bad.name)
    return passed_check(item.item_id, detail=done)


def cmd_corpus(args) -> Report:
    if args.run == "lab":
        _require_min(args.m_max, 1, "--m-max")
    else:  # invert-all and verify read --degree
        _require_min(args.degree, 1, "--degree")
    k_eff = _xi_window(args) if args.run == "verify" else None
    items = _corpus_items(args)
    ceiling = _term_ceiling()
    checks: list[Check] = []
    guard_hit = False
    flags: dict = {}
    for item in sorted(items, key=lambda i: i.item_id):
        try:
            checks.append(_run_suite_on_item(item, args, k_eff, ceiling))
        except TermCeilingExceeded as err:
            guard_hit = True
            checks.append(failed_check(item.item_id, witness=str(err),
                                       detail="resource guard"))
    if guard_hit:
        flags["resource_guard"] = True
        flags["partial"] = True
    descriptor = {"family": args.family, "n": args.n, "count": args.count,
                  "seed": args.seed, "run": args.run}
    summary = {
        "items": len(checks),
        "passed": sum(1 for c in checks if c.status == "pass"),
        "failed": sum(1 for c in checks if c.status == "fail"),
        "skipped": sum(1 for c in checks if c.status == "skip"),
    }
    return Report(
        command="corpus",
        args=descriptor,
        input_digest=_digest(json.dumps(descriptor, sort_keys=True).encode()),
        checks=tuple(checks),
        result=summary,
        flags=flags,
    )


# -- plumbing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agcalc",
        description=("Exact inversion of formal maps F = z - H, phase-space "
                     "identity checks, and Jacobian nilpotency scans."))
    parser.add_argument("--version", action="version", version=f"agcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format on stdout")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="also write the JSON report to FILE")
        p.add_argument("--timing", action="store_true",
                       help="print elapsed seconds to stderr (kept out of reports)")

    p = sub.add_parser("invert", help="compute the inverse map to a degree")
    p.add_argument("mapfile")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--method", choices=("fixedpoint", "ag", "lambda", "all"),
                   default="all")
    common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="run the identity suite on a map")
    p.add_argument("mapfile")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--xi-degree", type=int, default=3, dest="xi_degree")
    p.add_argument("--q", default="1", help="polynomial literal, e.g. '1 + z1*z2'")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lab", help="nilpotency and vanishing-scan reports")
    p.add_argument("mapfile")
    p.add_argument("--m-max", type=int, default=6, dest="m_max")
    p.add_argument("--checks", choices=("nilpotent", "scan0", "scan1", "equiv", "all"),
                   default="all")
    common(p)
    p.set_defaults(func=cmd_lab)

    p = sub.add_parser("corpus", help="generate a corpus and run a suite over it")
    p.add_argument("--family", required=True,
                   choices=("triangular", "cubic", "control", "series", "mixed"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--run", required=True, choices=("invert-all", "lab", "verify"))
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--m-max", type=int, default=4, dest="m_max")
    p.add_argument("--xi-degree", type=int, default=2, dest="xi_degree")
    common(p)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    # exact numbers may be longer than Python's default int-string limit
    # (4,300 digits); Python before 3.10.7 has neither the limit nor the call
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report: Report = args.func(args)
    except (MapFileError, ContractViolation, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except TermCeilingExceeded as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except AgcalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL

    if args.timing:
        print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    payload = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(payload)
    if args.out:
        try:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
            return EXIT_INPUT
    if report.flags.get("resource_guard"):
        return EXIT_RESOURCE
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
