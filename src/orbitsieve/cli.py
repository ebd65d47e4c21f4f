"""Command line interface.

Exit codes: 0 for success and definitive decisions, 2 when a decide run
exhausts its budgets without an answer, 1 for errors (bad input, degenerate
maps, blown budgets on non-decide commands, rejected certificates).

JSON output is deterministic (sorted keys, fixed indentation) and encodes
all integers as decimal strings so consumers never lose precision to
doubles. Table output is plain ASCII.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional

from .localglobal import (
    Budgets,
    DecisionProblem,
    certificate_from_dict,
    certificate_to_dict,
    decide,
    verify_certificate,
)
from .numtheory import DEFAULT_RHO_STEPS, DEFAULT_TRIAL_BOUND, degree_one_demo
from .orbit import orbit_mod, orbit_rational
from .projective import _number_text, _residue_pair, format_point, parse_modulus, parse_point
from .ratmap import (
    DEFAULT_HEIGHT_BITS,
    _MAX_TEXT_DIGITS,
    dynatomic,
    is_polynomial_type,
    newton_map,
    newton_place_report,
    parse_map,
    rational_periodic_points,
)
from .zsigmondy import primitive_divisors

_JSON_KW = dict(sort_keys=True, indent=2)


def _emit(
    doc: dict, fmt: str, table_lines: Iterable[str], sequence: Optional[Iterable] = None
) -> None:
    """Print doc as JSON, json.dumps(doc, **_JSON_KW), or the table's lines.

    `sequence`, if given, is the document's "sequence": a nonempty iterable
    of int pairs, each a list of two decimal strings in the JSON. Its rows
    are written one at a time, in the bytes that json.dumps gives the whole
    document (a top-level list under indent 2: rows 4 spaces in, their
    strings 6), so the list is never held whole as objects or as text.
    """
    if fmt != "json":
        for line in table_lines:
            print(line)
    elif sequence is None:
        print(json.dumps(doc, **_JSON_KW))
    else:
        marker = "\0"  # no value of a document holds a NUL character
        text = json.dumps({**doc, "sequence": marker}, **_JSON_KW)
        head, tail = text.split(json.dumps(marker))
        write = sys.stdout.write
        write(head)
        sep = "[\n"
        for a, b in sequence:
            write(f'{sep}    [\n      "{a}",\n      "{b}"\n    ]')
            sep = ",\n"
        write("\n  ]" + tail + "\n")


def _report(
    args, doc: dict, table_lines: Iterable[str], sequence: Optional[Iterable] = None
) -> None:
    """_emit a report in the envelope that every command's JSON carries,
    except decide's, whose document is the certificate itself."""
    envelope = {"schema_version": "1", "command": args.command}
    _emit({**envelope, **doc}, args.format, table_lines, sequence)


def _parse_int_list(text: Optional[str]) -> list[int]:
    if not text:
        return []
    return [int(part.strip()) for part in _number_text(text).split(",") if part.strip()]


def _parse_point_list(text: str) -> list:
    return [parse_point(part) for part in text.split(",") if part.strip()]


def _positive(value: str) -> int:
    n = int(_number_text(value))
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_orbit(args) -> int:
    phi = parse_map(args.map)
    start = parse_point(args.point)
    if args.mod:
        m = parse_modulus(args.mod)
        orb = orbit_mod(phi, start, m)
        pairs = (_residue_pair(c, m.modulus) for c in orb.sequence)
        # the rows of either format stream, in the one format asked for
        doc = {
            "modulus": {"p": str(m.p), "k": str(m.k)},
            "tail": str(orb.tail),
            "cycle": str(orb.cycle),
        }
        head = f"orbit of {format_point(start)} mod {m}: tail={orb.tail} cycle={orb.cycle}"
        rows = (f"  n={n}: ({a} : {b})" for n, (a, b) in enumerate(pairs))
        _report(args, doc, chain([head], rows), pairs)
        return 0
    summary = orbit_rational(phi, start, args.max_steps, args.height_bits)
    doc = {
        "status": "preperiodic" if summary.is_preperiodic else "truncated",
        "steps_done": str(summary.steps_done),
        "points": [[str(x1), str(x2)] for x1, x2 in summary.points],
    }
    lines = []
    if summary.is_preperiodic:
        doc["tail"] = str(summary.tail)
        doc["cycle"] = str(summary.cycle)
        lines.append(
            f"orbit of {format_point(start)}: preperiodic, "
            f"tail={summary.tail} cycle={summary.cycle}"
        )
    else:
        lines.append(
            f"orbit of {format_point(start)}: truncated after "
            f"{summary.steps_done} steps"
        )
    lines += [f"  n={n}: {format_point(p)}" for n, p in enumerate(summary.points)]
    _report(args, doc, lines)
    return 0


def _cmd_badprimes(args) -> int:
    phi = parse_map(args.map)
    report = phi.bad_primes(args.trial_bound, args.factor_steps)
    doc = {
        "resultant": str(phi.res),
        "bad_primes": [str(p) for p in sorted(report.primes)],
        "complete": report.complete,
        "cofactor": None if report.cofactor is None else str(report.cofactor),
    }
    primes_text = ", ".join(str(p) for p in sorted(report.primes)) or "(none)"
    lines = [f"resultant: {phi.res}", f"bad primes: {primes_text}"]
    if not report.complete:
        lines.append(
            f"warning: unfactored composite cofactor with "
            f"{report.cofactor.bit_length()} bits; the list above may be "
            "incomplete"
        )
    _report(args, doc, lines)
    return 0


def _cmd_periodic(args) -> int:
    phi = parse_map(args.map)
    pts = sorted(rational_periodic_points(phi, args.period))
    form = dynatomic(phi, args.period)
    doc = {
        "period": str(args.period),
        "dynatomic_coefficients": [str(c) for c in form],
        "points": [[str(x1), str(x2)] for x1, x2 in pts],
    }
    body = ", ".join(format_point(p) for p in pts) or "(none)"
    lines = [
        f"rational points of exact period {args.period}: {body}",
        f"dynatomic form degree: {len(form) - 1}",
    ]
    _report(args, doc, lines)
    return 0


def _cmd_poltype(args) -> int:
    phi = parse_map(args.map)
    gamma = parse_point(args.point)
    k = is_polynomial_type(phi, gamma, args.k_max)
    doc = {
        "gamma": [str(gamma.x1), str(gamma.x2)],
        "k": None if k is None else str(k),
    }
    if k is None:
        lines = [
            f"{format_point(gamma)} is not a totally ramified fixed point of "
            f"any iterate up to k={args.k_max}"
        ]
    else:
        lines = [
            f"polynomial type at {format_point(gamma)}: totally ramified "
            f"fixed point of iterate k={k}"
        ]
    _report(args, doc, lines)
    return 0


def _cmd_zsigmondy(args) -> int:
    phi = parse_map(args.map)
    run = primitive_divisors(
        phi,
        parse_point(args.beta),
        parse_point(args.gamma),
        args.mmax,
        _parse_int_list(args.exclude_primes),
    )
    doc = {
        "rows": [
            {
                "m": str(r.m),
                "term_bits": str(r.term_bits),
                "support": [[str(p), str(e)] for p, e in r.term_valuations],
                "primitive": [str(p) for p in sorted(r.primitive)],
            }
            for r in run.reports
        ],
        "warnings": list(run.warnings),
    }
    lines = ["  m | bits | support | primitive"]
    for r in run.reports:
        support = " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in r.term_valuations
        ) or "1"
        prim = ", ".join(str(p) for p in sorted(r.primitive)) or "-"
        lines.append(f"{r.m:>3} | {r.term_bits:>4} | {support} | {prim}")
    for w in run.warnings:
        lines.append(f"warning: {w}")
    _report(args, doc, lines)
    return 0


def _cmd_decide(args) -> int:
    phi = parse_map(args.map)
    budgets = Budgets(
        day_steps=args.day_steps,
        night_stages=args.night_stages,
        height_bits=args.height_bits,
        cycle_lcm_cap=args.lcm_cap,
    )
    problem = DecisionProblem.make(
        phi,
        parse_point(args.point),
        _parse_point_list(args.targets),
        _parse_int_list(args.exclude_primes),
        budgets,
    )
    cert = decide(problem)
    doc = certificate_to_dict(problem, cert)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(json.dumps(doc, **_JSON_KW))
            fh.write("\n")
    lines = [f"kind: {cert.kind}"]
    if cert.kind == "witness":
        lines.append(f"witness index: {cert.witness_index}")
    elif cert.kind == "empty" and cert.finite_orbit is not None:
        lines.append(
            f"the forward orbit is finite ({len(cert.finite_orbit.points) - 1} "
            "distinct points) and misses every target"
        )
    elif cert.kind == "empty":
        fam = ", ".join(str(ev.modulus) for ev in cert.evidence)
        lines.append(f"modulus family with empty joint hit set: {fam}")
        for ev in cert.evidence:
            shape = (
                "empty hit set"
                if ev.hits.is_empty()
                else f"hits {ev.hits.residues} mod {ev.hits.cycle_length}"
            )
            lines.append(
                f"  {ev.modulus}: orbit tail={ev.orbit.tail} "
                f"cycle={ev.orbit.cycle}, {shape}"
            )
    else:
        lines.append("budgets exhausted with no definitive answer")
    lines.append(
        f"day: status={cert.day_status} steps={cert.day_steps_done}; "
        f"night: stages={cert.night_stages_done} "
        f"moduli_examined={len(cert.examined)}"
    )
    for w in cert.warnings:
        lines.append(f"warning: {w}")
    _emit(doc, args.format, lines)
    return 0 if cert.is_definitive else 2


def _cmd_verify(args) -> int:
    if args.certificate == "-":
        text = sys.stdin.read()
    else:
        with open(args.certificate, "r", encoding="ascii") as fh:
            text = fh.read()
    problem, cert = certificate_from_dict(json.loads(text))
    ok = verify_certificate(problem, cert)
    doc = {
        "kind": cert.kind,
        "verdict": ok,
    }
    lines = [f"certificate kind: {cert.kind}", f"verifies: {'yes' if ok else 'no'}"]
    _report(args, doc, lines)
    return 0 if ok else 1


def _cmd_newton(args) -> int:
    phi = newton_map(args.poly)
    reports = newton_place_report(
        args.poly,
        Fraction(_number_text(args.alpha)),
        _parse_int_list(args.primes),
        args.real_iters,
        args.p_iters,
    )
    doc = {
        "map": {
            "f": [str(c) for c in phi.F],
            "g": [str(c) for c in phi.G],
            "text": str(phi),
        },
        "notes": list(phi.notes),
        "alpha": args.alpha,
        "reports": [
            {
                "place": str(r.place),
                "verdict": r.verdict,
                "detail": _jsonable_detail(r.detail),
            }
            for r in reports
        ],
    }
    lines = [f"newton map: {phi}"]
    for r in reports:
        if r.place == "real":
            res = r.detail.get("final_residual")
            extra = f" (residual {res:.3e})" if isinstance(res, float) else ""
            lines.append(f"real: {r.verdict}{extra}")
        else:
            vals = ",".join(str(v) for v in r.detail["valuations"])
            lines.append(f"p={r.place}: {r.verdict} (valuations {vals})")
    _report(args, doc, lines)
    return 0


def _jsonable_detail(detail: dict) -> dict:
    out = {}
    for key, value in detail.items():
        if isinstance(value, float):
            out[key] = repr(value)
        elif isinstance(value, list):
            out[key] = [str(v) for v in value]
        elif isinstance(value, int):
            out[key] = str(value)
        elif value is None:
            out[key] = None
        else:
            out[key] = str(value)
    return out


def _cmd_demo_degree_one(args) -> int:
    rows = degree_one_demo(args.max_prime, args.max_depth)
    doc = {
        "rows": [
            {"p": str(r.p), "k": str(r.k), "minimal_n": str(r.minimal_n)}
            for r in rows
        ],
    }
    lines = [
        "map z + 1, start 1, target 0: the orbit never reaches 0, but no",
        "modular certificate exists. For each p^k the table gives the least",
        "n with p^k | n!; beyond it, every index of the form n! - 1 is a hit",
        "mod p^k, so every hit set stays nonempty at every modulus.",
        "",
        "  p | k | minimal n with v_p(n!) >= k",
    ]
    for r in rows:
        lines.append(f"{r.p:>3} | {r.k} | {r.minimal_n}")
    _report(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orbitsieve",
        description=(
            "Exact orbits, modular sieves, and orbit-meets-target decisions "
            "for rational self-maps of the projective line over Q."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output style (default: table)",
        )

    p = sub.add_parser("orbit", help="iterate a point, exactly or mod p^k")
    p.add_argument("--map", required=True, help="rational function in z, e.g. 'z^2-1'")
    p.add_argument(
        "--point",
        required=True,
        help="start point: integer, a/b, inf, or [a:b]; "
        "a negative one takes the = form, --point=-1/2",
    )
    p.add_argument("--max-steps", type=_positive, default=64)
    p.add_argument("--height-bits", type=_positive, default=DEFAULT_HEIGHT_BITS)
    p.add_argument("--mod", help="prime power p^k for a modular orbit")
    add_format(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("badprimes", help="resultant and primes of bad reduction")
    p.add_argument("--map", required=True)
    p.add_argument("--trial-bound", type=_positive, default=DEFAULT_TRIAL_BOUND)
    p.add_argument("--factor-steps", type=_positive, default=DEFAULT_RHO_STEPS)
    add_format(p)
    p.set_defaults(func=_cmd_badprimes)

    p = sub.add_parser("periodic", help="rational points of exact period n")
    p.add_argument("--map", required=True)
    p.add_argument("--period", type=_positive, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser(
        "poltype", help="is the map of polynomial type at a point?"
    )
    p.add_argument("--map", required=True)
    p.add_argument(
        "--point", required=True, help="a negative point takes the = form, --point=-1/2"
    )
    p.add_argument("--k-max", type=_positive, default=2)
    add_format(p)
    p.set_defaults(func=_cmd_poltype)

    p = sub.add_parser(
        "zsigmondy", help="primitive prime divisors along an orbit"
    )
    p.add_argument("--map", required=True)
    p.add_argument(
        "--beta",
        required=True,
        help="moving start point; a negative one takes the = form, --beta=-1/2",
    )
    p.add_argument(
        "--gamma",
        required=True,
        help="preperiodic target point; a negative one takes the = form, "
        "--gamma=-1/2",
    )
    p.add_argument("--mmax", type=_positive, required=True)
    p.add_argument("--exclude-primes", help="comma-separated primes to ignore")
    add_format(p)
    p.set_defaults(func=_cmd_zsigmondy)

    p = sub.add_parser(
        "decide", help="does the orbit of a point ever meet the targets?"
    )
    p.add_argument("--map", required=True)
    p.add_argument(
        "--point", required=True, help="a negative point takes the = form, --point=-1/2"
    )
    p.add_argument(
        "--targets",
        required=True,
        help="comma-separated target points; a list that starts with a "
        "negative one takes the = form, --targets=-1,0",
    )
    p.add_argument("--exclude-primes", help="comma-separated primes to skip")
    p.add_argument("--day-steps", type=_positive, default=Budgets().day_steps)
    p.add_argument(
        "--night-stages", type=_positive, default=Budgets().night_stages
    )
    p.add_argument(
        "--height-bits", type=_positive, default=Budgets().height_bits
    )
    p.add_argument("--lcm-cap", type=_positive, default=Budgets().cycle_lcm_cap)
    p.add_argument("--output", help="also write the certificate JSON here")
    add_format(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("verify", help="re-check a decide certificate")
    p.add_argument("certificate", help="certificate JSON file, or - for stdin")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "newton", help="Newton map and per-place convergence reports"
    )
    p.add_argument("--poly", required=True, help="polynomial in z, e.g. 'z^3-2'")
    p.add_argument(
        "--alpha",
        required=True,
        help="rational starting value; a negative one takes the = form, "
        "--alpha=-1/2",
    )
    p.add_argument("--primes", help="comma-separated primes for p-adic runs")
    p.add_argument("--real-iters", type=_positive, default=64)
    p.add_argument("--p-iters", type=_positive, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser(
        "demo-degree-one",
        help="why no modular certificate exists for z+1 from 1 to 0",
    )
    p.add_argument("--max-prime", type=_positive, default=5)
    p.add_argument("--max-depth", type=_positive, default=3)
    add_format(p)
    p.set_defaults(func=_cmd_demo_degree_one)

    return top


def main(argv=None) -> int:
    """Run one command. Integers within the tool's 2^20-bit bounds print
    and parse in full: CPython converts at most 4,300 digits by default, so
    the interpreter's limit, where one is set, is raised to the digits of a
    2^20-bit integer while the command runs, and restored afterwards."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # 0 where the limit is off, or absent (CPython before 3.10.7): no change
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(_MAX_TEXT_DIGITS)
    try:
        return args.func(args)
    # json.JSONDecodeError is a ValueError
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
