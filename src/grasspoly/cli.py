"""Command line front end: element emission, identity verification,
iterated integration, and function tables.

Exit codes: 0 success, 1 verification failure or contract error, 2 path
error (also used by argparse for usage errors), 3 pole proximity, 4 panel
budget exhausted, 5 not converged (`integrate` printed a value flagged
`depth_exceeded`).  `element` and `verify` take degrees up to 4; a larger
--n is refused with exit code 1 before anything is built.

All output is deterministic for a fixed command line: reports omit wall
times unless --timings is given, JSON keys are sorted, and every random
draw flows from --seed.  Evaluation is single-threaded; the
GRASSPOLY_THREADS environment variable is accepted and ignored.
"""

import argparse
import json
import sys
from fractions import Fraction

from .elements import (COMPARISON_DEGREES, GrassElement, build_element,
                       check_comparison, check_integrability,
                       check_omission_relations, check_scale_invariance,
                       check_steinberg_wedge, flip_first_term)
from .errors import (BudgetError, ContractViolation, DegeneracyError,
                     PathError, PoleError)
from .iterint import (DEFAULT_BUDGET, PathSpec, iterate_element,
                      iterate_word)
from .polylogs import bloch_wigner, l2g, li_n, rogers_l2
from .tensors import MultTensor, parse_symbol

SUITES = ("comparison", "relations", "scale", "integrability", "deltar")
# a degree-n element streams (2n)! arrangements: 40320 at n = 4, 3628800
# at n = 5
MAX_DEGREE = 4


def _emit(data, out):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_degrees(ns):
    """Refuse, before anything is built, a degree above MAX_DEGREE."""
    for n in ns:
        if n > MAX_DEGREE:
            raise ContractViolation(
                f"--n {n} refused: degrees above {MAX_DEGREE} are not "
                "supported")


def _mutated(element):
    return GrassElement(element.n, element.labels, element.prefix,
                        flip_first_term(element.tensor))


# ---------------------------------------------------------------------------
# element


def _cmd_element(args):
    _check_degrees([args.n])
    element = build_element(args.n)
    if args.mutate:
        element = _mutated(element)
    _emit(element.tensor.to_json_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_one(suite, n, args, element):
    """One suite at one degree.  element(n, signed) returns the degree-n
    element of the run, built (and mutated, under --mutate) once."""
    signed = args.mode == "strict"
    mutate = args.mutate

    if suite == "comparison":
        # an unsupported degree is refused by the check, with nothing built
        if n not in COMPARISON_DEGREES:
            return check_comparison(n)
        return check_comparison(n, element=element(n, False))

    if suite == "relations":
        def builder(k, labels=None, prefix=()):
            el = build_element(k, labels=labels, prefix=prefix,
                               signed=signed)
            return _mutated(el) if mutate else el

        return check_omission_relations(n, element_builder=builder)

    if suite == "scale":
        return check_scale_invariance(n, tensor=element(n, signed).tensor)

    if suite == "integrability":
        # degrees below 2 are refused by the check, with nothing built
        return check_integrability(
            n, num_points=args.points if args.points else 20,
            seed=args.seed,
            tensor=element(n, False).tensor if n >= 2 else None)

    raise ContractViolation(f"unknown suite {suite!r}")


def _cmd_verify(args):
    ns = args.n if args.n else [2]
    _check_degrees(ns)
    suites = SUITES if args.suite == "all" else (args.suite,)
    built = {}

    def element(n, signed):
        if (n, signed) not in built:
            el = build_element(n, signed=signed)
            built[n, signed] = _mutated(el) if args.mutate else el
        return built[n, signed]

    reports = []
    for suite in suites:
        if suite == "deltar":
            reports.append(check_steinberg_wedge(
                num_points=args.points if args.points else 10,
                seed=args.seed,
                half_coefficient=not args.mutate))
            continue
        for n in ns:
            reports.append(_verify_one(suite, n, args, element))
    status = "pass" if all(r.passed for r in reports) else "fail"
    _emit({
        "command": "verify",
        "suite": args.suite,
        "n": ns,
        "seed": args.seed,
        "mode": args.mode,
        "mutate": bool(args.mutate),
        "status": status,
        "reports": [r.to_json_dict(timings=args.timings) for r in reports],
    }, args.out)
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# integrate


def _parse_coeff(c):
    if isinstance(c, (int, float)):
        return c
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, list) and len(c) == 2:
        return complex(float(c[0]), float(c[1]))
    raise ContractViolation(f"bad letter coefficient {c!r}")


def _parse_word_spec(spec):
    if not isinstance(spec, list) or not spec:
        raise ContractViolation(
            "a word spec is a non-empty JSON list of letters")
    word = []
    for letter in spec:
        if not isinstance(letter, list) or not letter:
            raise ContractViolation(
                "each letter is a non-empty list of [coeff, symbol] pairs")
        parts = []
        for pair in letter:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ContractViolation(
                    "each letter part is a [coeff, symbol] pair")
            parts.append((_parse_coeff(pair[0]), parse_symbol(pair[1])))
        word.append(tuple(parts))
    return word


def _cmd_integrate(args):
    if bool(args.element) == bool(args.word):
        raise ContractViolation(
            "integrate needs exactly one of --element or --word")
    with open(args.path, encoding="utf-8") as fh:
        path = PathSpec.from_json_dict(json.load(fh))
    if args.element:
        with open(args.element, encoding="utf-8") as fh:
            tensor = MultTensor.from_json_dict(json.load(fh))
        res = iterate_element(tensor, path, tol=args.tol,
                              budget=args.budget)
    else:
        word = _parse_word_spec(json.loads(args.word))
        res = iterate_word(word, path, tol=args.tol, budget=args.budget)
    _emit(res.to_json_dict(), args.out)
    return 5 if res.depth_exceeded else 0


# ---------------------------------------------------------------------------
# table


def _parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ContractViolation("a grid range is start:stop:count")
    a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ContractViolation("grid count must be >= 1")
    if count == 1:
        return [a]
    step = (b - a) / (count - 1)
    return [a + i * step for i in range(count)]


def _cmd_table(args):
    import csv

    rows = []
    fn = args.function
    if fn in ("li1", "li2", "li3"):
        order = int(fn[2])
        header = ["z_re", "z_im", "value_re", "value_im", "error_estimate"]
        for x in _parse_range(args.grid):
            bv = li_n(order, x, tol=args.tol)
            rows.append([repr(x), repr(0.0), repr(bv.value.real),
                         repr(bv.value.imag), repr(bv.error)])
    elif fn == "rogers":
        header = ["x", "value_re", "value_im", "error_estimate"]
        for x in _parse_range(args.grid):
            try:
                val = repr(rogers_l2(x))
            except ContractViolation:
                val = "nan"
            rows.append([repr(x), val, repr(0.0), repr(0.0)])
    elif fn == "bloch_wigner":
        specs = args.grid.split(",")
        if len(specs) != 2:
            raise ContractViolation(
                "bloch_wigner grid is reA:reB:N,imA:imB:M")
        header = ["z_re", "z_im", "value_re", "value_im", "error_estimate"]
        for x in _parse_range(specs[0]):
            for y in _parse_range(specs[1]):
                try:
                    val = repr(bloch_wigner(complex(x, y)))
                except ContractViolation:
                    val = "nan"
                rows.append([repr(x), repr(y), val, repr(0.0), repr(0.0)])
    elif fn == "l2g":
        base = [Fraction(b) for b in args.base.split(",")]
        if len(base) != 3:
            raise ContractViolation("l2g needs --base with three points")
        header = ["x1", "x2", "x3", "x4", "value_re", "value_im",
                  "error_estimate"]
        for x in _parse_range(args.grid):
            val = l2g(base[0], base[1], base[2],
                      Fraction(x).limit_denominator(10 ** 9))
            rows.append([str(base[0]), str(base[1]), str(base[2]), repr(x),
                         repr(val), repr(0.0), repr(0.0)])
    else:
        raise ContractViolation(f"unknown table function {fn!r}")

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser():
    p = argparse.ArgumentParser(
        prog="grasspoly",
        description="exact bracket elements, identity verification, and "
                    "iterated-integral evaluation")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("element",
                        help="emit the canonical degree-n element as JSON")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--out")
    pe.add_argument("--mutate", action="store_true",
                    help="flip the first canonical term (test harness)")

    pv = sub.add_parser("verify", help="run identity check suites")
    pv.add_argument("--suite", default="all", choices=SUITES + ("all",))
    pv.add_argument("--n", type=int, action="append",
                    help="degree, repeatable (default 2)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--points", type=int, default=None,
                    help="evaluation points for the numeric certificates")
    pv.add_argument("--mode", default="mod2", choices=("mod2", "strict"),
                    help="strict keeps bracket sorting signs in the "
                         "relations and scale suites")
    pv.add_argument("--mutate", action="store_true",
                    help="corrupt the element under test; all suites must "
                         "then fail")
    pv.add_argument("--timings", action="store_true",
                    help="include wall times (breaks byte determinism)")
    pv.add_argument("--out")

    pi = sub.add_parser("integrate",
                        help="iterated integral of a word or element "
                             "along a path")
    pi.add_argument("--path", required=True,
                    help="PathSpec JSON file")
    pi.add_argument("--element", help="MultTensor JSON file")
    pi.add_argument("--word",
                    help="JSON word: [[[coeff, \"D[1,2]\"], ...], ...]")
    pi.add_argument("--tol", type=float, default=1e-12)
    pi.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pi.add_argument("--out")

    pt = sub.add_parser("table", help="emit CSV value tables")
    pt.add_argument("--function", required=True,
                    choices=("li1", "li2", "li3", "rogers", "bloch_wigner",
                             "l2g"))
    pt.add_argument("--grid", required=True,
                    help="start:stop:count, twice (comma-separated) for "
                         "bloch_wigner")
    pt.add_argument("--base", default="0,1,3",
                    help="fixed points for l2g tables")
    pt.add_argument("--tol", type=float, default=1e-10)
    pt.add_argument("--out")
    return p


_HANDLERS = {
    "element": _cmd_element,
    "verify": _cmd_verify,
    "integrate": _cmd_integrate,
    "table": _cmd_table,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except PoleError as exc:
        sys.stderr.write(f"pole error: {exc}\n")
        return 3
    except BudgetError as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 4
    except PathError as exc:
        sys.stderr.write(f"path error: {exc}\n")
        return 2
    except (ContractViolation, DegeneracyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
