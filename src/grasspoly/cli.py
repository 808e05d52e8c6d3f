"""Command line front end: element emission, identity verification,
iterated integration, and function tables.

Exit codes: 0 success, 1 verification failure or contract error, 2 path
error (also used by argparse for usage errors), 3 pole proximity, 4 panel
budget exhausted, 5 not converged (`integrate` printed a value flagged
`depth_exceeded`).  `element` and each `verify` suite take the degrees
that `elements.DEGREES` lists for them; any other --n is refused with exit
code 1 before anything is built.  So is a negative or non-finite --tol.

All output is deterministic for a fixed command line: reports omit wall
times unless --timings is given, JSON keys are sorted, and every random
draw flows from --seed.  Evaluation is single-threaded; the
GRASSPOLY_THREADS environment variable is accepted and ignored.
"""

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .errors import (BudgetError, ContractViolation, DegeneracyError,
                     PathError, PoleError)

SUITES = ("comparison", "relations", "scale", "integrability", "deltar")


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, out):
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", out)


def _mutated(element):
    from .elements import flip_first_term

    return element._replace(tensor=flip_first_term(element.tensor))


# ---------------------------------------------------------------------------
# element


def _cmd_element(args):
    from .elements import build_element, require_degree

    element = build_element(require_degree("element", args.n))
    if args.mutate:
        element = _mutated(element)
    _emit(element.tensor.to_json_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    from .elements import (build_element, check_comparison,
                           check_integrability, check_omission_relations,
                           check_scale_invariance, check_steinberg_wedge,
                           require_degree)

    ns = args.n if args.n else [2]
    suites = SUITES if args.suite == "all" else (args.suite,)
    for suite in suites:
        for n in ns:
            require_degree(suite, n)
    strict = args.mode == "strict"

    def build(n, labels=None, prefix=(), signed=False):
        el = build_element(n, labels=labels, prefix=prefix, signed=signed)
        return _mutated(el) if args.mutate else el

    # one element per degree and sign setting, shared by all but relations;
    # calls pass signed= by keyword, so equal settings share a cache key
    element = functools.cache(build)
    per_degree = {
        "comparison": lambda n: check_comparison(
            n, element=element(n, signed=False)),
        "relations": lambda n: check_omission_relations(
            n, element_builder=functools.partial(build, signed=strict)),
        "scale": lambda n: check_scale_invariance(
            n, tensor=element(n, signed=strict).tensor),
        "integrability": lambda n: check_integrability(
            n, num_points=args.points, seed=args.seed,
            tensor=element(n, signed=False).tensor),
    }
    reports = []
    for suite in suites:
        if suite == "deltar":  # degree-free: one report, whatever the --n
            reports.append(
                check_steinberg_wedge(half_coefficient=not args.mutate))
        else:
            reports.extend(per_degree[suite](n) for n in ns)
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
    """A JSON number, a rational string "p/q", or a [re, im] pair; JSON
    true and false (the Python ints 1 and 0) are refused, in a pair too."""
    if isinstance(c, (int, float)) and not isinstance(c, bool):
        return c
    try:
        if isinstance(c, str):
            return Fraction(c)
        if (isinstance(c, list) and len(c) == 2
                and not any(isinstance(x, bool) for x in c)):
            return complex(float(c[0]), float(c[1]))
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ContractViolation(f"bad letter coefficient {c!r}")


def _parse_word_spec(spec):
    from .tensors import parse_symbol

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


def _load_json(source, error, what):
    """The JSON value of `source`, a string or a text file; `error` names
    `what` when there is none (a file that is not UTF-8 has none)."""
    try:
        return json.loads(source if isinstance(source, str) else source.read())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"the {what} is not JSON: {exc}") from exc


def _cmd_integrate(args):
    from .iterint import (DEFAULT_BUDGET, PathSpec, iterate_element,
                          iterate_word)
    from .tensors import MultTensor

    if bool(args.element) == bool(args.word):
        raise ContractViolation(
            "integrate needs exactly one of --element or --word")
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    with open(args.path, encoding="utf-8") as fh:
        path = PathSpec.from_json_dict(_load_json(fh, PathError, "path"))
    if args.element:
        with open(args.element, encoding="utf-8") as fh:
            tensor = MultTensor.from_json_dict(
                _load_json(fh, ContractViolation, "element"))
        res = iterate_element(tensor, path, tol=args.tol, budget=budget)
    else:
        word = _parse_word_spec(
            _load_json(args.word, ContractViolation, "word spec"))
        res = iterate_word(word, path, tol=args.tol, budget=budget)
    _emit(res.to_json_dict(), args.out)
    return 5 if res.depth_exceeded else 0


# ---------------------------------------------------------------------------
# table


def _parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ContractViolation("a grid range is start:stop:count")
    try:
        a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ContractViolation(
            f"a grid range is start:stop:count with a whole count, "
            f"got {spec!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ContractViolation("grid bounds must be finite")
    if count < 1:
        raise ContractViolation("grid count must be >= 1")
    if count == 1:
        return [a]
    step = (b - a) / (count - 1)
    return [a + i * step for i in range(count)]


def _cmd_table(args):
    from .polylogs import bloch_wigner, l2g, li_n, rogers_l2

    # each function gives its coordinate header, its grid points and the
    # (value_re, value_im, error_estimate) of a point; a point it refuses
    # prints `refused` instead
    fn = args.function
    refused = (math.nan, 0.0, 0.0)
    if fn in ("li1", "li2", "li3"):
        order = int(fn[2])
        if not math.isfinite(args.tol):
            raise ContractViolation("--tol must be finite")
        if args.tol < 0:
            raise ContractViolation("--tol must not be negative")
        header = ["z_re", "z_im"]
        points = [(x, 0.0) for x in _parse_range(args.grid)]
        refused = (math.nan,) * 3

        def cells(x, y):
            bv = li_n(order, complex(x, y), tol=args.tol)
            return bv.value.real, bv.value.imag, bv.error
    elif fn == "rogers":
        header = ["x"]
        points = [(x,) for x in _parse_range(args.grid)]

        def cells(x):
            return rogers_l2(x), 0.0, 0.0
    elif fn == "bloch_wigner":
        specs = args.grid.split(",")
        if len(specs) != 2:
            raise ContractViolation(
                "bloch_wigner grid is reA:reB:N,imA:imB:M")
        header = ["z_re", "z_im"]
        points = [(x, y) for x in _parse_range(specs[0])
                  for y in _parse_range(specs[1])]

        def cells(x, y):
            return bloch_wigner(complex(x, y)), 0.0, 0.0
    elif fn == "l2g":
        try:
            base = [Fraction(b) for b in args.base.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ContractViolation(
                f"l2g --base is three rationals, got {args.base!r}") from None
        if len(base) != 3:
            raise ContractViolation("l2g needs --base with three points")
        header = ["x1", "x2", "x3", "x4"]
        points = [(*base, x) for x in _parse_range(args.grid)]

        def cells(x1, x2, x3, x4):
            return (l2g(x1, x2, x3, Fraction(x4).limit_denominator(10 ** 9)),
                    0.0, 0.0)

    header += ["value_re", "value_im", "error_estimate"]
    # no cell holds a comma, a quote or a line break, so none is quoted
    lines = [header]
    for point in points:
        try:
            values = cells(*point)
        except (ContractViolation, DegeneracyError):
            values = refused
        lines.append([str(c) for c in (*point, *values)])
    _write("".join(",".join(line) + "\n" for line in lines), args.out)
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
    pv.add_argument("--points", type=int, default=20,
                    help="evaluation points for the integrability "
                         "certificate")
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
    # None stands for iterint.DEFAULT_BUDGET, which the parser leaves
    # unread so that building it does not load the numeric engine
    pi.add_argument("--budget", type=int)
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
