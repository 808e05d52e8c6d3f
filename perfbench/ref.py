"""Independent references for the benchmark's output checks.

Nothing here calls the library: the sliding-window element is rebuilt from
its definition, polylogarithm values come from mpmath at 30 digits, and the
Rogers orientation sign is computed from the points.  mpmath is imported
only when a reference value is needed, so importing this module does not
add to a workload's set-up time.  Each `check_*`
function returns a list of problems (empty when the output is right).
"""

import cmath
import csv
import io
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations



def _mp():
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


# ---------------------------------------------------------------------------
# the sliding-window element


def parity(perm):
    """+1 or -1: the sign of a permutation of 0..k-1, from its cycles."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def window_element(n):
    """The degree-n element over labels 1..2n as {slots: coeff}, each slot
    a sorted label tuple: for every arrangement x of the labels, the term
    (x1..xn) (x) (x2..x(n+1)) (x) ... (x) (xn..x(2n-1)) with the parity of
    the arrangement as coefficient.  The (2n)! terms are distinct."""
    out = {}
    for perm in permutations(range(2 * n)):
        arr = [p + 1 for p in perm]
        key = tuple(tuple(sorted(arr[k:k + n])) for k in range(n))
        out[key] = out.get(key, 0) + parity(perm)
    return {k: v for k, v in out.items() if v}


def as_symbols(terms):
    """{slots: coeff} keyed by the library's ("D", labels) symbols."""
    return {tuple(("D", s) for s in slots): c for slots, c in terms.items()}


def slot_str(labels):
    return "D[" + ",".join(map(str, labels)) + "]"


def check_tensor_terms(terms, n, scale=1):
    """`terms` (the library's {symbol tuple: coeff}) equals scale times
    the rebuilt degree-n element."""
    want = {k: scale * v for k, v in as_symbols(window_element(n)).items()}
    if terms == want:
        return []
    missing = len(set(want) - set(terms))
    extra = len(set(terms) - set(want))
    wrong = sum(1 for k in set(want) & set(terms) if want[k] != terms[k])
    return [f"degree-{n} tensor differs from {scale} x the rebuilt element: "
            f"{missing} missing, {extra} extra, {wrong} wrong coefficients"]


def check_element_json(data, n):
    """CLI `element --n n` JSON against the rebuild."""
    try:
        got = {tuple(slot[0] for slot in t["slots"]): int(t["coeff"])
               for t in data["terms"]}
        arity = data["arity"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"element --n {n}: malformed JSON ({exc})"]
    want = {tuple(slot_str(s) for s in slots): c
            for slots, c in window_element(n).items()}
    problems = []
    if arity != n:
        problems.append(f"element --n {n}: arity {arity}")
    if got != want or len(data["terms"]) != len(want):
        problems.append(f"element --n {n}: terms differ from the rebuild")
    return problems


def comparison_constant(n):
    return (-1) ** n * math.factorial(n) ** 2


def check_comparison_report(rep, n):
    want = str(comparison_constant(n))
    d = rep.get("details", {})
    problems = []
    if rep.get("status") != "pass" or d.get("matched_constant") != want:
        problems.append(f"comparison n={n}: matched "
                        f"{d.get('matched_constant')}, expected {want}")
    terms = math.factorial(2 * n)
    if d.get("expansion_terms") != terms or d.get("element_terms") != terms:
        problems.append(f"comparison n={n}: term counts "
                        f"{d.get('expansion_terms')}/{d.get('element_terms')}"
                        f", expected {terms}")
    return problems


def check_zero_report(rep):
    """A passing identity report with no residue and no witness."""
    name = f"{rep.get('check')} n={rep.get('n')}"
    d = rep.get("details", {})
    problems = []
    if rep.get("status") != "pass":
        problems.append(f"{name}: status {rep.get('status')}")
    if rep.get("residue_terms") or rep.get("witness") is not None:
        problems.append(f"{name}: nonzero residue")
    if any(d.get(k) for k in ("plain_residue_terms", "projected_residue_terms",
                              "failing_labels")):
        problems.append(f"{name}: residue counts {d}")
    if rep.get("check") == "deltar" and d.get("symbolic_equal") is not True:
        problems.append(f"{name}: sides differ symbolically")
    return problems


def check_verify_json(data, n, suites):
    """CLI `verify` JSON: every report passes with its exact constant."""
    problems = []
    if data.get("status") != "pass":
        problems.append(f"verify n={n}: status {data.get('status')}")
    reports = data.get("reports", [])
    if sorted(r.get("check") for r in reports) != sorted(suites):
        problems.append(f"verify n={n}: reports "
                        f"{[r.get('check') for r in reports]}")
    for rep in reports:
        if rep.get("check") == "comparison":
            problems += check_comparison_report(rep, n)
        else:
            problems += check_zero_report(rep)
    return problems


# ---------------------------------------------------------------------------
# iterated integrals on real segments


def _bracket_poly(a, b, labels):
    """Bracket of the given rows along a + s (b - a), as mpmath functions
    of s for its value and derivative (2 x 2 brackets)."""
    mpmath = _mp()
    (i, j) = (labels[0] - 1, labels[1] - 1)
    p0 = [mpmath.mpf(x) for x in a[i]]
    q0 = [mpmath.mpf(x) for x in a[j]]
    dp = [mpmath.mpf(y) - mpmath.mpf(x) for x, y in zip(a[i], b[i])]
    dq = [mpmath.mpf(y) - mpmath.mpf(x) for x, y in zip(a[j], b[j])]

    def value(s):
        return ((p0[0] + s * dp[0]) * (q0[1] + s * dq[1])
                - (p0[1] + s * dp[1]) * (q0[0] + s * dq[0]))

    def slope(s):
        return (dp[0] * (q0[1] + s * dq[1]) + (p0[0] + s * dp[0]) * dq[1]
                - dp[1] * (q0[0] + s * dq[0]) - (p0[1] + s * dp[1]) * dq[0])

    return value, slope


def depth2_ref(a, b, inner, outer):
    """Iterated integral of (d log D[inner], d log D[outer]) along the real
    segment a -> b: the inner integral is log(D_inner(s) / D_inner(0))."""
    mpmath = _mp()
    v1, _ = _bracket_poly(a, b, inner)
    v2, d2 = _bracket_poly(a, b, outer)
    base = v1(0)
    return complex(mpmath.quad(
        lambda s: d2(s) / v2(s) * mpmath.log(v1(s) / base), [0, 0.5, 1]))


def element2_ref(a, b):
    """Sum over the rebuilt degree-2 element of its depth-2 word integrals."""
    return sum(c * depth2_ref(a, b, s1, s2)
               for (s1, s2), c in window_element(2).items())


def close(value, ref, tol):
    return abs(complex(value) - complex(ref)) <= tol * max(1.0, abs(ref))


def check_value(label, value, ref, tol):
    if close(value, ref, tol):
        return []
    return [f"{label}: {value!r} differs from reference {ref!r} (tol {tol})"]


def check_integrate_json(label, data, ref, tol):
    try:
        value = complex(*data["value"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{label}: malformed JSON ({exc})"]
    return check_value(label, value, ref, tol)


# ---------------------------------------------------------------------------
# polylogarithms


def li_ref(n, z):
    mpmath = _mp()
    return complex(mpmath.polylog(n, mpmath.mpc(z)))


def bloch_wigner_ref(z):
    mpmath = _mp()
    z = mpmath.mpc(z)
    return float(mpmath.im(mpmath.polylog(2, z))
                 + mpmath.arg(1 - z) * mpmath.log(abs(z)))


def rogers_ref(x):
    """The real dilogarithm normalised by L(-1) = L(1/2) = L(2) = 0."""
    mpmath = _mp()
    x = Fraction(x)
    x = mpmath.mpf(x.numerator) / x.denominator
    li = mpmath.re(mpmath.polylog(2, x))
    if 0 < x < 1:
        return float(li + mpmath.log(1 - x) * mpmath.log(x) / 2
                     - mpmath.pi ** 2 / 12)
    if x < 0:
        return float(li + mpmath.log(1 - x) * mpmath.log(-x) / 2
                     + mpmath.pi ** 2 / 12)
    return float(li + mpmath.log(x - 1) * mpmath.log(x) / 2
                 - mpmath.pi ** 2 / 4)


def epsilon_ref(xs):
    """(1/2) prod_{i<j} sgn(x_i - x_j) for distinct real points."""
    sign = 1
    for i, j in combinations(range(len(xs)), 2):
        if xs[i] < xs[j]:
            sign = -sign
    return Fraction(sign, 2)


def a1_ref(l1, l2, points):
    """Integral of d log((z - l2)/(z - l1)) along the polyline: each straight
    piece turns by less than pi around a pole it avoids, so the principal
    logarithm of the ratio of its end values is exact."""
    total = 0j
    for p, q in zip(points, points[1:]):
        total += (cmath.log((q - l2) / (p - l2))
                  - cmath.log((q - l1) / (p - l1)))
    return total


# ---------------------------------------------------------------------------
# CLI tables


def grid(lo, hi, count):
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]}")
    return rows[1:]


def check_table(function, text, spec):
    """CLI `table` CSV against the references; `spec` is the grid input."""
    try:
        if function == "li2":
            rows = _rows(text, ["z_re", "z_im", "value_re", "value_im",
                                "error_estimate"])
            xs = grid(*spec)
            if len(rows) != len(xs):
                return [f"table li2: {len(rows)} rows"]
            return [p for x, r in zip(xs, rows) for p in check_value(
                f"table li2 at {x}", complex(float(r[2]), float(r[3])),
                li_ref(2, x), 1e-10)]
        if function == "bloch_wigner":
            rows = _rows(text, ["z_re", "z_im", "value_re", "value_im",
                                "error_estimate"])
            zs = [complex(x, y) for x in grid(*spec[0])
                  for y in grid(*spec[1])]
            if len(rows) != len(zs):
                return [f"table bloch_wigner: {len(rows)} rows"]
            return [p for z, r in zip(zs, rows) for p in check_value(
                f"table bloch_wigner at {z}", float(r[2]),
                bloch_wigner_ref(z) if z.imag else 0.0, 1e-10)]
        if function == "rogers":
            rows = _rows(text, ["x", "value_re", "value_im",
                                "error_estimate"])
            xs = grid(*spec)
            problems = [] if len(rows) == len(xs) else [
                f"table rogers: {len(rows)} rows"]
            for x, r in zip(xs, rows):
                if x in (0.0, 1.0):
                    if r[1] != "nan":
                        problems.append(f"table rogers: {r[1]} at {x}")
                    continue
                problems += check_value(f"table rogers at {x}", float(r[1]),
                                        rogers_ref(x), 1e-10)
            return problems
        if function == "l2g":
            rows = _rows(text, ["x1", "x2", "x3", "x4", "value_re",
                                "value_im", "error_estimate"])
            xs = grid(*spec)
            if len(rows) != len(xs):
                return [f"table l2g: {len(rows)} rows"]
            problems = []
            for x, r in zip(xs, rows):
                x4 = Fraction(x).limit_denominator(10 ** 9)
                # base points 0, 1, 3: r = (3 - 0)(x4 - 1) / ((3 - 1)(x4 - 0))
                ratio = Fraction(3) * (x4 - 1) / (2 * x4)
                problems += check_value(f"table l2g at {x}", float(r[4]),
                                        rogers_ref(ratio), 1e-10)
            return problems
    except (ValueError, IndexError) as exc:
        return [f"table {function}: malformed CSV ({exc})"]
    return [f"table {function}: no check"]
