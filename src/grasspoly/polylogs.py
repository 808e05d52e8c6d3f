"""Named special functions and their functional-equation drivers.

All numeric values here come from either a convergent series, a
principal-branch dilogarithm in plain floats (li2), or the iterated-integral
engine; the functional-equation drivers combine them with the exact bracket
layer so the inputs to every identity are exact cross-ratios.

Branch conventions, fixed once and used everywhere:

* li_n follows the straight path from a small offset to z (optionally via
  user waypoints); the value at the offset end is supplied analytically by
  the series, so the quadrature never sees the singular start.
* the real dilogarithm variant rogers_l2 is the solution of
      dL(x) = (1/2)(-log|1-x| dlog|x| + log|x| dlog|1-x|)
  on each real component, normalized by L(-1) = L(1/2) = L(2) = 0.  On
  (0, 1) it differs from the closed form Li2(x) + (1/2)log(1-x)log(x)
  (exposed as rogers_l2_closed_form) by the constant -pi^2/12.
* bloch_wigner is single-valued, so no path bookkeeping appears in it.

The five-term drivers take five points (exact scalars or 2-vectors) and
form the cross-ratios of the five omit-one quadruples in order; the
alternating sum of the real variant equals -epsilon pi^2/6 with
epsilon = (1/2) prod_{i<j} sgn Delta(p_i, p_j), and the alternating sum of
bloch_wigner values vanishes identically.  The exact drivers
(omit_cross_ratios, epsilon_sign, rogers_five_term, l2g_five_term) share
one table of the ten pair determinants Delta(p_i, p_j), in integers, per
5-tuple: each point is scaled by the positive lcm of its denominators,
which keeps every sign and cancels from every cross-ratio, so each
cross-ratio is one exact quotient of table entries.
"""

import cmath
import functools
import math
from fractions import Fraction
from itertools import combinations

from .configurations import (GaussianRational, _as_point, _integer_rows,
                             _quotient, _reciprocal, as_scalar, cross_ratio)
from .errors import ContractViolation, DegeneracyError, PathError
from .iterint import (DEFAULT_BUDGET, IterIntResult, PathSpec, _Automaton,
                      _controls, _iterate_prepared, _WordBatch, dlog_letter,
                      iterate_word)

LI_START_OFFSET = 1e-6
# The most terms li_series sums before it gives up short of its tolerance.
LI_SERIES_TERMS = 4000

# A multivalued-function value: the engine's result, whose `path` selects
# its branch.
BranchedValue = IterIntResult


# ---------------------------------------------------------------------------
# series and principal branches


def li_series(n, z, tol=1e-17):
    """Taylor series sum_{m>=1} z^m / m^n; needs |z| < 1.

    Sums until a term falls below tol relative to the sum.  If
    LI_SERIES_TERMS terms do not get there (|z| near 1, e.g. 0.999 at
    n = 1), the truncated sum is refused with ContractViolation rather
    than returned.
    """
    n = int(n)
    if n < 1:
        raise ContractViolation("series order must be >= 1")
    z = complex(z)
    if abs(z) >= 1:
        raise ContractViolation("the series needs |z| < 1")
    acc = 0j
    power = 1.0 + 0j
    for m in range(1, LI_SERIES_TERMS + 1):
        power *= z
        term = power / m ** n
        acc += term
        if abs(term) < tol * (1.0 + abs(acc)):
            return acc
    raise ContractViolation(
        f"the series at |z| = {abs(z)!r} does not reach its tolerance "
        f"within {LI_SERIES_TERMS} terms")


def _bernoulli_coefficients(count):
    """B_2k / (2k+1)! for k = count, ..., 1 (Horner order), each a float
    rounded once from an exact integer quotient.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), where T_k = 1, 2, 16,
    272, ... are the tangent numbers (tan x = sum T_k x^(2k-1) / (2k-1)!),
    built here by the integer recurrence of Brent and Harvey.
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple((-1) ** (k - 1) * 2 * k * t[k]
                 / (4 ** k * (4 ** k - 1) * math.factorial(2 * k + 1))
                 for k in range(count, 0, -1))


# On the region served by the series below, |u| = |log(1 - z)| <= 1.05
# and the k-th term is about 2 (|u| / 2 pi)^(2k) |u| / (2k + 1), so ten
# terms leave a tail under 1e-18.
_LI2_BERNOULLI = _bernoulli_coefficients(10)
_PI2_6 = math.pi ** 2 / 6


def _li2_disk(z):
    """Li2 on |z| <= 1, Re z <= 1/2: the series
    u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! in u = -log(1 - z).

    Near zero, w = 1 - z rounds away low digits of z.  The quotient
    log(w) / (w - 1) varies slowly in w, so u = z log(w) / (w - 1) with
    the exact z keeps full relative accuracy (u = z when w rounds to 1).
    """
    w = 1 - z
    u = z if w == 1 else cmath.log(w) * z / (w - 1)
    u2 = u * u
    acc = 0.0
    for c in _LI2_BERNOULLI:
        acc = acc * u2 + c
    return u + u2 * (u * acc - 0.25)


def li2(z):
    """Principal-branch dilogarithm, cut along [1, oo), in double precision.

    On the cut itself (z real, z > 1, whatever the sign of a zero imaginary
    part) the value is the limit from below, Li2(x) = Re Li2(x) - i pi log x,
    which is also what the principal log(1 - z) in -int_0^z log(1 - t) dt/t
    gives.  Points with |z| <= 1 and Re z <= 1/2 are summed directly;
    points within distance 1 of z = 1 go through the reflection
    Li2(z) = pi^2/6 - log(z) log(1 - z) - Li2(1 - z), and all others
    through the inversion Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ContractViolation("li2 needs a finite argument")
    if z == 1:
        return complex(_PI2_6)
    if abs(z) <= 1 and z.real <= 0.5:
        return _li2_disk(z)
    on_cut = z.imag == 0 and z.real > 1
    if abs(1 - z) <= 1:
        log_1mz = (complex(math.log(z.real - 1), math.pi) if on_cut
                   else cmath.log(1 - z))
        return _PI2_6 - cmath.log(z) * log_1mz - _li2_disk(1 - z)
    log_mz = (complex(math.log(z.real), math.pi) if on_cut
              else cmath.log(-z))
    return -_li2_disk(1 / z) - _PI2_6 - 0.5 * log_mz * log_mz


# ---------------------------------------------------------------------------
# the classical polylogarithm by iterated integral


@functools.lru_cache(maxsize=8)
def _li_batch(n):
    """The word (-d log(u-1), d log u, ..., d log u) of li_n, prepared once
    per n for the three vectors in dimension 2 of `_li_config`."""
    word = [dlog_letter((1, 2), coeff=-1)] + [dlog_letter((1, 3))] * (n - 1)
    return _WordBatch([word], 2, 3)


def _li_config(u):
    return [[complex(u), 1.0], [1.0, 1.0], [0.0, 1.0]]


def li_n(n, z, via=None, tol=1e-12, budget=DEFAULT_BUDGET):
    """Classical Li_n(z) as an iterated integral along a path to z.

    The path runs in the variable u from delta*z to z (waypoints from
    `via` in between, straight otherwise), with the exact series supplying
    the prefix values at the start; the word is (-d log(u-1), d log u,
    ..., d log u).  For |z| below 0.01 the series alone is used, since the
    offset start would sit inside the pole monitor's guard (so li_n(n, 0)
    is an exact 0, with error 0 and no panels).  The branch is
    the one selected by the path; the straight default gives the principal
    branch off [1, oo).
    """
    n = int(n)
    if n < 1:
        raise ContractViolation("li_n needs n >= 1")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ContractViolation("li_n needs a finite argument")
    if abs(z - 1.0) < 1e-9 and n == 1:
        raise ContractViolation("li_1 is singular at z = 1")
    _controls(tol, budget)  # refused here too, though the series uses neither
    if abs(z) < 1e-2 and via is None:
        return IterIntResult(li_series(n, z), 0.0, 0)
    start = LI_START_OFFSET * z
    points = [start] + ([] if via is None else [complex(w) for w in via])
    points.append(z)
    path = PathSpec.from_points([_li_config(u) for u in points])
    initial = [1.0 + 0j] + [li_series(k, start) for k in range(1, n + 1)]
    res, = _iterate_prepared(_li_batch(n), path, tol, budget, start=initial)
    return res


# ---------------------------------------------------------------------------
# real dilogarithm variants and Bloch-Wigner


def rogers_l2(x):
    """Real dilogarithm solving the symmetric-slope differential equation
    with zeros at -1, 1/2, and 2; continuous on each component of
    R - {0, 1}."""
    x = float(x)
    if x in (0.0, 1.0) or math.isinf(x) or math.isnan(x):
        raise ContractViolation("rogers_l2 is singular at 0, 1, infinity")
    pi2 = math.pi ** 2
    re_li2 = li2(x).real
    if 0.0 < x < 1.0:
        return re_li2 + 0.5 * math.log(1 - x) * math.log(x) - pi2 / 12
    if x < 0.0:
        return re_li2 + 0.5 * math.log(1 - x) * math.log(-x) + pi2 / 12
    return re_li2 + 0.5 * math.log(x - 1) * math.log(x) - pi2 / 4


def rogers_l2_closed_form(x):
    """The (0,1) closed form Li2(x) + (1/2) log(1-x) log(x); differs from
    rogers_l2 by the constant pi^2/12 on its domain."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ContractViolation("the closed form lives on (0, 1)")
    return li2(x).real + 0.5 * math.log(1 - x) * math.log(x)


def rogers_l2_slope(x):
    """Right side of the defining differential equation, as dL/dx.  Its
    research use: acceptance criterion 9 checks rogers_l2's normalization
    by central differences against it."""
    x = float(x)
    if x in (0.0, 1.0):
        raise ContractViolation("slope undefined at 0, 1")
    return 0.5 * (-math.log(abs(1 - x)) / x - math.log(abs(x)) / (1 - x))


def bloch_wigner(z):
    """Single-valued dilogarithm Im(Li2(z) + log(1-z) log|z|); vanishes on
    the real line."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ContractViolation("bloch_wigner needs a finite argument")
    if z in (0, 1):
        raise ContractViolation("bloch_wigner is singular at 0 and 1")
    if z.imag == 0.0:
        return 0.0
    return float((li2(z) + cmath.log(1 - z) * math.log(abs(z))).imag)


# ---------------------------------------------------------------------------
# five-term machinery


def _pair_table(points):
    """{(i, j): Delta(p_i, p_j)} for i < j of exactly five points (exact
    scalars or 2-vectors), each point first scaled to integers (Gaussian
    integers when any point is complex) by `_integer_rows`.  The scale of
    a point is the positive lcm of its denominators, so every determinant
    keeps its sign, and it cancels from each cross-ratio, in which every
    point appears once above and once below the bar."""
    pts = [_as_point(p) for p in points]
    if len(pts) != 5:
        raise ContractViolation("need exactly 5 points")
    rows = _integer_rows(pts)[0]
    return {(i, j): rows[i][0] * rows[j][1] - rows[j][0] * rows[i][1]
            for i, j in combinations(range(5), 2)}


def _cross_ratios(det):
    """The cross-ratios r(omit k), k = 0..4, from the pair table, one at a
    time: D13 D24 / (D23 D14) of the surviving points 1-4 in order, as one
    exact quotient each."""
    for k in range(5):
        a, b, c, d = (i for i in range(5) if i != k)
        den = det[b, c] * det[a, d]
        if not den:
            raise DegeneracyError("cross-ratio denominator vanishes")
        unit, norm = _reciprocal(den)
        yield _quotient(det[a, c] * det[b, d] * unit, norm)


def _alternating_sum(values):
    """values[0] - values[1] + values[2] - ..., summed in order."""
    total = 0.0
    for k, val in enumerate(values):
        total += val if k % 2 == 0 else -val
    return total


def omit_cross_ratios(points):
    """The five cross-ratios r(omit k) of a 5-tuple, exact arithmetic.

    Each quadruple keeps the surviving points in their original order.
    """
    return list(_cross_ratios(_pair_table(points)))


def _orientation(det):
    """(1/2) prod_{i<j} sgn Delta(p_i, p_j) from the pair table, refusing
    the first pair whose determinant is complex or zero."""
    eps = Fraction(1, 2)
    for (i, j), d in det.items():
        if type(d) is not int:
            if d.im:
                raise ContractViolation("orientation needs real points")
            d = d.re
        if d == 0:
            raise DegeneracyError(f"points {i} and {j} coincide")
        eps = eps if d > 0 else -eps
    return eps


def epsilon_sign(points):
    """The orientation sign (1/2) prod_{i<j} sgn Delta(p_i, p_j) of a real
    5-tuple, as an exact rational +-1/2."""
    return _orientation(_pair_table(points))


def rogers_five_term(points):
    """Alternating five-term sum of rogers_l2 over exact cross-ratios.

    Returns a dict with the sum, the exact orientation sign epsilon, the
    predicted value -epsilon pi^2/6, and their difference.  The sum over
    sgn-generic real 5-tuples matches the prediction; this is the
    functional equation of the real dilogarithm in its orientation-exact
    form.  The cross-ratios and epsilon come from one pair table.
    """
    def real_rogers(r):
        if isinstance(r, GaussianRational):
            raise ContractViolation("rogers five-term needs real points")
        return rogers_l2(r)

    det = _pair_table(points)
    # every denominator is checked before any cross-ratio is evaluated
    total = _alternating_sum(map(real_rogers, list(_cross_ratios(det))))
    eps = _orientation(det)
    predicted = -float(eps) * math.pi ** 2 / 6
    return {
        "sum": total,
        "epsilon": str(eps),
        "predicted": predicted,
        "difference": abs(total - predicted),
    }


def bloch_wigner_five_term(points):
    """Alternating five-term sum of bloch_wigner over complex points;
    identically zero.  The quadruples keep the surviving points in their
    original order."""
    def quadruple(x1, x2, x3, x4):
        num = (x3 - x1) * (x4 - x2)
        den = (x3 - x2) * (x4 - x1)
        if den == 0:
            raise DegeneracyError("degenerate quadruple in five-term sum")
        return bloch_wigner(num / den)

    pts = [complex(p) for p in points]
    if len(pts) != 5:
        raise ContractViolation("need exactly 5 points")
    return _alternating_sum([quadruple(*pts[:k], *pts[k + 1:])
                             for k in range(5)])


def l2g(x1, x2, x3, x4):
    """Dilogarithm of a 4-point configuration of the projective line: the
    rogers_l2 value of its exact cross-ratio."""
    return _l2g_of(cross_ratio(_as_point(x1), _as_point(x2), _as_point(x3),
                               _as_point(x4)))


def _l2g_of(r):
    """rogers_l2 of an exact cross-ratio, refusing a complex or degenerate
    one."""
    if isinstance(r, GaussianRational):
        raise ContractViolation("l2g needs a real configuration")
    if r in (0, 1):
        raise DegeneracyError("degenerate cross-ratio")
    return rogers_l2(r)


def l2g_five_term(points):
    """Alternating sum of l2g over the five omit-one quadruples, from one
    pair table; each quadruple's cross-ratio is formed and checked before
    the next one's."""
    return _alternating_sum(map(_l2g_of, _cross_ratios(_pair_table(points))))


def l2g_family_values(base, velocities, samples=11):
    """The five-term sum along the linear family base + t * velocities,
    t on a uniform grid of [0, 1]; constancy of the list is the n = 2
    functional equation in its numeric form.  Its research use:
    acceptance criterion 11 rests on that constancy along a family."""
    base = [as_scalar(b) for b in base]
    vel = [as_scalar(v) for v in velocities]
    if len(base) != 5 or len(vel) != 5:
        raise ContractViolation("need 5 base points and 5 velocities")
    samples = int(samples)
    if samples < 2:
        raise ContractViolation("need at least 2 samples")
    out = []
    for j in range(samples):
        t = Fraction(j, samples - 1)
        pts = [b + t * v for b, v in zip(base, vel)]
        out.append(l2g_five_term(pts))
    return out


# ---------------------------------------------------------------------------
# logarithm of a projective pair pairing, and the general-n period


def aomoto_a1(l1, l2, m1, m2, via=None, tol=1e-12, budget=DEFAULT_BUDGET):
    """The weight-1 pairing: integral of d log((z - l2)/(z - l1)) from m1
    to m2.

    On the trivial branch this is a logarithm of the exact cross-ratio
    r(l1, l2, m1, m2); `via` inserts complex waypoints to steer the path
    around the poles l1, l2 (a straight path through one of them raises
    the pole error).  m1 == m2 gives 0.
    """
    l1c, l2c = complex(l1), complex(l2)
    zs = [complex(m1)] + ([] if via is None else [complex(w) for w in via])
    zs.append(complex(m2))

    def config(z):
        return [[z, 1.0], [l1c, 1.0], [l2c, 1.0]]

    path = PathSpec.from_points([config(z) for z in zs])
    word = [dlog_letter((1, 3)) + dlog_letter((1, 2), coeff=-1)]
    return iterate_word(word, path, tol=tol, budget=budget)


@functools.lru_cache(maxsize=3)
def _window_terms(n):
    """The degree-n window element as the minimal weighted automaton of
    its words, for paths of 2n vectors in dimension n, built once."""
    from .elements import build_element

    return _Automaton(build_element(n).tensor, n, 2 * n)


def grassmannian_tate(n, path, tol=1e-12, budget=DEFAULT_BUDGET):
    """Iterated integral of the degree-n window element along a path of
    2n-vector configurations: the general-n period as a function of the
    path.  Homotopy invariance (within the pole-free region) follows from
    the integrability of the element.  The supported degrees, 2 to 4, are
    `elements.DEGREES["grassmannian_tate"]`.  The element is swept as the
    minimal weighted automaton of its words, built on the first call of
    each degree and kept (`_window_terms`); any other element, a scaled or
    mutated one included, is integrated by `iterint.iterate_element`.  The
    error is the element's own accumulated difference of whole and halved
    panels.
    """
    from .elements import require_degree

    n = require_degree("grassmannian_tate", n)
    if not isinstance(path, PathSpec):
        raise PathError("grassmannian_tate needs a PathSpec")
    if path.count != 2 * n or path.dim != n:
        raise PathError(
            f"need a path of {2*n} vectors in dimension {n}, got "
            f"count={path.count}, dim={path.dim}")
    res, = _iterate_prepared(_window_terms(n), path, tol, budget)
    return res
