"""Named special functions and their functional-equation drivers.

All numeric values here come from either a convergent series, a
principal-branch dilogarithm (mpmath), or the iterated-integral engine; the
functional-equation drivers combine them with the exact bracket layer so
the inputs to every identity are exact cross-ratios.

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
bloch_wigner values vanishes identically.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .configurations import (GaussianRational, _as_point, as_scalar,
                             cross_ratio)
from .errors import ContractViolation, DegeneracyError, PathError
from .iterint import (DEFAULT_BUDGET, PathSpec, _element_terms, _iterate_terms,
                      dlog_letter, iterate_word)
from .tensors import MultTensor

LI_START_OFFSET = 1e-6


@dataclass(frozen=True)
class BranchedValue:
    """A multivalued-function value together with the path that selects
    its branch."""

    value: complex
    path: PathSpec
    error: float = 0.0
    panels: int = 0

    def to_json_dict(self):
        return {"value": [self.value.real, self.value.imag],
                "error": self.error,
                "panels": self.panels}


# ---------------------------------------------------------------------------
# series and principal branches


def li_series(n, z, tol=1e-17, max_terms=4000):
    """Taylor series sum_{m>=1} z^m / m^n; needs |z| < 1."""
    n = int(n)
    if n < 1:
        raise ContractViolation("series order must be >= 1")
    z = complex(z)
    if abs(z) >= 1:
        raise ContractViolation("the series needs |z| < 1")
    acc = 0j
    power = 1.0 + 0j
    for m in range(1, max_terms + 1):
        power *= z
        term = power / m ** n
        acc += term
        if abs(term) < tol * (1.0 + abs(acc)):
            break
    return acc


def li2(z):
    """Principal-branch dilogarithm (cut along [1, oo))."""
    import mpmath

    return complex(mpmath.polylog(2, complex(z)))


# ---------------------------------------------------------------------------
# the classical polylogarithm by iterated integral


def _li_word(n):
    return [dlog_letter((1, 2), coeff=-1)] + [dlog_letter((1, 3))] * (n - 1)


def _li_config(u):
    return [[complex(u), 1.0], [1.0, 1.0], [0.0, 1.0]]


def li_n(n, z, via=None, tol=1e-12, budget=DEFAULT_BUDGET):
    """Classical Li_n(z) as an iterated integral along a path to z.

    The path runs in the variable u from delta*z to z (waypoints from
    `via` in between, straight otherwise), with the exact series supplying
    the prefix values at the start; the word is (-d log(u-1), d log u,
    ..., d log u).  For |z| below 0.01 the series alone is used, since the
    offset start would sit inside the pole monitor's guard.  The branch is
    the one selected by the path; the straight default gives the principal
    branch off [1, oo).
    """
    n = int(n)
    if n < 1:
        raise ContractViolation("li_n needs n >= 1")
    z = complex(z)
    if z == 0:
        raise ContractViolation("li_n(0) is trivially 0; pass z != 0")
    if abs(z - 1.0) < 1e-9 and n == 1:
        raise ContractViolation("li_1 is singular at z = 1")
    if abs(z) < 1e-2 and via is None:
        return BranchedValue(value=li_series(n, z), path=None)
    start = LI_START_OFFSET * z
    points = [start] + ([] if via is None else [complex(w) for w in via])
    points.append(z)
    path = PathSpec.from_points([_li_config(u) for u in points])
    initial = [1.0 + 0j] + [li_series(k, start) for k in range(1, n + 1)]
    res = iterate_word(_li_word(n), path, tol=tol, budget=budget,
                       initial=initial)
    return BranchedValue(value=res.value, path=path, error=res.error,
                         panels=res.panels)


# ---------------------------------------------------------------------------
# real dilogarithm variants and Bloch-Wigner


def _re_li2(x):
    import mpmath

    return float(mpmath.polylog(2, mpmath.mpf(x)).real
                 if x > 1 else mpmath.polylog(2, mpmath.mpf(x)))


def rogers_l2(x):
    """Real dilogarithm solving the symmetric-slope differential equation
    with zeros at -1, 1/2, and 2; continuous on each component of
    R - {0, 1}."""
    x = float(x)
    if x in (0.0, 1.0) or math.isinf(x) or math.isnan(x):
        raise ContractViolation("rogers_l2 is singular at 0, 1, infinity")
    pi2 = math.pi ** 2
    if 0.0 < x < 1.0:
        return _re_li2(x) + 0.5 * math.log(1 - x) * math.log(x) - pi2 / 12
    if x < 0.0:
        return _re_li2(x) + 0.5 * math.log(1 - x) * math.log(-x) + pi2 / 12
    return _re_li2(x) + 0.5 * math.log(x - 1) * math.log(x) - pi2 / 4


def rogers_l2_closed_form(x):
    """The (0,1) closed form Li2(x) + (1/2) log(1-x) log(x); differs from
    rogers_l2 by the constant pi^2/12 on its domain."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ContractViolation("the closed form lives on (0, 1)")
    return _re_li2(x) + 0.5 * math.log(1 - x) * math.log(x)


def rogers_l2_slope(x):
    """Right side of the defining differential equation, as dL/dx."""
    x = float(x)
    if x in (0.0, 1.0):
        raise ContractViolation("slope undefined at 0, 1")
    return 0.5 * (-math.log(abs(1 - x)) / x - math.log(abs(x)) / (1 - x))


def bloch_wigner(z):
    """Single-valued dilogarithm Im(Li2(z) + log(1-z) log|z|); vanishes on
    the real line."""
    z = complex(z)
    if z in (0, 1):
        raise ContractViolation("bloch_wigner is singular at 0 and 1")
    if z.imag == 0.0:
        return 0.0
    return float((li2(z) + cmath.log(1 - z) * math.log(abs(z))).imag)


# ---------------------------------------------------------------------------
# five-term machinery


def _omit_one(points, convert, fn):
    """[fn(*quadruple omitting point k) for k in 0..4] of exactly five
    points, each converted first; the quadruples keep the surviving points
    in their original order."""
    pts = [convert(p) for p in points]
    if len(pts) != 5:
        raise ContractViolation("need exactly 5 points")
    return [fn(*pts[:k], *pts[k + 1:]) for k in range(5)]


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
    return _omit_one(points, _as_point, cross_ratio)


def epsilon_sign(points):
    """The orientation sign (1/2) prod_{i<j} sgn Delta(p_i, p_j) of a real
    5-tuple, as an exact rational +-1/2."""
    pts = [_as_point(p) for p in points]
    if len(pts) != 5:
        raise ContractViolation("need exactly 5 points")
    eps = Fraction(1, 2)
    for i in range(5):
        for j in range(i + 1, 5):
            det = pts[i][0] * pts[j][1] - pts[j][0] * pts[i][1]
            if isinstance(det, GaussianRational):
                raise ContractViolation("orientation needs real points")
            if det == 0:
                raise DegeneracyError(f"points {i} and {j} coincide")
            eps = eps if det > 0 else -eps
    return eps


def rogers_five_term(points):
    """Alternating five-term sum of rogers_l2 over exact cross-ratios.

    Returns a dict with the sum, the exact orientation sign epsilon, the
    predicted value -epsilon pi^2/6, and their difference.  The sum over
    sgn-generic real 5-tuples matches the prediction; this is the
    functional equation of the real dilogarithm in its orientation-exact
    form.
    """
    def real_rogers(r):
        if isinstance(r, GaussianRational):
            raise ContractViolation("rogers five-term needs real points")
        return rogers_l2(Fraction(r))

    total = _alternating_sum(map(real_rogers, omit_cross_ratios(points)))
    eps = epsilon_sign(points)
    predicted = -float(eps) * math.pi ** 2 / 6
    return {
        "sum": total,
        "epsilon": str(eps),
        "predicted": predicted,
        "difference": abs(total - predicted),
    }


def bloch_wigner_five_term(points):
    """Alternating five-term sum of bloch_wigner over complex points;
    identically zero."""
    def quadruple(x1, x2, x3, x4):
        num = (x3 - x1) * (x4 - x2)
        den = (x3 - x2) * (x4 - x1)
        if den == 0:
            raise DegeneracyError("degenerate quadruple in five-term sum")
        return bloch_wigner(num / den)

    return _alternating_sum(_omit_one(points, complex, quadruple))


def l2g(x1, x2, x3, x4):
    """Dilogarithm of a 4-point configuration of the projective line: the
    rogers_l2 value of its exact cross-ratio."""
    r = cross_ratio(_as_point(x1), _as_point(x2), _as_point(x3),
                    _as_point(x4))
    if isinstance(r, GaussianRational):
        raise ContractViolation("l2g needs a real configuration")
    r = Fraction(r)
    if r in (0, 1):
        raise DegeneracyError("degenerate cross-ratio")
    return rogers_l2(r)


def l2g_five_term(points):
    """Alternating sum of l2g over the five omit-one quadruples."""
    return _alternating_sum(_omit_one(points, _as_point, l2g))


def l2g_family_values(base, velocities, samples=11):
    """The five-term sum along the linear family base + t * velocities,
    t on a uniform grid of [0, 1]; constancy of the list is the n = 2
    functional equation in its numeric form."""
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
    res = iterate_word(word, path, tol=tol, budget=budget)
    return BranchedValue(value=res.value, path=path, error=res.error,
                         panels=res.panels)


@functools.lru_cache(maxsize=2)
def _window_terms(n):
    """The degree-n window element as (coefficients, prepared word batch
    for paths of 2n vectors in dimension n), built once."""
    from .elements import build_element

    return _element_terms(build_element(n).tensor, n, 2 * n)


def grassmannian_tate(n, path, tol=1e-12, budget=DEFAULT_BUDGET,
                      element=None):
    """Iterated integral of the degree-n window element along a path of
    2n-vector configurations: the general-n period as a function of the
    path.  Homotopy invariance (within the pole-free region) follows from
    the integrability of the element.  The default element of each degree
    and its prepared word batch are built on the first call and kept; an
    `element` override is used as given and prepared on every call.
    """
    n = int(n)
    if n not in (2, 3):
        raise ContractViolation("supported degrees are 2 and 3")
    if not isinstance(path, PathSpec):
        raise PathError("grassmannian_tate needs a PathSpec")
    if path.count != 2 * n or path.dim != n:
        raise PathError(
            f"need a path of {2*n} vectors in dimension {n}, got "
            f"count={path.count}, dim={path.dim}")
    if element is None:
        coeffs, batch = _window_terms(n)
    elif isinstance(element, MultTensor):
        coeffs, batch = _element_terms(element, n, 2 * n)
    else:
        raise ContractViolation("element override must be a MultTensor")
    res = _iterate_terms(coeffs, batch, path, tol, budget)
    return BranchedValue(value=res.value, path=path, error=res.error,
                         panels=res.panels)
