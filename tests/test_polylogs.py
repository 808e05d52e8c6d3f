"""Classical polylogarithms, the real dilogarithm variants, and their
functional equations.

mpmath is the numeric oracle for series and principal-branch values; the
functional equations are checked in their orientation-exact form, with the
sign epsilon recomputed from pairwise determinants inside the tests.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from grasspoly import iterint, polylogs
from grasspoly.configurations import (GaussianRational, _as_point,
                                     cross_ratio)
from grasspoly.errors import (ContractViolation, DegeneracyError, PathError,
                              PoleError)
from grasspoly.iterint import DEFAULT_BUDGET, IterIntResult, PathSpec
from grasspoly.polylogs import (BranchedValue, aomoto_a1, bloch_wigner,
                                bloch_wigner_five_term, epsilon_sign,
                                grassmannian_tate, l2g, l2g_family_values,
                                l2g_five_term, li2, li_n, li_series,
                                omit_cross_ratios, rogers_five_term,
                                rogers_l2, rogers_l2_closed_form,
                                rogers_l2_slope)

mpmath.mp.dps = 30


def mp_li(n, z):
    return complex(mpmath.polylog(n, z))


# ---------------------------------------------------------------------------
# series and the integral representation


def test_li_series_matches_mpmath():
    rng = random.Random(601)
    for _ in range(25):
        n = rng.randint(1, 4)
        z = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
        if abs(z) >= 0.9:
            continue
        assert abs(li_series(n, z) - mp_li(n, z)) < 1e-13
    with pytest.raises(ContractViolation):
        li_series(0, 0.5)
    with pytest.raises(ContractViolation):
        li_series(2, 1.0)


def test_li_series_refuses_a_truncated_sum():
    # before, the sum of the first 4000 terms came back as the value:
    # 3.8e-3 off -log(0.001) at z = 0.999, and 0.70 off at 0.9999
    assert abs(li_series(1, 0.99) + math.log(0.01)) < 1e-13
    for z in (0.999, 0.9999):
        with pytest.raises(ContractViolation,
                           match=f"{z!r} .* within 4000 terms"):
            li_series(1, z)


def test_li_n_small_arguments_use_the_series():
    v = li_n(3, 0.004)
    assert v.path is None
    assert abs(v.value - mp_li(3, 0.004)) < 1e-15


@pytest.mark.parametrize("n,z", [
    (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5),
    (2, -2.0), (2, 0.3 + 0.4j), (3, 2j), (2, -5 + 1j), (4, 0.9),
])
def test_li_n_matches_principal_branch(n, z):
    v = li_n(n, z)
    assert abs(v.value - mp_li(n, complex(z))) < 1e-10
    assert v.error < 1e-8
    assert v.panels > 0


def test_li_1_is_minus_log_one_minus_z():
    for z in (0.5, -3.0, 0.2 + 0.7j):
        v = li_n(1, z)
        assert abs(v.value + cmath.log(1 - z)) < 1e-11


def test_li2_half_reference_value():
    exact = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    assert abs(li_n(2, 0.5).value - exact) < 1e-11
    assert abs(li2(0.5) - exact) < 1e-14


# ---------------------------------------------------------------------------
# accuracy of the in-house dilogarithm against mpmath at 30 digits

LI2_BOUND = 2e-15


def li2_error(value, oracle, floor=1e-3):
    """Relative error, or absolute where the oracle is below floor."""
    err = abs(mpmath.mpc(value) - oracle)
    return float(err / abs(oracle) if abs(oracle) >= floor else err)


def li2_region_points():
    """Seeded points in every region of li2's transformations and on the
    boundaries between them."""
    rng = random.Random(611)

    def around(center, radius):
        return center + cmath.rect(radius, rng.uniform(-math.pi, math.pi))

    def log_uniform(lo, hi):
        return 10 ** rng.uniform(lo, hi)

    def off_cut():
        x = 1 + log_uniform(-9, math.log10(49))
        eps = log_uniform(-300, -3)
        return complex(x, eps if rng.random() < 0.5 else -eps)

    makers = {
        "small": lambda: around(0, log_uniform(-12, -2)),
        "series_edge": lambda: around(0, rng.uniform(0.2, 0.3)),
        "ring": lambda: around(0, rng.uniform(0.9, 1.1)),
        "near_one": lambda: around(1, log_uniform(-10, -1)),
        "reflection_edge": lambda: around(1, rng.uniform(0.95, 1.05)),
        "large": lambda: around(0, log_uniform(0, math.log10(50))),
        "off_cut": off_cut,
    }
    return {name: [make() for _ in range(120)]
            for name, make in makers.items()}


LI2_REGIONS = li2_region_points()


@pytest.mark.parametrize("region", sorted(LI2_REGIONS))
def test_li2_matches_mpmath_in_every_region(region):
    # relative error throughout, so that in the small region (|z| down to
    # 1e-12) an absolute bound cannot hide the digits lost in 1 - z
    errors = {z: li2_error(li2(z), mpmath.polylog(2, mpmath.mpc(z)), floor=0)
              for z in LI2_REGIONS[region]}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= LI2_BOUND, (worst, errors[worst])


def test_li2_on_the_cut_takes_mpmaths_branch():
    """On real z > 1 the value is the limit from below, Im = -pi log z,
    whatever the sign of a zero imaginary part."""
    rng = random.Random(612)
    xs = [1 + 1e-12, 1 + 1e-6, 1.5, 2.0, 2.5, 50.0]
    xs += [1 + 10 ** rng.uniform(-9, math.log10(49)) for _ in range(40)]
    for x in xs:
        oracle = mpmath.polylog(2, mpmath.mpf(x))
        assert oracle.imag < 0
        values = {li2(x), li2(complex(x, 0.0)), li2(complex(x, -0.0))}
        assert len(values) == 1
        value, = values
        assert li2_error(value, oracle) <= LI2_BOUND, x
        assert abs(value.imag + math.pi * math.log(x)) <= (
            LI2_BOUND * abs(oracle))
    # just off the cut the two sides differ by 2 pi i log x
    above, below = li2(complex(3, 1e-300)), li2(complex(3, -1e-300))
    assert below == li2(3.0)
    assert abs(above - below.conjugate()) < 1e-15
    assert abs((above - below) - 2j * math.pi * math.log(3)) < 1e-14


def test_li2_at_zero_and_one_and_its_contracts():
    assert li2(0) == 0
    assert li2(0j) == 0
    assert li2(1) == math.pi ** 2 / 6
    assert li2_error(li2(1), mpmath.zeta(2)) <= LI2_BOUND
    assert li2_error(li2(-1), -mpmath.zeta(2) / 2) <= LI2_BOUND
    for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.nan),
                complex(math.inf, 1.0)):
        with pytest.raises(ContractViolation):
            li2(bad)


def mp_rogers(x):
    """rogers_l2 of a rational at 30 digits, from its definition."""
    x = mpmath.mpf(x.numerator) / x.denominator
    li, pi2 = mpmath.re(mpmath.polylog(2, x)), mpmath.pi ** 2
    if 0 < x < 1:
        return li + mpmath.log(1 - x) * mpmath.log(x) / 2 - pi2 / 12
    if x < 0:
        return li + mpmath.log(1 - x) * mpmath.log(-x) / 2 + pi2 / 12
    return li + mpmath.log(x - 1) * mpmath.log(x) / 2 - pi2 / 4


def test_rogers_of_fractions_matches_mpmath():
    """rogers_l2 adds Re Li2(x) to a product of logarithms of about the same
    size, so its error is bounded relative to 1 + |Re Li2(x)|."""
    rng = random.Random(613)
    done = 0
    while done < 150:
        x = Fraction(rng.randint(-2500, 2500), rng.randint(1, 50))
        if x in (0, 1):
            continue
        value = rogers_l2(x)
        assert value == rogers_l2(float(x))
        scale = 1 + abs(mpmath.re(mpmath.polylog(2, mpmath.mpf(float(x)))))
        assert abs(value - mp_rogers(x)) <= LI2_BOUND * scale, x
        done += 1


def test_li_n_contracts():
    with pytest.raises(ContractViolation):
        li_n(0, 0.5)
    with pytest.raises(ContractViolation):
        li_n(1, 1.0 + 1e-12)
    # Li_n(0) = 0 exactly: the series alone, with no error and no panels
    zero = li_n(2, 0)
    assert (zero.value, zero.error, zero.panels) == (0, 0.0, 0)
    assert zero.depth_exceeded is False and zero.path is None


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), math.nan,
                               complex(math.inf, 1.0),
                               complex(0.5, -math.inf)])
def test_non_finite_arguments_are_refused(z):
    # before, bloch_wigner returned 0.0 at nan and inf, li_n(2, nan)
    # raised a pole error and li_n(2, inf + 1j) blamed the series
    with pytest.raises(ContractViolation, match="needs a finite argument"):
        bloch_wigner(z)
    with pytest.raises(ContractViolation, match="needs a finite argument"):
        li_n(2, z)


@pytest.mark.parametrize("controls", [{"tol": math.inf}, {"tol": math.nan},
                                      {"budget": 0}, {"tol": -5.0}])
def test_li_n_refuses_non_finite_tolerances_and_empty_budgets(controls):
    # li_n(2, 0.5, tol=inf) used to return a one-panel value as converged,
    # and tol=-5 the value of tol=0; a point small enough for the series
    # alone is refused the same way
    for z in (0.5, 1e-3):
        with pytest.raises(ContractViolation):
            li_n(2, z, **controls)


def test_li_n_refuses_start_states_of_another_shape():
    # li_n seeds its cached word through the engine's one start path,
    # which checks the shape of the start states
    path = li_n(2, 0.5).path
    with pytest.raises(ContractViolation, match="start states of shape"):
        polylogs._iterate_prepared(polylogs._li_batch(2), path, 1e-12,
                                   DEFAULT_BUDGET, start=[1.0, 0.0])


def test_li_n_waypoints_select_branches():
    straight = li_n(2, 0.5).value
    same = li_n(2, 0.5, via=[0.3 - 0.3j]).value
    assert abs(straight - same) < 1e-11
    looped = li_n(2, 0.5, via=[2 - 0.7j, 2 + 0.7j]).value
    assert abs((looped - straight) - 2j * math.pi * math.log(2)) < 1e-10


def test_li_n_reports_branched_values():
    v = li_n(2, 0.5)
    assert BranchedValue is IterIntResult
    assert isinstance(v, IterIntResult)
    assert isinstance(v.path, PathSpec)
    assert set(v.to_json_dict()) == {"value", "error", "panels",
                                     "depth_exceeded"}


def test_named_functions_keep_the_convergence_flag(monkeypatch):
    # with no subdivision allowed, none of these integrals meets the
    # tolerance in one panel; each named function returns the engine's
    # result, flagged
    monkeypatch.setattr(iterint, "MAX_DEPTH", 0)
    path = PathSpec.line([[0.1, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]],
                         [[3.0, 0.2], [0.1, 2.0], [1.0, 1.2], [2.0, 3.5]])
    results = (li_n(2, 0.9), aomoto_a1(0, 1, -1, 2, via=[0.5 + 1j]),
               grassmannian_tate(2, path))
    for result in results:
        assert result.depth_exceeded is True
        assert result.to_json_dict()["depth_exceeded"] is True
        assert isinstance(result.path, PathSpec)


def test_li_n_prepares_each_word_once(monkeypatch):
    """li_n sweeps one cached word per n from each call's series values,
    with the result of a word prepared for that call alone."""
    from grasspoly import polylogs
    from grasspoly.iterint import dlog_letter, iterate_word

    rng = random.Random(165)
    points = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
              for _ in range(4)]
    results = {}
    for n in (1, 2, 3):
        word = ([dlog_letter((1, 2), coeff=-1)]
                + [dlog_letter((1, 3))] * (n - 1))
        for z in points:
            got = li_n(n, z)
            start = polylogs.LI_START_OFFSET * z
            alone = iterate_word(
                word, got.path, initial=[1.0 + 0j] + [
                    li_series(k, start) for k in range(1, n + 1)])
            assert (got.value, got.error, got.panels) == (
                alone.value, alone.error, alone.panels)
            results[n, z] = got

    def rebuilt(*args, **kwargs):
        raise AssertionError("the li_n word was prepared again")

    monkeypatch.setattr(polylogs, "_WordBatch", rebuilt)
    for (n, z), first in results.items():
        again = li_n(n, z)
        assert (again.value, again.error, again.panels) == (
            first.value, first.error, first.panels)
    assert polylogs._li_batch.cache_info().maxsize == 8


# ---------------------------------------------------------------------------
# the real dilogarithm variant


def test_rogers_zeros():
    for x in (-1.0, 0.5, 2.0):
        assert abs(rogers_l2(x)) < 1e-13


def test_rogers_offset_from_closed_form():
    rng = random.Random(602)
    for _ in range(10):
        x = rng.uniform(0.02, 0.98)
        assert abs(rogers_l2(x)
                   - (rogers_l2_closed_form(x) - math.pi ** 2 / 12)) < 1e-13
    with pytest.raises(ContractViolation):
        rogers_l2_closed_form(1.5)


def test_rogers_solves_its_differential_equation():
    h = 1e-6
    for x in (-3.0, -0.4, 0.3, 0.77, 1.6, 5.0):
        fd = (rogers_l2(x + h) - rogers_l2(x - h)) / (2 * h)
        assert abs(fd - rogers_l2_slope(x)) < 1e-8
    with pytest.raises(ContractViolation):
        rogers_l2_slope(0.0)


def test_rogers_reflection():
    for x in (0.1, 0.25, 0.5, 0.93):
        assert abs(rogers_l2(x) + rogers_l2(1 - x)) < 1e-13


def test_rogers_contracts():
    for bad in (0.0, 1.0, math.inf, math.nan):
        with pytest.raises(ContractViolation):
            rogers_l2(bad)


def test_rogers_five_term_random_rational_tuples():
    rng = random.Random(603)
    done = 0
    while done < 12:
        pts = [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
               for _ in range(5)]
        if len(set(pts)) != 5:
            continue
        ft = rogers_five_term(pts)
        assert set(ft) == {"sum", "epsilon", "predicted", "difference"}
        assert ft["epsilon"] in ("1/2", "-1/2")
        assert ft["difference"] < 1e-12
        done += 1


def test_five_term_drivers_refuse_booleans():
    # True was read as the point 1
    for driver in (rogers_five_term, l2g_five_term, epsilon_sign,
                   omit_cross_ratios):
        with pytest.raises(ContractViolation, match="not an exact scalar"):
            driver([True, 2, 3, 4, 5])
        with pytest.raises(ContractViolation, match="not an exact scalar"):
            driver([(1, False), 2, 3, 4, 5])


def test_epsilon_sign_counts_inversions():
    pts = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2),
           Fraction(9))
    assert epsilon_sign(pts) == Fraction(1, 2)
    swapped = (Fraction(5),) + pts[1:]
    sign = 1
    for i in range(5):
        for j in range(i + 1, 5):
            sign *= 1 if swapped[i] < swapped[j] else -1
    assert epsilon_sign(swapped) == Fraction(sign, 2)
    with pytest.raises(DegeneracyError):
        epsilon_sign((1, 1, 2, 3, 4))
    with pytest.raises(ContractViolation):
        epsilon_sign((GaussianRational(1, 1), 2, 3, 4, 5))
    with pytest.raises(ContractViolation):
        epsilon_sign((1, 2, 3))


# ---------------------------------------------------------------------------
# Bloch-Wigner


def test_bloch_wigner_vanishes_on_reals_and_flips_under_conjugation():
    rng = random.Random(604)
    assert bloch_wigner(2.5) == 0.0
    assert bloch_wigner(-7) == 0.0
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        assert abs(bloch_wigner(z.conjugate()) + bloch_wigner(z)) < 1e-13


def test_bloch_wigner_at_i_is_catalan():
    assert abs(bloch_wigner(1j) - float(mpmath.catalan)) < 1e-13


def test_bloch_wigner_five_term_vanishes():
    rng = random.Random(605)
    worst = 0.0
    for _ in range(20):
        pts = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
               for _ in range(5)]
        worst = max(worst, abs(bloch_wigner_five_term(pts)))
    assert worst < 1e-12


def test_bloch_wigner_contracts():
    with pytest.raises(ContractViolation):
        bloch_wigner(0)
    with pytest.raises(ContractViolation):
        bloch_wigner(1)
    with pytest.raises(DegeneracyError):
        bloch_wigner_five_term([0, 1, 2, 2, 3])
    with pytest.raises(ContractViolation):
        bloch_wigner_five_term([0, 1, 2, 3])


# ---------------------------------------------------------------------------
# configurations of the projective line


def test_omit_cross_ratios_are_the_five_quadruples():
    pts = [Fraction(0), Fraction(1), Fraction(3), Fraction(4), Fraction(6)]
    ratios = omit_cross_ratios(pts)
    assert len(ratios) == 5
    for k in range(5):
        rest = pts[:k] + pts[k + 1:]
        assert ratios[k] == cross_ratio(*rest)
        assert isinstance(ratios[k], Fraction)
    with pytest.raises(ContractViolation):
        omit_cross_ratios(pts[:4])
    # projective points with an infinity
    at_inf = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
    assert len(omit_cross_ratios(at_inf)) == 5


def test_l2g_is_rogers_of_the_cross_ratio():
    pts = (Fraction(0), Fraction(2), Fraction(5), Fraction(11))
    r = cross_ratio(*pts)
    assert l2g(*pts) == rogers_l2(r)
    with pytest.raises(DegeneracyError):
        l2g(0, 1, 0, 2)
    with pytest.raises(ContractViolation):
        l2g(GaussianRational(0, 1), 1, 2, 3)


def test_l2g_five_term_agrees_with_rogers_driver():
    pts = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2),
           Fraction(9))
    assert abs(l2g_five_term(pts) - rogers_five_term(pts)["sum"]) < 1e-14
    with pytest.raises(ContractViolation):
        l2g_five_term(pts[:3])


def test_l2g_family_matches_orientation_in_every_chamber():
    base = (0, 1, 2, 3, 4)
    vel = (0, 0, 3, 0, 0)
    vals = l2g_family_values(base, vel, samples=11)
    assert len(vals) == 11
    for j, v in enumerate(vals):
        t = Fraction(j, 10)
        pts = [Fraction(b) + t * w for b, w in zip(base, vel)]
        eps = epsilon_sign(pts)
        assert abs(v - (-float(eps) * math.pi ** 2 / 6)) < 1e-12
    # the family crosses two walls, so both chamber values appear
    assert max(vals) - min(vals) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)


def test_l2g_family_constant_when_crossing_free():
    # every velocity moves its point by less than half the minimal gap,
    # so the order of the five points never changes on [0, 1]
    vel = (Fraction(1, 3), Fraction(-1, 4), 0, Fraction(2, 5),
           Fraction(-1, 3))
    vals = l2g_family_values((0, 1, 2, 3, 4), vel, samples=7)
    assert max(vals) - min(vals) < 1e-12
    with pytest.raises(ContractViolation):
        l2g_family_values((0, 1, 2), (1, 1, 1), samples=5)
    with pytest.raises(ContractViolation):
        l2g_family_values((0, 1, 2, 3, 4), (0,) * 5, samples=1)


# _old_omit_one, _old_alternating_sum and the _old_* drivers are the
# five-term drivers before the shared pair table, kept verbatim as the
# oracle (but for the names of the kept helpers): one cross_ratio in
# Fraction or GaussianRational arithmetic per quadruple, and epsilon from
# exact scalar products.


def _old_omit_one(points, convert, fn):
    """[fn(*quadruple omitting point k) for k in 0..4] of exactly five
    points, each converted first; the quadruples keep the surviving points
    in their original order."""
    pts = [convert(p) for p in points]
    if len(pts) != 5:
        raise ContractViolation("need exactly 5 points")
    return [fn(*pts[:k], *pts[k + 1:]) for k in range(5)]


def _old_alternating_sum(values):
    """values[0] - values[1] + values[2] - ..., summed in order."""
    total = 0.0
    for k, val in enumerate(values):
        total += val if k % 2 == 0 else -val
    return total


def _old_omit_cross_ratios(points):
    return _old_omit_one(points, _as_point, cross_ratio)


def _old_epsilon_sign(points):
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


def _old_rogers_five_term(points):
    def real_rogers(r):
        if isinstance(r, GaussianRational):
            raise ContractViolation("rogers five-term needs real points")
        return rogers_l2(Fraction(r))

    total = _old_alternating_sum(map(real_rogers,
                                     _old_omit_cross_ratios(points)))
    eps = _old_epsilon_sign(points)
    predicted = -float(eps) * math.pi ** 2 / 6
    return {
        "sum": total,
        "epsilon": str(eps),
        "predicted": predicted,
        "difference": abs(total - predicted),
    }


def _old_l2g(x1, x2, x3, x4):
    r = cross_ratio(_as_point(x1), _as_point(x2), _as_point(x3),
                    _as_point(x4))
    if isinstance(r, GaussianRational):
        raise ContractViolation("l2g needs a real configuration")
    r = Fraction(r)
    if r in (0, 1):
        raise DegeneracyError("degenerate cross-ratio")
    return rogers_l2(r)


def _old_l2g_five_term(points):
    return _old_alternating_sum(_old_omit_one(points, _as_point, _old_l2g))


FIVE_TERM_DRIVERS = [
    (omit_cross_ratios, _old_omit_cross_ratios),
    (epsilon_sign, _old_epsilon_sign),
    (rogers_five_term, _old_rogers_five_term),
    (l2g_five_term, _old_l2g_five_term),
]


def _five_term_outcome(driver, points):
    """The driver's value with the type of each entry, or the type and
    text of its refusal."""
    try:
        value = driver(points)
    except (ContractViolation, DegeneracyError) as exc:
        return type(exc), str(exc)
    entries = value if isinstance(value, list) else [value]
    return value, [type(v) for v in entries]


def _seeded_five_tuples():
    """Seeded 5-tuples: integers and rationals from small ranges (so that
    points coincide and cross-ratios degenerate), projective pairs (with
    points at infinity and zero vectors), Gaussian rationals (some of them
    real) and mixtures of all four."""
    rng = random.Random(2709)

    def integer():
        return rng.randint(-4, 4)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    def pair():
        return (rng.randint(-2, 2), rng.randint(-2, 2))

    def gaussian():
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                rng.randint(-1, 1))

    kinds = (integer, rational, pair, gaussian)
    tuples = [[kind() for _ in range(5)] for kind in kinds for _ in range(60)]
    tuples += [[rng.choice(kinds)() for _ in range(5)] for _ in range(120)]
    return tuples + [
        [0, 1, 3, 4, 6],
        [1, 1, 2, 3, 4],  # coincident points
        [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)],  # a point at infinity
        [(0, 0), 1, 2, 3, 4],  # a zero vector
        [0, 0, 1, 2, GaussianRational(0, 1)],  # coincident before complex
        [GaussianRational(1, 1), 2, 3, 4, 5],
        [0, 1, GaussianRational(1, 1), 3, 3],  # complex before coincident
        [True, 2, 3, 4, 5],
    ]


def test_five_term_drivers_match_the_per_quadruple_formulas():
    # every value, with the type of each cross-ratio, and every refusal,
    # with its type and text, is the former drivers'; the refusals raised
    # first are the same when a tuple has several faults
    outcomes = set()
    for points in _seeded_five_tuples():
        for driver, oracle in FIVE_TERM_DRIVERS:
            want = _five_term_outcome(oracle, points)
            got = _five_term_outcome(driver, points)
            assert got == want, (driver.__name__, points)
            outcomes.add(want if isinstance(want[0], type) else "value")
    assert "value" in outcomes
    assert {(DegeneracyError, "cross-ratio denominator vanishes"),
            (DegeneracyError, "points 0 and 1 coincide"),
            (DegeneracyError, "degenerate cross-ratio"),
            (ContractViolation, "orientation needs real points"),
            (ContractViolation, "rogers five-term needs real points"),
            (ContractViolation, "l2g needs a real configuration"),
            (ContractViolation, "rogers_l2 is singular at 0, 1, infinity"),
            } <= outcomes, outcomes


# ---------------------------------------------------------------------------
# weight-1 pairing by integral


def test_aomoto_a1_is_a_logarithm():
    v = aomoto_a1(0, 1, 2, 3)
    expected = cross_ratio(Fraction(1), Fraction(0), Fraction(3),
                           Fraction(2))
    assert abs(v.value - math.log(float(expected))) < 1e-11


def test_aomoto_a1_equal_endpoints_give_zero():
    assert aomoto_a1(0, 1, 2, 2).value == 0


def test_aomoto_a1_pole_and_detour():
    with pytest.raises(PoleError):
        aomoto_a1(0, 1, -1, 2)
    v = aomoto_a1(0, 1, -1, 2, via=[0.5 + 1j])
    assert abs(v.value - math.log(0.25)) < 1e-11


# ---------------------------------------------------------------------------
# the general-degree period


def test_grassmannian_tate_runs_and_validates():
    base = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]]
    target = [[1.1, 0.02], [0.03, 1.05], [0.95, 1.1], [2.1, 3.2]]
    path = PathSpec.line(base, target)
    v = grassmannian_tate(2, path)
    assert isinstance(v, BranchedValue)
    deformed = path.deform(seed=12, amplitude=0.02)
    w = grassmannian_tate(2, deformed)
    assert abs(v.value - w.value) < 1e-9

    with pytest.raises(ContractViolation):
        grassmannian_tate(5, path)
    with pytest.raises(PathError):
        grassmannian_tate(3, path)
    with pytest.raises(PathError):
        grassmannian_tate(2, "path")


def detour(start, end, lift):
    """Polyline start -> midpoint + i * lift -> end."""
    a, b, c = (np.array(m, dtype=complex) for m in (start, end, lift))
    return PathSpec.from_points([a, 0.5 * (a + b) + 1j * c, b])


# Values computed by the per-word sweep that the prefix-trie sweep
# replaced (the trie gave bit-identical values on these paths).  The panel
# counts are those of the automaton sweep, whose panel acceptance reads
# the automaton's states and the element's value, with the steps that
# fail from their letters split unswept (31 and 93 panels when every step
# was swept).
TATE_DETOURS = [
    (2, ([[2, 1], [-1, 3], [1, -2], [3, 2]],
         [[1, 3], [2, -1], [-3, 1], [1, 4]],
         [[1, -1], [2, 1], [-1, 1], [1, 2]]),
     0.0002766022348366093 - 0.1826417774060568j, 21),
    (3, ([[2, 1, 0], [-1, 3, 1], [1, -2, 2], [3, 2, -1], [0, 1, 4],
          [1, 1, 4]],
         [[1, 3, -1], [2, -1, 1], [-3, 1, 2], [1, 4, 0], [2, 0, 1],
          [-1, 2, 3]],
         [[1, -1, 0], [0, 1, 1], [-1, 1, 0], [1, 0, -1], [0, 1, 1],
          [1, 0, 1]]),
     78.42749650995977 + 68.43828293749301j, 65),
]


@pytest.mark.parametrize("n, points, recorded, panels", TATE_DETOURS,
                         ids=["n2", "n3"])
def test_grassmannian_tate_matches_recorded_values(n, points, recorded,
                                                   panels):
    path = detour(*points)
    first = grassmannian_tate(n, path)
    assert abs(first.value - recorded) < 1e-12
    assert first.panels == panels
    # the second call reuses the cached element and gives the same result
    again = grassmannian_tate(n, path)
    assert (again.value, again.error, again.panels) == (
        first.value, first.error, first.panels)
    # any other element is integrated by iterate_element, as given
    from grasspoly.elements import build_element

    override = iterint.iterate_element(2 * build_element(n).tensor, path)
    assert override.value == 2 * first.value
    assert override.error == 2 * first.error
    assert override.panels == first.panels


@pytest.mark.parametrize("n, points", [d[:2] for d in TATE_DETOURS],
                         ids=["n2", "n3"])
def test_grassmannian_tate_matches_the_per_word_sweep(n, points,
                                                      per_word_sum):
    from grasspoly.elements import build_element

    path = detour(*points)
    result = grassmannian_tate(n, path)
    oracle = per_word_sum(build_element(n).tensor, path)
    assert abs(result.value - oracle) <= result.error


# A generic degree-4 detour: every 4 x 4 minor of both ends is a nonzero
# integer.  The value is the per-word sweep's (iterate_words on the
# element's 40320 words at tol 1e-10, summed with their coefficients,
# which takes about 3 s), against which the automaton is checked.
TATE_DETOUR_4 = (
    [[2, 3, 0, -2], [2, -2, -3, -2], [-1, -1, -2, -2], [1, 0, 1, 3],
     [3, -3, 2, -1], [2, 1, -3, 3], [3, 3, -3, -2], [1, 0, -3, 3]],
    [[-3, -1, -2, 2], [1, -3, -1, 3], [3, 3, -3, 3], [-1, -3, 2, -3],
     [-3, 3, -3, -1], [3, -2, -2, -1], [2, 1, -1, -2], [0, 0, -1, 1]],
    [[-1, 1, 0, -1], [1, 1, 0, 0], [0, 0, 0, 0], [0, -1, -1, 1],
     [0, -1, 1, 0], [-1, -1, -1, 0], [0, 1, 1, 1], [-1, -1, 0, 0]])
PER_WORD_4 = -93.52056714073937 + 93.67591465300856j


def test_grassmannian_tate_degree_four_matches_the_per_word_sweep():
    path = detour(*TATE_DETOUR_4)
    result = grassmannian_tate(4, path, tol=1e-10)
    assert result.panels == 69  # 97 when every step was swept
    assert abs(result.value - PER_WORD_4) <= result.error
    assert abs(result.value - PER_WORD_4) < 1e-11


def test_grassmannian_tate_prepares_the_default_batch_once(monkeypatch):
    from grasspoly import iterint
    from grasspoly.elements import build_element

    path = detour(*TATE_DETOURS[1][1])
    first = grassmannian_tate(3, path)

    def rebuilt(*args, **kwargs):
        raise AssertionError("the cached element's automaton was rebuilt")

    monkeypatch.setattr(iterint._Automaton, "__init__", rebuilt)
    again = grassmannian_tate(3, path)
    assert (again.value, again.error, again.panels) == (
        first.value, first.error, first.panels)
    # iterate_element prepares its own automaton
    with pytest.raises(AssertionError, match="rebuilt"):
        iterint.iterate_element(build_element(3).tensor, path)
    monkeypatch.undo()
    override = iterint.iterate_element(build_element(3).tensor, path)
    assert (override.value, override.error, override.panels) == (
        first.value, first.error, first.panels)


# ---------------------------------------------------------------------------
# degree 2: the numeric Grassmannian function is twice the Rogers dilogarithm


def _det2(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _bracket_value(cfg, symbol):
    i, j = symbol[1]
    return _det2(cfg[i - 1], cfg[j - 1])


def _r_value(cfg):
    """The cross-ratio r = D13 D24 / (D14 D23) of four 2-vectors."""
    d = {ij: _det2(cfg[ij[0] - 1], cfg[ij[1] - 1])
         for ij in ((1, 3), (2, 4), (1, 4), (2, 3))}
    return d[1, 3] * d[2, 4] / (d[1, 4] * d[2, 3])


def mp_rogers_r(r):
    """R(r) = Re Li2(r) + (1/2) log|r| log|1 - r| at 30 digits."""
    r = mpmath.mpf(r)
    return (mpmath.re(mpmath.polylog(2, r))
            + mpmath.log(abs(r)) * mpmath.log(abs(1 - r)) / 2)


def degree_two_factor(tensor):
    """The exact f with grassmannian_tate(2, path) + base = f (R(r1) - R(r0))
    on real pole-free paths, derived from the element, not fitted.

    The element is lam times half the alternation of D12 ^ D13, with
    a ^ b = a (x) b - b (x) a, and that half alternation expands to
    (1 - r) ^ r (the sign of 1 - r = -D12 D34 / (D14 D23) is dropped, as
    only |1 - r| enters on real paths).  The first slot is integrated first,
    so a (x) b contributes int log|a| dlog|b| once the base term is added
    back, and (1 - r) ^ r gives int log|1 - r| dlog|r| - log|r| dlog|1 - r|
    = -2 dR.  Hence f = -2 lam.
    """
    from grasspoly.tensors import alt, bracket_symbol, equal, tensor_of_slots

    def d(i, j):
        return bracket_symbol((i, j))[0]

    def wedge(a, b):
        return tensor_of_slots([a, b]) - tensor_of_slots([b, a])

    half_alt = Fraction(1, 2) * alt(
        lambda p: wedge([(d(p[0] + 1, p[1] + 1), 1)],
                        [(d(p[0] + 1, p[2] + 1), 1)]), 4)
    one_minus_r = [(d(1, 2), 1), (d(3, 4), 1), (d(2, 3), -1), (d(1, 4), -1)]
    r = [(d(1, 3), 1), (d(2, 4), 1), (d(2, 3), -1), (d(1, 4), -1)]
    assert equal(half_alt, wedge(one_minus_r, r))
    slots = next(iter(half_alt.terms))
    lam = Fraction(tensor.coefficient(slots)) / half_alt.coefficient(slots)
    assert equal(tensor, lam * half_alt)
    return -2 * lam


def _segment_keeps_signs(a, b):
    """No bracket of the four 2-vectors vanishes on the segment a -> b:
    each is a quadratic in s with the same sign at both ends and at an
    interior vertex."""
    for i in range(4):
        for j in range(i + 1, 4):
            da = [y - x for x, y in zip(a[i], b[i])]
            db = [y - x for x, y in zip(a[j], b[j])]
            c0 = _det2(a[i], a[j])
            c1 = _det2(a[i], db) + _det2(da, a[j])
            c2 = _det2(da, db)
            values = [c0, c0 + c1 + c2]
            if c2 != 0 and 0 < -c1 / (2 * c2) < 1:
                values.append(c0 - c1 * c1 / (4 * c2))
            if min(values) * max(values) <= 0:
                return False
    return True


def real_paths_by_chamber(per_chamber, seed):
    """Seeded real polylines of four general 2-vectors, on which no bracket
    vanishes, grouped by the chamber of r; every third path has two
    segments."""
    rng = random.Random(seed)
    paths = {"r<0": [], "0<r<1": [], "r>1": []}

    def step(cfg):
        return [[v + rng.uniform(-0.6, 0.6) for v in row] for row in cfg]

    while min(map(len, paths.values())) < per_chamber:
        start = [[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(4)]
        points = [start, step(start)]
        if sum(map(len, paths.values())) % 3 == 2:
            points.append(step(points[-1]))
        if not all(map(_segment_keeps_signs, points, points[1:])):
            continue
        r = _r_value(start)
        chamber = "r<0" if r < 0 else "0<r<1" if r < 1 else "r>1"
        if len(paths[chamber]) < per_chamber:
            paths[chamber].append(points)
    return paths


def degree_two_defect(points, tensor, factor, element=None):
    """Relative defect of grassmannian_tate(2) + base = factor * dR, with
    the base term sum c_ab log|a(x0)| (log|b(x1)| - log|b(x0)|) taken from
    the element's own coefficients; another `element` replaces the
    window element's integral by its iterate_element."""
    x0, x1 = points[0], points[-1]
    base = sum(float(c) * math.log(abs(_bracket_value(x0, a)))
               * (math.log(abs(_bracket_value(x1, b)))
                  - math.log(abs(_bracket_value(x0, b))))
               for (a, b), c in tensor.terms.items())
    path = PathSpec.from_points(points)
    value = (grassmannian_tate(2, path) if element is None
             else iterint.iterate_element(element, path)).value
    expected = float(factor * (mp_rogers_r(_r_value(x1))
                               - mp_rogers_r(_r_value(x0))))
    return abs(value + base - expected) / abs(expected)


def test_degree_two_tate_is_twice_the_rogers_dilogarithm():
    from grasspoly.elements import build_element, flip_first_term

    tensor = build_element(2).tensor
    factor = degree_two_factor(tensor)
    assert factor == 2
    paths = real_paths_by_chamber(20, seed=614)
    assert any(len(p) == 3 for chamber in paths.values() for p in chamber)
    for chamber, chamber_paths in paths.items():
        worst = max(degree_two_defect(p, tensor, factor)
                    for p in chamber_paths)
        assert worst <= 1e-11, chamber
        # the identity pins the element: a scaled or sign-flipped one,
        # integrated by iterate_element, breaks it
        first = chamber_paths[0]
        for wrong in (Fraction(3, 2) * tensor, flip_first_term(tensor)):
            assert degree_two_defect(first, tensor, factor,
                                     element=wrong) > 1e-6, chamber
