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

from grasspoly.configurations import GaussianRational, cross_ratio
from grasspoly.errors import (ContractViolation, DegeneracyError, PathError,
                              PoleError)
from grasspoly.iterint import PathSpec
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


def test_li_n_contracts():
    with pytest.raises(ContractViolation):
        li_n(0, 0.5)
    with pytest.raises(ContractViolation):
        li_n(2, 0)
    with pytest.raises(ContractViolation):
        li_n(1, 1.0 + 1e-12)


def test_li_n_waypoints_select_branches():
    straight = li_n(2, 0.5).value
    same = li_n(2, 0.5, via=[0.3 - 0.3j]).value
    assert abs(straight - same) < 1e-11
    looped = li_n(2, 0.5, via=[2 - 0.7j, 2 + 0.7j]).value
    assert abs((looped - straight) - 2j * math.pi * math.log(2)) < 1e-10


def test_li_n_reports_branched_values():
    v = li_n(2, 0.5)
    assert isinstance(v, BranchedValue)
    assert isinstance(v.path, PathSpec)
    assert set(v.to_json_dict()) == {"value", "error", "panels"}


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
        grassmannian_tate(4, path)
    with pytest.raises(PathError):
        grassmannian_tate(3, path)
    with pytest.raises(PathError):
        grassmannian_tate(2, "path")
    with pytest.raises(ContractViolation):
        grassmannian_tate(2, path, element="tensor")


def detour(start, end, lift):
    """Polyline start -> midpoint + i * lift -> end."""
    a, b, c = (np.array(m, dtype=complex) for m in (start, end, lift))
    return PathSpec.from_points([a, 0.5 * (a + b) + 1j * c, b])


# Values computed by the per-word sweep that the prefix-trie sweep
# replaced; the two give bit-identical results on these paths.  The panel
# counts are those of the trie sweep, which evaluates no panel twice.
TATE_DETOURS = [
    (2, ([[2, 1], [-1, 3], [1, -2], [3, 2]],
         [[1, 3], [2, -1], [-3, 1], [1, 4]],
         [[1, -1], [2, 1], [-1, 1], [1, 2]]),
     0.0002766022348366093 - 0.1826417774060568j, 50),
    (3, ([[2, 1, 0], [-1, 3, 1], [1, -2, 2], [3, 2, -1], [0, 1, 4],
          [1, 1, 4]],
         [[1, 3, -1], [2, -1, 1], [-3, 1, 2], [1, 4, 0], [2, 0, 1],
          [-1, 2, 3]],
         [[1, -1, 0], [0, 1, 1], [-1, 1, 0], [1, 0, -1], [0, 1, 1],
          [1, 0, 1]]),
     78.42749650995977 + 68.43828293749301j, 142),
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
    # an explicit element override is integrated as given
    from grasspoly.elements import build_element

    override = grassmannian_tate(n, path, element=2 * build_element(n).tensor)
    assert override.value == 2 * first.value


def test_grassmannian_tate_prepares_the_default_batch_once(monkeypatch):
    from grasspoly import iterint
    from grasspoly.elements import build_element

    path = detour(*TATE_DETOURS[1][1])
    first = grassmannian_tate(3, path)

    def rebuilt(*args, **kwargs):
        raise AssertionError("the cached element's word batch was rebuilt")

    monkeypatch.setattr(iterint, "_WordBatch", rebuilt)
    again = grassmannian_tate(3, path)
    assert (again.value, again.error, again.panels) == (
        first.value, first.error, first.panels)
    # an element override prepares its own batch
    with pytest.raises(AssertionError, match="rebuilt"):
        grassmannian_tate(3, path, element=build_element(3).tensor)
    monkeypatch.undo()
    override = grassmannian_tate(3, path, element=build_element(3).tensor)
    assert (override.value, override.error, override.panels) == (
        first.value, first.error, first.panels)
