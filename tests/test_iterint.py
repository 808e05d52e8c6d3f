"""Paths, words, and the adaptive iterated-integral engine.

Numeric oracles: closed-form logarithms (log(b/a), its powers over
factorials, branch-continued values for complex endpoints), a high-
precision mpmath quadrature for one genuinely mixed word, and the Chen
shuffle and loop-monodromy identities.
"""

import cmath
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest

from grasspoly import iterint
from grasspoly.errors import (BudgetError, ContractViolation, PathError,
                              PoleError)
from grasspoly.iterint import (DEFAULT_BUDGET, GAUSS_ORDER,
                               PHASE_JUMP_LIMIT, POLE_THRESHOLD,
                               IterIntResult, PathSpec,
                               _Automaton, _chebder, _chebvander, _Engine,
                               _fit_brackets, _fit_tables, _LetterTable,
                               _letter_values, _PhaseJump, _quadrature,
                               _WordBatch, dlog_letter, homotopy_test,
                               iterate_element, iterate_word, iterate_words,
                               monodromy_probe, normalize_letter,
                               normalize_word, shuffle_test, shuffles)
from grasspoly.tensors import (MultTensor, bracket_symbol, scalar_symbol,
                               symbol_to_str)

W1 = dlog_letter((1,))
W2 = dlog_letter((2,))


def zline(a, b):
    """Straight path of the single coordinate z from a to b."""
    return PathSpec.line([[complex(a)]], [[complex(b)]])


# ---------------------------------------------------------------------------
# paths


def test_path_construction_and_sampling():
    p = PathSpec.from_points([[[1.0]], [[2.0]], [[4.0]]])
    assert len(p.segments) == 2
    assert (p.count, p.dim) == (1, 1)
    assert p.point(0.0)[0, 0] == 1.0
    assert p.point(0.5)[0, 0] == 2.0
    assert p.point(1.0)[0, 0] == 4.0
    assert p.point(0.25)[0, 0] == pytest.approx(1.5)
    assert np.allclose(p.start(), [[1.0]])
    assert np.allclose(p.end(), [[4.0]])
    assert not p.is_closed()
    with pytest.raises(PathError):
        p.point(1.5)
    with pytest.raises(PathError):
        p.point(-0.1)


def test_path_contracts():
    with pytest.raises(PathError):
        PathSpec([])
    with pytest.raises(PathError):
        PathSpec([np.zeros((2, 3))])
    with pytest.raises(PathError):
        PathSpec.from_points([[[1.0]]])
    with pytest.raises(PathError):
        PathSpec.from_points([[[1.0]], [[1.0, 2.0]]])
    with pytest.raises(PathError):
        # discontinuous joint
        PathSpec([np.array([[[1.0]], [[1.0]]]),
                  np.array([[[5.0]], [[1.0]]])])
    with pytest.raises(PathError):
        zline(0, 1).then("not a path")
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(PathError, match="must be finite"):
            PathSpec([np.array([[[1.0]], [[bad]]])])
    with pytest.raises(AttributeError):
        zline(0, 1).segments = ()


def test_polygon_closes():
    loop = PathSpec.polygon([[[1.0]], [[1j]], [[-1.0]], [[-1j]]])
    assert loop.is_closed()
    assert len(loop.segments) == 4
    with pytest.raises(PathError):
        PathSpec.polygon([[[1.0]]])


def test_reverse_retraces_the_path():
    p = PathSpec.from_points([[[1.0, 2.0]], [[2.0, 1.0]], [[3.0, 5.0]]])
    q = p.reverse()
    for t in (0.0, 0.125, 0.5, 0.75, 1.0):
        assert np.allclose(p.point(t), q.point(1.0 - t))
    bumped = p.deform(seed=1, amplitude=0.1)
    rb = bumped.reverse()
    for t in (0.0, 0.3, 0.9):
        assert np.allclose(bumped.point(t), rb.point(1.0 - t))


def test_then_concatenates():
    a = zline(1, 2)
    b = zline(2, 5)
    c = a.then(b)
    assert len(c.segments) == 2
    assert c.point(0.5)[0, 0] == 2.0
    with pytest.raises(PathError):
        a.then(zline(3, 4))


def test_deform_fixes_endpoints_and_moves_interior():
    p = PathSpec.from_points([[[1.0], [2.0]], [[3.0], [4.0]]])
    d = p.deform(seed=7, amplitude=0.1)
    assert np.allclose(d.start(), p.start())
    assert np.allclose(d.end(), p.end())
    assert not np.allclose(d.point(0.5), p.point(0.5))
    d1 = p.deform(seed=7, amplitude=0.1)
    assert np.allclose(d.point(0.37), d1.point(0.37))
    mask = np.array([[1.0], [0.0]])
    dm = p.deform(seed=7, amplitude=0.1, mask=mask)
    assert np.allclose(dm.point(0.5)[1], p.point(0.5)[1])
    assert not np.allclose(dm.point(0.5)[0], p.point(0.5)[0])
    with pytest.raises(PathError):
        p.deform(seed=7, mask=np.ones((3, 3)))


def test_path_json_round_trip():
    p = PathSpec.from_points([[[1.0, 2.0]], [[2.0, 1.0]]]).deform(seed=3)
    q = PathSpec.from_json_dict(p.to_json_dict())
    assert len(q.segments) == len(p.segments)
    for t in (0.0, 0.25, 0.8, 1.0):
        assert np.allclose(p.point(t), q.point(t))
    with pytest.raises(PathError):
        PathSpec.from_json_dict({"segments": [{"degree": 2, "coeffs": []}]})
    with pytest.raises(PathError):
        PathSpec.from_json_dict({"nope": 1})
    with pytest.raises(PathError):
        PathSpec.from_json_dict({"segments": [{"degree": 0,
                                               "coeffs": "junk"}]})


# ---------------------------------------------------------------------------
# letters and words


def test_normalize_letter_forms():
    sym = bracket_symbol((1,))[0]
    assert normalize_letter(sym) == ((1, sym),)
    assert normalize_letter((2.5, sym)) == ((2.5, sym),)
    assert normalize_letter([(1, sym), (-1j, sym)]) == ((1, sym), (-1j, sym))
    with pytest.raises(ContractViolation):
        normalize_letter([])
    with pytest.raises(ContractViolation):
        normalize_letter([("x", sym)])
    with pytest.raises(ContractViolation):
        normalize_word([])
    assert dlog_letter((1, 2), coeff=-2) == ((-2, bracket_symbol((1, 2))[0]),)


def test_shuffles_enumeration():
    a = ("x", "y")
    b = ("u", "v", "w")
    mixed = list(shuffles(a, b))
    assert len(mixed) == math.comb(5, 2)
    assert len(set(mixed)) == len(mixed)
    for word in mixed:
        assert len(word) == 5
        assert tuple(l for l in word if l in a) == a
        assert tuple(l for l in word if l in b) == b


# ---------------------------------------------------------------------------
# single integrals against closed forms


def test_dlog_integral_is_the_log_of_the_ratio():
    r = iterate_word([W1], zline(1, 3))
    assert abs(r.value - math.log(3)) < 1e-12
    assert r.error < 1e-10
    assert r.panels >= 3
    assert not r.depth_exceeded


def test_repeated_letter_gives_log_powers_over_factorials():
    word = [W1, W1, W1, W1]
    results = iterate_words([word[:k] for k in range(1, 5)], zline(1, 2))
    for k, r in enumerate(results, start=1):
        assert abs(r.value - math.log(2) ** k / math.factorial(k)) < 1e-12
    # all words share one sweep
    assert len({r.panels for r in results}) == 1


def test_scalar_letters_integrate_to_zero():
    word = [((1, scalar_symbol("a")),), W1]
    r = iterate_word(word, zline(1, 2))
    assert r.value == 0


def test_mixed_word_against_mpmath_quadrature():
    # coordinates (z, z - 5) walked from z = 2 to 3; the word integrates
    # log((5-z)/3) against d log z
    path = PathSpec.line([[2.0], [-3.0]], [[3.0], [-2.0]])
    r = iterate_word((W2, W1), path)
    mpmath.mp.dps = 30
    oracle = complex(mpmath.quad(
        lambda z: mpmath.log((5 - z) / 3) / z, [2, 3]))
    assert abs(r.value - oracle) < 1e-12


def test_complex_endpoints_follow_the_continued_branch():
    d = 1e-3
    a, b = complex(-1, d), complex(1, d)
    r = iterate_word([W1], zline(a, b))
    assert abs(r.value - (cmath.log(b) - cmath.log(a))) < 1e-10


def test_reverse_negates_single_integrals():
    p = zline(1, 7)
    fwd = iterate_word([W1], p).value
    bwd = iterate_word([W1], p.reverse()).value
    assert abs(fwd + bwd) < 1e-12


def test_path_composition_chains_prefixes():
    p1 = zline(1, 2)
    p2 = zline(2, 5)
    word = [W1, W1, W1]
    whole = iterate_word(word, p1.then(p2)).value
    prefixes = [word[:k] for k in range(1, 4)]
    first = iterate_words(prefixes, p1)
    initial = np.array([1.0 + 0j] + [r.value for r in first])
    resumed = iterate_word(word, p2, initial=initial).value
    assert abs(whole - resumed) < 1e-12
    with pytest.raises(ContractViolation):
        iterate_word(word, p2, initial=np.zeros(7))


# ---------------------------------------------------------------------------
# failure modes


def test_pole_on_the_path_is_detected():
    with pytest.raises(PoleError):
        iterate_word([W1], zline(0, 1))


def test_symmetric_crossing_is_detected_despite_cancellation():
    # the integrand is odd around the zero, so plain sampling converges
    # to 0; the phase monitor must still refuse
    with pytest.raises(PoleError):
        iterate_word([W1], zline(-1, 1))


def test_crossing_line_is_a_pole_not_a_budget_error():
    # the straight line between random_generic(2, 4, seed="a", bound=5) and
    # seed="b": D[1,2], D[2,3] and D[2,4] change sign on it
    from grasspoly.elements import build_element

    start = [[-5, -2], [3, -4], [4, 5], [4, -2]]
    end = [[2, 0], [-5, -4], [-2, -1], [-5, 4]]
    with pytest.raises(PoleError, match=r"D\[1,2\].* s = 0\.65"):
        iterate_element(build_element(2).tensor, PathSpec.line(start, end),
                        budget=64)


FAULT_B = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "inputs", "fault_b.json")


def test_near_pole_path_converges_at_rounding_level():
    # a deformation on which D[1,2,6] dips to |D| = 0.057; at tol 1e-12 the
    # acceptance test must not ask for less than double rounding
    from grasspoly.polylogs import grassmannian_tate

    with open(FAULT_B, encoding="utf-8") as fh:
        fault = json.load(fh)

    def path(raw):
        return PathSpec([[[[complex(re, im) for re, im in row]
                           for row in level] for level in seg]
                         for seg in raw])

    base = grassmannian_tate(3, path(fault["path"]), tol=1e-12)
    deformed = grassmannian_tate(3, path(fault["deformed"]), tol=1e-12,
                                 budget=1000)
    assert abs(deformed.value - base.value) < 1e-9


def test_budget_exhaustion():
    with pytest.raises(BudgetError):
        iterate_word([W1], zline(1, 3), budget=2)


@pytest.mark.parametrize("controls, message", [
    ({"tol": math.nan}, "tolerance nan is not finite"),
    ({"tol": math.inf}, "tolerance inf is not finite"),
    ({"budget": 0}, "panel budget 0 is below one panel"),
    ({"tol": -1.0}, "tolerance -1.0 is negative"),
])
def test_engine_refuses_non_finite_tolerances_and_empty_budgets(controls,
                                                                 message):
    # before, a NaN tolerance accepted no panel and spent the whole
    # budget, an infinite one took a one-panel value as converged, a
    # zero budget was reported as exhausted, and a negative tolerance
    # ran as 0
    t = MultTensor.from_terms(1, [((bracket_symbol((1,))[0],), 1)])
    for run in (lambda: iterate_word([W1], zline(1, 3), **controls),
                lambda: iterate_words([[W1], [W1, W1]], zline(1, 3),
                                      **controls),
                lambda: iterate_element(t, zline(1, 3), **controls)):
        with pytest.raises(ContractViolation, match=message):
            run()


def test_a_zero_tolerance_asks_for_the_rounding_floor():
    res = iterate_word([W1], zline(1, 3), tol=0.0)
    assert abs(res.value - math.log(3)) < 1e-14
    assert not res.depth_exceeded


@pytest.mark.parametrize("letter", [
    ((math.nan, bracket_symbol((1,))[0]),),
    ((complex(1.0, math.inf), bracket_symbol((1,))[0]),),
    ((1, bracket_symbol((1,))[0]), (-math.inf, scalar_symbol("t"))),
])
def test_non_finite_letter_coefficients_are_refused(letter):
    with pytest.raises(ContractViolation, match="is not finite"):
        iterate_word([W1, letter], zline(1, 3))


def test_word_and_path_mismatches():
    with pytest.raises(PathError):
        iterate_word([W1], "not a path")
    with pytest.raises(ContractViolation):
        iterate_words([], zline(1, 2))
    with pytest.raises(ContractViolation):
        iterate_word([dlog_letter((1, 2))], zline(1, 2))
    with pytest.raises(ContractViolation):
        iterate_word([dlog_letter((4,))], zline(1, 2))


def test_element_contracts():
    with pytest.raises(ContractViolation):
        iterate_element("tensor", zline(1, 2))
    with pytest.raises(ContractViolation):
        iterate_element(MultTensor.zero(2), zline(1, 2))


def test_result_json_shape():
    r = iterate_word([W1], zline(1, 3))
    d = r.to_json_dict()
    assert set(d) == {"value", "error", "panels", "depth_exceeded"}
    assert d["depth_exceeded"] is False
    assert d["value"] == [r.value.real, r.value.imag]
    assert isinstance(r, IterIntResult)


def test_shared_prefixes_match_words_integrated_alone():
    # (z, z - 5) from z = 0.1 to 3: W1 = d log z, W2 = d log(z - 5)
    path = PathSpec.from_points([[[0.1], [-4.9]], [[1.5 + 0.5j], [-3.5]],
                                 [[3.0], [-2.0]]])
    words = [(W1, W2, W1), (W1, W2, W2), (W1, W1), (W2,), (W1, W2)]
    batch = _WordBatch(words, path.dim, path.count)
    # one root, prefixes W1 and W2, then W1W2 and W1W1, then two leaves
    assert len(batch.f0) == 1 + 2 + 2 + 2
    shared = iterate_words(words, path)
    alone = [iterate_word(w, path) for w in words]
    for s, a in zip(shared, alone):
        assert abs(s.value - a.value) < 1e-12
    # with a tolerance every panel pair meets, the panels coincide, so the
    # per-word error estimates (about 1e-6 here) agree to rounding
    shared = iterate_words(words, path, tol=1e3)
    alone = [iterate_word(w, path, tol=1e3) for w in words]
    for s, a in zip(shared, alone):
        assert s.panels == a.panels == 3 * len(path.segments)
        assert abs(s.value - a.value) < 1e-14
        assert s.error == pytest.approx(a.error, rel=1e-9, abs=1e-15)


def test_initial_rows_seed_a_word_to_its_closed_form():
    # d log z twice from 1 to 2, from rows that differ at level 1 and at
    # level 2: a start row (1, u, v) ends at log2^2 / 2 + u log2 + v
    log2 = math.log(2)
    for u, v in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.25), (0.5j, -1.0)):
        got = iterate_word((W1, W1), zline(1, 2), initial=[1.0, u, v])
        assert abs(got.value - (log2 ** 2 / 2 + u * log2 + v)) < 1e-12
    with pytest.raises(ContractViolation, match="start states of shape"):
        iterate_word((W1, W1), zline(1, 2), initial=[[1.0, 0.0, 0.0]])


def test_start_states_enter_every_layout_through_run():
    # a start vector of the sweep's shape replaces `f0`; any other shape
    # is refused before a panel is swept
    from grasspoly.elements import build_element

    path = PathSpec.line(SAFE_BASE, SAFE_TARGET)
    automaton = _Automaton(build_element(2).tensor, 2, 4)
    engine = _Engine(automaton, path, 1e-12, DEFAULT_BUDGET)
    assert engine.run(automaton.f0.tolist()) == _Engine(
        automaton, path, 1e-12, DEFAULT_BUDGET).run()
    words = _WordBatch([[dlog_letter((1, 2))] * 2], 2, 4)
    for states in (automaton, words):
        engine = _Engine(states, path, 1e-12, DEFAULT_BUDGET)
        with pytest.raises(ContractViolation, match="start states of shape"):
            engine.run(np.ones(len(states.f0) + 1))
        assert engine.panels == 0


# ---------------------------------------------------------------------------
# letters from the fitted bracket series against det/solve letters
#
# _configurations and _det_solve_letter_values are the engine's former
# letter evaluation (a det, a solve and a trace on every panel), kept
# verbatim as the oracle.


def _configurations(seg, svals):
    """Segment matrices at the given s positions, (points, count, dim),
    and the powers of s used to form them."""
    powers = svals[None, :] ** np.arange(seg.shape[0])[:, None]
    return np.einsum("dcx,du->ucx", seg, powers), powers


def _det_solve_letter_values(seg, svals, letters):
    """Values of every letter at the given s positions: (nodes, letters).

    One det and one solve cover every bracket at every node.  A bracket
    whose modulus drops below POLE_THRESHOLD raises PoleError; one whose
    value turns by more than PHASE_JUMP_LIMIT between adjacent nodes
    raises _PhaseJump.  Of several offending brackets the first in
    `letters.symbols` is reported, and its modulus is checked before its
    phase.
    """
    deg = seg.shape[0] - 1
    m, powers = _configurations(seg, svals)
    if deg >= 1:
        dcoef = seg[1:] * np.arange(1, deg + 1)[:, None, None]
        mp = np.einsum("dcx,du->ucx", dcoef, powers[:deg])
    else:
        mp = np.zeros_like(m)
    values = np.zeros((len(svals), len(letters.symbols)), dtype=complex)
    if letters.symbols:
        a = m[:, letters.brackets, :]
        det = np.linalg.det(a)
        small = np.abs(det).min(axis=0)
        turns = np.abs(np.angle(det[1:] / det[:-1])).max(axis=0)
        bad = (small < POLE_THRESHOLD) | (turns > PHASE_JUMP_LIMIT)
        if bad.any():
            b = int(bad.argmax())
            sym = letters.symbols[b]
            if small[b] < POLE_THRESHOLD:
                raise PoleError(
                    f"bracket {symbol_to_str(sym)} modulus {small[b]:.3e} "
                    f"below {POLE_THRESHOLD:g} on the path")
            raise _PhaseJump(sym, float(turns[b]))
        values = np.trace(
            np.linalg.solve(a, mp[:, letters.brackets, :]), axis1=2, axis2=3)
    return values @ letters.coef


def _panel_nodes(sa, sb):
    return 0.5 * (sa + sb) + 0.5 * (sb - sa) * _quadrature()[0]


def _letters(dim, count):
    """Letters over every bracket of `count` vectors in dimension `dim`:
    each bracket alone, multi-part letters with int, Fraction and complex
    coefficients, a scalar letter and a bracket-and-scalar letter."""
    brackets = [bracket_symbol(c)[0]
                for c in combinations(range(1, count + 1), dim)]
    a, b, c = brackets[0], brackets[1], brackets[-1]
    t = scalar_symbol("t")
    return [((1, sym),) for sym in brackets] + [
        ((2, a), (-1, b)),
        ((Fraction(1, 3), b), (Fraction(-5, 2), c)),
        ((0.5 - 1.5j, a), (2j, c), (-3, b)),
        ((1, t),),
        ((4, c), (Fraction(7, 2), t)),
    ]


def _letter_table(dim, count):
    """The table of one-letter words over `_letters(dim, count)`."""
    return _LetterTable(_letters(dim, count), dim, count)


def _panel_letters(fit, svals, letters):
    """`_letter_values` of one panel, raising the panel's failure."""
    values, failure = _letter_values(fit, svals[None], letters)
    if failure is not None:
        raise failure[1]
    return values[0]


def _outcome(letters, *args):
    try:
        return letters(*args)
    except _PhaseJump as exc:
        return exc.sym


def _assert_letters_match(seg, svals, letters):
    """The series letters agree with the det/solve letters to 1e-12 of
    each letter's size, or both refuse the panel for the same bracket."""
    old = _outcome(_det_solve_letter_values, seg, svals, letters)
    new = _outcome(_panel_letters, _fit_brackets(seg, letters), svals, letters)
    if isinstance(old, tuple):
        assert new == old
        return None
    scale = np.abs(old).max(axis=0)
    assert np.all(np.abs(new - old) <= 1e-12 * scale)
    return old


def test_series_letters_match_det_solve_letters():
    rng = np.random.default_rng(20260)
    compared = 0
    for dim in (1, 2, 3):
        count = dim + 2
        letters = _letter_table(dim, count)
        for deg in (0, 1, 2, 3):
            for _ in range(4):
                seg = (rng.standard_normal((deg + 1, count, dim))
                       + 1j * rng.standard_normal((deg + 1, count, dim)))
                sa = rng.uniform(0.0, 0.9)
                sb = sa + rng.uniform(0.01, 0.1)
                old = _assert_letters_match(seg, _panel_nodes(sa, sb), letters)
                if old is not None:
                    compared += 1
                    if deg == 0:
                        assert not old.any()
    assert compared >= 40


def test_series_letters_match_near_a_bracket_zero():
    # D[1,2,3] of a random degree-3 path in dimension 3 is moved to vanish
    # at the complex s0 = 0.37 + 1e-3 i; panels ending short of Re s0 put
    # their last nodes within a few thousandths of the zero, the last one
    # within 2e-3
    rng = np.random.default_rng(7)
    dim, count = 3, 5
    letters = _letter_table(dim, count)
    seg = (rng.standard_normal((4, count, dim))
           + 1j * rng.standard_normal((4, count, dim)))
    s0 = 0.37 + 1e-3j
    at = np.einsum("dcx,d->cx", seg, s0 ** np.arange(4))
    seg[0, 0] += 0.3 * at[1] - 0.8 * at[2] - at[0]
    for sb in (0.36, 0.368, 0.3695):
        svals = _panel_nodes(0.3, sb)
        old = _assert_letters_match(seg, svals, letters)
        assert old is not None
    assert np.abs(svals - s0).min() < 2e-3
    assert np.abs(old[:, 0]).max() > 500


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_series_letters_report_the_same_offender():
    # vectors (1, 0), (0, 1), (1, 0), (2s - 1 + 0.01i, 1): D[1,3] is zero
    # everywhere, and D[2,4] = -(2s - 1 + 0.01i) turns by nearly pi
    # between the nodes next to s = 1/2
    seg = np.array([[[1, 0], [0, 1], [1, 0], [-1 + 0.01j, 1]],
                    [[0, 0], [0, 0], [0, 0], [2, 0]]], dtype=complex)
    svals = _panel_nodes(0.0, 1.0)
    pole, jump = (bracket_symbol(b)[0] for b in ((1, 3), (2, 4)))
    for first, second in ((pole, jump), (jump, pole)):
        letters = _LetterTable([((1, first),), ((1, second),)], 2, 4)
        fit = _fit_brackets(seg, letters)
        if first == pole:
            with pytest.raises(PoleError) as old:
                _det_solve_letter_values(seg, svals, letters)
            with pytest.raises(PoleError) as new:
                _panel_letters(fit, svals, letters)
            assert str(new.value) == str(old.value)
            assert str(new.value).startswith("bracket D[1,3] modulus 0.000e+00")
        else:
            with pytest.raises(_PhaseJump) as old:
                _det_solve_letter_values(seg, svals, letters)
            with pytest.raises(_PhaseJump) as new:
                _panel_letters(fit, svals, letters)
            assert new.value.sym == old.value.sym == jump
            assert new.value.jump == pytest.approx(old.value.jump, rel=1e-9)


@pytest.mark.parametrize("deg", range(13))
def test_chebvander_is_numpys_bit_for_bit(deg):
    rng = np.random.default_rng(deg)
    real = rng.uniform(-1.0, 1.0, 17)
    points = {"real": real,
              "complex": real + 1j * rng.uniform(-1.0, 1.0, 17),
              "matrix": rng.uniform(-1.0, 1.0, (3, 5))}
    for x in points.values():
        want = np.polynomial.chebyshev.chebvander(x, deg)
        got = _chebvander(x, deg)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert np.array_equal(got, want)


@pytest.mark.parametrize("deg", range(13))
def test_chebder_is_numpys_bit_for_bit(deg):
    rng = np.random.default_rng(100 + deg)
    real = rng.uniform(-1.0, 1.0, deg + 1)
    series = {"real": real,
              "complex": real + 1j * rng.uniform(-1.0, 1.0, deg + 1),
              "matrix": rng.uniform(-1.0, 1.0, (deg + 1, 5))
              + 1j * rng.uniform(-1.0, 1.0, (deg + 1, 5))}
    for c in series.values():
        kept = c.copy()
        want = np.polynomial.chebyshev.chebder(c, scl=2.0)
        got = _chebder(c)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(c, kept)  # the input is left as it was


def test_fit_tables_are_shared_read_only_and_bounded():
    assert 0 < _fit_tables.cache_info().maxsize < 1000
    powers, vander = _fit_tables(6, 3)
    assert _fit_tables(6, 3)[1] is vander  # built once
    x = np.cos(np.pi * (np.arange(7) + 0.5) / 7)
    assert np.array_equal(powers, (0.5 * (x + 1.0)) ** np.arange(4)[:, None])
    assert np.array_equal(vander, np.polynomial.chebyshev.chebvander(x, 6))
    for table in (powers, vander):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0


def test_lazy_tables_and_constants_equal_their_eager_definitions():
    """The quadrature tables, built on first use, and the scalar
    constants, written without numpy, are the exact values of the former
    import-time numpy definitions (reproduced here) at GAUSS_ORDER."""
    order = GAUSS_ORDER
    x, w = np.polynomial.legendre.leggauss(order)
    vander = np.polynomial.legendre.legvander(x, order)
    m = np.arange(order)
    coef = ((2 * m[:, None] + 1) / 2.0) * w[None, :] * vander[:, :order].T
    anti = np.empty((order, order))
    anti[:, 0] = x + 1.0
    for mm in range(1, order):
        anti[:, mm] = (vander[:, mm + 1] - vander[:, mm - 1]) / (2 * mm + 1)
    qmat = anti @ coef
    eager = (x, w, qmat, np.ascontiguousarray(qmat.T))
    assert _quadrature() is _quadrature()  # built once
    for table, value in zip(_quadrature(), eager, strict=True):
        assert not table.flags.writeable
        assert table.dtype == value.dtype and np.array_equal(table, value)
    assert PHASE_JUMP_LIMIT == np.pi / 2
    assert iterint._ROUNDING_FLOOR == 16 * np.finfo(float).eps


def test_quadrature_is_exact_on_polynomials_of_its_degree():
    # on [-1, 1], Q takes x^k at the nodes to its antiderivative vanishing
    # at -1 for every degree k below the node count (and no further), and
    # the weights integrate x^k exactly up to degree 2 * GAUSS_ORDER - 1
    x, w, qmat, prefix = _quadrature()
    assert len(x) == len(w) == GAUSS_ORDER
    assert np.array_equal(prefix, qmat.T)

    def antiderivative(k):
        return (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)

    for k in range(GAUSS_ORDER):
        assert np.abs(qmat @ x ** k - antiderivative(k)).max() < 1e-14, k
    assert np.abs(qmat @ x ** GAUSS_ORDER
                  - antiderivative(GAUSS_ORDER)).max() > 1e-12
    for k in range(2 * GAUSS_ORDER):
        assert abs(w @ x ** k - (1 - (-1.0) ** (k + 1)) / (k + 1)) < 1e-14, k


# ---------------------------------------------------------------------------
# the batched step against the serial engine
#
# _serial_fit_brackets, _serial_letter_values and _SerialEngine are the
# engine's former segment fit, letter evaluation and adaptive step (one
# letter evaluation per panel), kept verbatim as the oracle, but for the
# names of the kept helpers.


def _serial_fit_brackets(seg, letters):
    """Every bracket of the letter table on one segment as a Chebyshev
    series in x = 2s - 1, and its derivative in s: two (terms, brackets)
    arrays.

    A bracket is a polynomial in s of degree at most dim * deg, so its
    values at that many plus one Chebyshev points, taken by one batched
    det, fix the series.  (A monomial fit is ill-conditioned at degree 9
    near a zero; the Chebyshev-Vandermonde matrix at Chebyshev points is
    a scaled orthogonal one.)
    """
    top = seg.shape[2] * (seg.shape[0] - 1)
    x = np.cos(np.pi * (np.arange(top + 1) + 0.5) / (top + 1))
    powers = (0.5 * (x + 1.0)) ** np.arange(seg.shape[0])[:, None]
    m = np.einsum("dcx,du->ucx", seg, powers)
    series = np.linalg.solve(_chebvander(x, top),
                             np.linalg.det(m[:, letters.brackets, :]))
    return series, np.polynomial.chebyshev.chebder(series, scl=2.0)


def _serial_letter_values(fit, svals, letters):
    """Values of every letter at the given s positions: (nodes, letters).

    `fit` is the segment's `_fit_brackets`; the d log of a bracket P is
    P'/P, both read off the series at the nodes.  A bracket whose modulus
    drops below POLE_THRESHOLD raises PoleError; one whose value turns by
    more than PHASE_JUMP_LIMIT between adjacent nodes raises _PhaseJump.
    Of several offending brackets the first in `letters.symbols` is
    reported, and its modulus is checked before its phase.
    """
    series, slopes = fit
    vander = _chebvander(2.0 * svals - 1.0, len(series) - 1)
    vals = vander @ series
    small = np.abs(vals).min(axis=0)
    turns = np.abs(np.angle(vals[1:] / vals[:-1])).max(axis=0)
    bad = (small < POLE_THRESHOLD) | (turns > PHASE_JUMP_LIMIT)
    if bad.any():
        b = int(bad.argmax())
        sym = letters.symbols[b]
        if small[b] < POLE_THRESHOLD:
            raise PoleError(
                f"bracket {symbol_to_str(sym)} modulus {small[b]:.3e} "
                f"below {POLE_THRESHOLD:g} on the path")
        raise _PhaseJump(sym, float(turns[b]))
    return (vander[:, :len(slopes)] @ slopes / vals) @ letters.coef


def test_fit_is_the_serial_fit_bit_for_bit():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3):
        count = dim + 2
        letters = _letter_table(dim, count)
        for deg in (0, 1, 2, 3):
            seg = (rng.standard_normal((deg + 1, count, dim))
                   + 1j * rng.standard_normal((deg + 1, count, dim)))
            for got, want in zip(_fit_brackets(seg, letters),
                                 _serial_fit_brackets(seg, letters),
                                 strict=True):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _failure_key(exc):
    return (type(exc), str(exc),
            (exc.sym, exc.jump) if isinstance(exc, _PhaseJump) else None)


def _assert_batch_matches_serial(fit, svals, letters):
    """The batched letters of the panels at `svals` are the serial ones
    bit for bit, up to the first panel that fails, whose exception is the
    serial one; returns that panel's index, or None."""
    values, failure = _letter_values(fit, svals, letters)
    for i, panel in enumerate(svals):
        try:
            want = _serial_letter_values(fit, panel, letters)
        except (PoleError, _PhaseJump) as exc:
            assert len(values) == failure[0] == i
            assert _failure_key(failure[1]) == _failure_key(exc)
            return i
        assert values[i].tobytes() == want.tobytes()
    assert failure is None and len(values) == len(svals)
    return None


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_batched_letters_match_panel_by_panel():
    # runs of one to four panels on segments with a bracket zero near or
    # on them, and a run whose second panel has a node on a zero of D[1,3]
    rng = np.random.default_rng(5)
    dim, count = 2, 4
    letters = _letter_table(dim, count)
    segments = [np.array([[[1, 0], [0, 1], [1, 0], [-1 + 0.01j, 1]],
                          [[0, 0], [0, 0], [0, 0], [2, 0]]], dtype=complex)]
    for im in (1.0, 1e-3, 0.0):
        segments.append(rng.uniform(-2.0, 2.0, (3, count, dim))
                        + im * 1j * rng.uniform(-2.0, 2.0, (3, count, dim)))
    failed = []
    for seg in segments:
        fit = _fit_brackets(seg, letters)
        for _ in range(30):
            ends = np.sort(rng.uniform(0.0, 1.0, (rng.integers(1, 5), 2)))
            svals = np.array([_panel_nodes(a, b) for a, b in ends])
            failed.append(_assert_batch_matches_serial(fit, svals, letters))
    assert sum(i is not None for i in failed) >= 10
    assert any(i is not None and i > 0 for i in failed)
    # vectors (1, 0), (0, 1), (1, s - s0), (1, 1): D[1,3] = s - s0 with s0
    # a node of [0.5, 0.75]
    svals = np.array([_panel_nodes(0.0, 0.5), _panel_nodes(0.5, 0.75),
                      _panel_nodes(0.75, 1.0)])
    s0 = svals[1, 5]
    seg = np.array([[[1, 0], [0, 1], [1, -s0], [1, 1]],
                    [[0, 0], [0, 0], [0, 1], [0, 0]]], dtype=complex)
    fit = _fit_brackets(seg, letters)
    assert _assert_batch_matches_serial(fit, svals, letters) == 1
    _, (_, exc) = _letter_values(fit, svals, letters)
    assert isinstance(exc, PoleError)
    assert str(exc).startswith("bracket D[1,3] modulus")


class _SerialEngine(_Engine):
    """The engine with one letter evaluation per panel."""

    def _panel(self, fit, sa, sb, f_a, lv=None):
        """One sweep over [sa, sb] from the states f_a: returns the states
        at sb and the letter values used, which lv supplies when the
        caller already has them.  Every sweep counts as a panel against
        the budget."""
        self.panels += 1
        if self.panels > self.budget:
            raise BudgetError(
                f"panel budget {self.budget} exhausted; the path may pass "
                "too close to a pole or the tolerance is too tight")
        hh = 0.5 * (sb - sa)
        if lv is None:
            lv = _serial_letter_values(
                fit, 0.5 * (sa + sb) + hh * _quadrature()[0],
                self.states.letters)
        return self.states.sweep(lv, f_a, hh), lv

    def _advance(self, fit, sa, sb, f_a, depth, whole=None, lv=None):
        """Integrate [sa, sb] from f_a, comparing the whole panel with its
        two halves and splitting until they agree.  A split hands the left
        half down as the left child's whole panel (same interval, same
        start states) and the right half's letter values to the right
        child, so no panel is evaluated twice."""
        mid = 0.5 * (sa + sb)
        left = None
        try:
            if whole is None:
                whole, _ = self._panel(fit, sa, sb, f_a, lv)
            left, _ = self._panel(fit, sa, mid, f_a)
            halves, lv_right = self._panel(fit, mid, sb, left)
        except _PhaseJump as exc:
            if depth >= iterint.MAX_DEPTH:
                raise PoleError(
                    f"bracket {symbol_to_str(exc.sym)} turns by "
                    f"{exc.jump:.2f} rad between adjacent nodes at full "
                    f"subdivision depth; the path crosses or grazes a "
                    f"zero of the bracket") from None
            if not self.roots_checked:
                self.roots_checked = True
                iterint._check_segment_roots(fit, self.states.letters,
                                             self.segment)
            f_mid = self._advance(fit, sa, mid, f_a, depth + 1, whole=left)
            return self._advance(fit, mid, sb, f_mid, depth + 1)
        diff = np.abs(whole - halves)
        scale = max(1.0, float(np.abs(halves).max()))
        limit = max(self.tol * (sb - sa), iterint._ROUNDING_FLOOR) * scale
        converged = bool(diff.max() <= limit)
        if converged or depth >= iterint.MAX_DEPTH:
            if not converged:
                self.depth_exceeded = True
            self.err += self.states.errors(diff)
            return halves
        f_mid = self._advance(fit, sa, mid, f_a, depth + 1, whole=left)
        return self._advance(fit, mid, sb, f_mid, depth + 1, lv=lv_right)

    def run(self, start=None):
        """Sweep the whole path from `start` (default: the states' own
        `f0`); returns the end values of the results.  Each segment's
        brackets are fitted once and the fit serves all its panels."""
        f = self.states.f0 if start is None else start
        letters = self.states.letters
        for index, seg in enumerate(self.path.segments):
            self.segment, self.roots_checked = index, False
            f = self._advance(_serial_fit_brackets(seg, letters), 0.0, 1.0,
                              f, 0)
        return self.states.ends(f)


def _run_engine(engine_class, states, path, tol, budget, start=None):
    """The ends, errors, panel count and depth flag of a run from `start`,
    or the type, text and panel count of its failure; floats by repr, so
    bit for bit."""
    engine = engine_class(states, path, tol, budget)
    try:
        ends = engine.run(start)
    except (PoleError, BudgetError) as exc:
        return type(exc).__name__, str(exc), engine.panels
    return (repr(ends.tolist()), repr(np.asarray(engine.err).tolist()),
            engine.panels, engine.depth_exceeded)


def _random_path(rng, count, dim, segments, kind):
    """A polyline through `segments` + 1 random configurations: complex,
    real (its brackets are real and often change sign) or near-real
    (imaginary parts of 1e-3, so zeros are grazed); deformed to degree 3
    half of the time."""
    def point():
        re = rng.uniform(-2.0, 2.0, (count, dim))
        im = {"complex": 1.0, "real": 0.0, "near-real": 1e-3}[kind]
        return re + im * 1j * rng.uniform(-2.0, 2.0, (count, dim))

    path = PathSpec.from_points([point() for _ in range(segments + 1)])
    if rng.random() < 0.5:
        path = path.deform(seed=int(rng.integers(1 << 30)), amplitude=0.3)
    return path


BUDGETS = (3, 4, 6, 10, 25, 64, 200, 1000, 16384)


def _oracle_cases():
    """(label, states, path, tol, budget, start) for the batched step; a
    third of the word cases start from random states, passed to `run`."""
    from grasspoly.elements import build_element

    rng = np.random.default_rng(1414)
    cases = []
    for dim in (1, 2):
        count = dim + 2
        letters = _letters(dim, count)
        for k in range(40):
            words = [tuple(letters[i] for i in rng.integers(
                len(letters), size=rng.integers(1, 4)))
                for _ in range(rng.integers(1, 5))]
            batch = _WordBatch(words, dim, count)
            f0 = None  # the sweep's own start states
            if k % 3 == 0:
                f0 = (rng.standard_normal(batch.f0.shape)
                      + 1j * rng.standard_normal(batch.f0.shape))
            path = _random_path(rng, count, dim, rng.integers(1, 5),
                                ("complex", "real", "near-real")[k % 3])
            cases.append((f"words {dim} {k}", batch, path,
                          rng.choice((1e-12, 1e-8, 1e-4)),
                          int(rng.choice(BUDGETS)), f0))
    automaton = _Automaton(build_element(2).tensor, 2, 4)
    for k in range(24):
        path = _random_path(rng, 4, 2, rng.integers(1, 5),
                            ("complex", "real", "near-real")[k % 3])
        cases.append((f"automaton {k}", automaton, path, 1e-12,
                      int(rng.choice(BUDGETS)), None))
    # straight crossings: z1 from -1 to 1 (dim 1) and the line of
    # test_crossing_line_is_a_pole_not_a_budget_error, on which D[1,2]
    # vanishes at s = 0.65 (dim 2), moved off the zero by i * offset
    line_words = _WordBatch([[W1], [W1, W2], [W2, W1, W1]], 1, 2)
    start = np.array([[-5, -2], [3, -4], [4, 5], [4, -2]], dtype=complex)
    end = np.array([[2, 0], [-5, -4], [-2, -1], [-5, 4]], dtype=complex)
    for offset in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4):
        for budget in BUDGETS:
            cases.append((f"line {offset} {budget}", line_words,
                          PathSpec.line([[-1 + 1j * offset], [1]],
                                        [[1 + 1j * offset], [2]]),
                          1e-12, budget, None))
            moved = start.copy()
            moved[0, 0] += 1j * offset
            cases.append((f"element line {offset} {budget}", automaton,
                          PathSpec.line(moved, end + moved - start), 1e-12,
                          budget, None))
    return cases


def _record_failures(monkeypatch):
    """Make the engine's letter evaluation record each failing run of
    panels as (failing panel, panels in the run, exception type name);
    returns the record."""
    failed_at = []

    def letter_values(fit, svals, letters):
        values, failure = _letter_values(fit, svals, letters)
        if failure is not None:
            failed_at.append((failure[0], len(svals),
                              type(failure[1]).__name__))
        return values, failure

    monkeypatch.setattr(iterint, "_letter_values", letter_values)
    return failed_at


def test_batched_step_matches_the_serial_engine(monkeypatch):
    # every outcome of the batched step is the serial engine's, bit for
    # bit; the cases reach each ending and the failing right half
    failed_at = _record_failures(monkeypatch)
    endings = {}
    for label, states, path, tol, budget, start in _oracle_cases():
        want = _run_engine(_SerialEngine, states, path, tol, budget, start)
        got = _run_engine(_Engine, states, path, tol, budget, start)
        assert got == want, label
        ending = want[0] if len(want) == 3 else (
            "depth" if want[3] else "value")
        endings[ending] = endings.get(ending, 0) + 1
    assert set(endings) >= {"value", "PoleError", "BudgetError"}, endings
    right_jumps = [f for f in failed_at
                   if f[0] == f[1] - 1 and f[2] == "_PhaseJump"]
    assert right_jumps, failed_at


def test_a_failing_right_half_keeps_the_swept_left_half(monkeypatch):
    # z = s - s0 - 1e-3 i with s0 = 0.717, a Gauss node of [0, 1]: the
    # whole panel passes the zero's projection in two turns below pi/2
    # and the left half stays away from it, but the right half's nodes
    # straddle it, so the first step's right half jumps.  Its left half,
    # swept before, must serve as the left child's whole panel: swept
    # again, it would add one panel.
    failed_at = _record_failures(monkeypatch)
    s0 = 0.5 + 0.5 * _quadrature()[0][15]
    path = zline(-s0 - 1e-3j, 1.0 - s0 - 1e-3j)
    states = _WordBatch([[W1], [W1, W1]], 1, 1)
    want = _run_engine(_SerialEngine, states, path, 1e-12, DEFAULT_BUDGET)
    got = _run_engine(_Engine, states, path, 1e-12, DEFAULT_BUDGET)
    assert failed_at[0] == (2, 3, "_PhaseJump")
    assert got == want and len(got) == 4


# ---------------------------------------------------------------------------
# the single sweep against the prefix trie's own sweep
#
# _TrieSweep.sweep, errors and ends are the prefix trie's former sweep and
# outputs, kept verbatim as the oracle, on the trie's former level layout.


class _TrieSweep:
    """The states of a `_WordBatch` in the trie's former layout:
    `levels[k-1]` is (slice of the level-k nodes, index of each one's
    parent among the level-(k-1) nodes, its letter column in `letters`),
    and `word_nodes` is the batch's `outputs`."""

    def __init__(self, batch):
        self.letters = batch.letters
        self.f0 = batch.f0
        self.levels = [(nodes, src, letter[pair])
                       for nodes, letter, _, [(_, src, pair)] in batch.levels]
        self.word_nodes = batch.outputs

    def sweep(self, lv, f_a, hh):
        """The node states at the end of a panel from those at its start
        f_a, given the letter values at its nodes and its half width."""
        _, weights, qmat, _ = _quadrature()
        f_b = f_a.copy()
        prev = f_a[:self.levels[0][0].start, None]
        for k, (nodes, parent, col) in enumerate(self.levels, start=1):
            g = lv[:, col].T * prev[parent]
            if k < len(self.levels):
                prev = f_a[nodes, None] + hh * (g @ qmat.T)
            f_b[nodes] = f_a[nodes] + hh * (g @ weights)
        return f_b

    def errors(self, diff):
        """Each word's share of a panel's |whole - halves|: the largest
        over its prefix nodes."""
        return diff[self.word_nodes].max(axis=1)

    def ends(self, f):
        """Each word's value from the node states."""
        return f[self.word_nodes[:, -1]]


def test_word_sweep_matches_the_trie_sweep():
    # the one sweep rounds the trie's end values differently (a column of
    # one product in place of a second product), so the values agree to
    # rounding; the panels, the failures and their texts are the same
    outcomes = set()
    for label, states, path, tol, budget, start in _oracle_cases():
        if not isinstance(states, _WordBatch):
            continue
        want = _Engine(_TrieSweep(states), path, tol, budget)
        got = _Engine(states, path, tol, budget)
        try:
            want_ends = want.run(start)
        except (PoleError, BudgetError) as exc:
            with pytest.raises(type(exc)) as raised:
                got.run(start)
            assert str(raised.value) == str(exc), label
            assert got.panels == want.panels, label
            outcomes.add(type(exc).__name__)
            continue
        ends = got.run(start)
        assert (got.panels, got.depth_exceeded) == (
            want.panels, want.depth_exceeded), label
        size = np.abs(want_ends).max()
        assert np.abs(ends - want_ends).max() <= 1e-14 * size, label
        assert np.abs(got.err - want.err).max() <= 1e-14 * size, label
        outcomes.add("value")
    assert outcomes == {"value", "PoleError", "BudgetError"}


# ---------------------------------------------------------------------------
# elements


SAFE_BASE = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]]
SAFE_TARGET = [[1.1, 0.02], [0.03, 1.05], [0.95, 1.1], [2.1, 3.2]]


def safe_element_path():
    return PathSpec.line(SAFE_BASE, SAFE_TARGET)


def test_safe_path_really_is_generic():
    for t in np.linspace(0.0, 1.0, 101):
        m = (1 - t) * np.array(SAFE_BASE) + t * np.array(SAFE_TARGET)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.linalg.det(m[[i, j]])) > 0.5


def test_iterate_element_is_the_weighted_sum_of_words():
    path = safe_element_path()
    t = MultTensor.from_terms(2, [
        ((bracket_symbol((1, 2))[0], bracket_symbol((1, 3))[0]), 2),
        ((bracket_symbol((2, 3))[0], bracket_symbol((1, 4))[0]), -3)])
    combined = iterate_element(t, path)
    manual = 0
    for slots, coeff in t.items_sorted():
        word = tuple(((1, sym),) for sym in slots)
        manual += complex(coeff) * iterate_word(word, path).value
    assert abs(combined.value - manual) < 1e-12


def automaton_sizes(automaton):
    """States per level below the last, and the entries of `final`."""
    return ([level[0].stop - level[0].start for level in automaton.levels],
            int(np.count_nonzero(automaton.final)))


def test_automaton_merges_negatively_proportional_fraction_suffixes(
        per_word_sum):
    # S_(a,b) = {c: 1/2, d: -1/3} and S_(e,b) = -3/2 S_(a,b), so the two
    # prefixes of length 2, and a and e before them, share one state each
    a, b, c, d, e = (bracket_symbol(ix)[0]
                     for ix in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)))
    t = MultTensor.from_terms(3, [
        ((a, b, c), Fraction(1, 2)), ((a, b, d), Fraction(-1, 3)),
        ((e, b, c), Fraction(-3, 4)), ((e, b, d), Fraction(1, 2))])
    automaton = _Automaton(t, 2, 4)
    assert automaton_sizes(automaton) == ([1, 1], 2)
    assert automaton.scale == 0.5
    # the root reaches the one level-1 state by a (weight 1) and e (-3/2)
    _, pair_letter, pair_weight, slots = automaton.levels[0]
    assert [size for size, _, _ in slots] == [1, 1]
    assert sorted(zip(pair_letter, pair_weight[:, 0])) == [(0, 1.0),
                                                         (4, -1.5)]
    path = safe_element_path()
    result = iterate_element(t, path)
    gap = abs(result.value - per_word_sum(t, path))
    assert gap <= result.error + 1e-15 and gap < 1e-13


def test_automaton_merges_suffixes_that_sum_to_zero(per_word_sum):
    # S_a = {b: 1, c: -1} sums to zero and S_d = 2 S_a; S_e = {b: 1, c: 1}
    # is a state of its own, so the level-1 states have in-degrees 2 and 1
    a, b, c, d, e = (bracket_symbol(ix)[0]
                     for ix in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)))
    t = MultTensor.from_terms(2, [
        ((a, b), 1), ((a, c), -1), ((d, b), 2), ((d, c), -2),
        ((e, b), 1), ((e, c), 1)])
    automaton = _Automaton(t, 2, 4)
    assert automaton_sizes(automaton) == ([2], 4)
    assert [size for size, _, _ in automaton.levels[0][3]] == [2, 1]
    path = safe_element_path()
    result = iterate_element(t, path)
    gap = abs(result.value - per_word_sum(t, path))
    assert gap <= result.error + 1e-15 and gap < 1e-13


def test_automaton_of_one_letter_words_and_of_scalar_letters(
        per_word_sum):
    from grasspoly.elements import build_element, scale_label

    # degree 1: no level between the root and E
    path = PathSpec.line([[1.0], [2.0]], [[3.0], [0.5 + 1j]])
    t = build_element(1).tensor
    result = iterate_element(t, path)
    assert abs(result.value - per_word_sum(t, path)) < 1e-14
    assert abs(result.value - (cmath.log(3) - cmath.log((0.5 + 1j) / 2))) \
        < 1e-13
    # a scalar letter has zero d log, so its words integrate to zero
    scaled = scale_label(build_element(2).tensor, 1, "a")
    path = safe_element_path()
    result = iterate_element(scaled, path)
    assert abs(result.value - per_word_sum(scaled, path)) < 1e-13
    assert abs(result.value - iterate_element(build_element(2).tensor,
                                              path).value) < 1e-13


def test_automaton_does_not_depend_on_term_order():
    from grasspoly.elements import build_element

    def layout(automaton):
        return (automaton.scale, automaton.final.tolist(),
                [(nodes, letter.tolist(), weight.tolist(),
                  [(size, src.tolist(), pair.tolist())
                   for size, src, pair in slots])
                 for nodes, letter, weight, slots in automaton.levels])

    t = build_element(3).tensor
    shuffled = list(t.terms.items())
    random.Random(5).shuffle(shuffled)
    assert layout(_Automaton(t, 3, 6)) == layout(
        _Automaton(MultTensor(3, dict(shuffled)), 3, 6))


@pytest.mark.parametrize("n, sizes", [(2, ([3], 12)), (3, ([20, 90], 360)),
                                      (4, ([70, 1120, 1260], 5040))])
def test_window_element_automaton_sizes(n, sizes):
    from grasspoly.polylogs import _window_terms

    assert automaton_sizes(_window_terms(n)) == sizes


# ---------------------------------------------------------------------------
# the identity probes


def test_homotopy_invariance_of_the_degree2_element():
    from grasspoly.elements import build_element

    report = homotopy_test(build_element(2).tensor, safe_element_path(),
                           deformations=2, amplitude=0.02, quad_tol=1e-10)
    assert report["status"] == "pass"
    assert report["spread"] < 1e-8
    assert len(report["values"]) == 3


def test_homotopy_flags_a_non_integrable_word():
    path = PathSpec.line([[1.0], [2.0]], [[3.0], [5.0]])
    report = homotopy_test((W1, W2), path, deformations=3)
    assert report["status"] == "fail"
    assert report["spread"] > 1e-4


def test_homotopy_of_single_letters_is_exact():
    path = PathSpec.line([[1.0], [2.0]], [[3.0], [5.0]])
    report = homotopy_test([W1], path, deformations=3)
    assert report["status"] == "pass"
    assert report["spread"] < 1e-12


@pytest.mark.parametrize("controls, message", [
    ({"deformations": 0}, "at least one deformation, not 0"),
    ({"deformations": -3}, "at least one deformation, not -3"),
    ({"amplitude": 0.0}, "nonzero amplitude"),
])
def test_homotopy_refuses_a_test_that_compares_nothing(controls, message):
    # before, each reported "pass" with spread 0: no deformation, or
    # deformations that are the path itself
    path = PathSpec.line([[1.0], [2.0]], [[3.0], [5.0]])
    with pytest.raises(ContractViolation, match=message):
        homotopy_test((W1, W2), path, **controls)


def test_shuffle_identity():
    path = PathSpec.line([[1.0], [2.0]], [[3.0], [5.0]])
    report = shuffle_test([W1], [W2], path)
    assert report["status"] == "pass"
    assert report["difference"] < 1e-12
    assert report["shuffles"] == 2

    longer = shuffle_test([W1, W2], [W2], path)
    assert longer["status"] == "pass"
    assert longer["difference"] < 1e-10
    assert longer["shuffles"] == 3


def test_monodromy_of_dlog_counts_winding():
    loop = PathSpec.polygon([[[1.0]], [[1j]], [[-1.0]], [[-1j]]])
    val = monodromy_probe([W1], loop)
    assert abs(val - 2j * math.pi) < 1e-10
    doubled = monodromy_probe([W1], loop.then(loop))
    assert abs(doubled - 4j * math.pi) < 1e-10
    reversed_val = monodromy_probe([W1], loop.reverse())
    assert abs(reversed_val + 2j * math.pi) < 1e-10


def test_monodromy_requires_a_closed_loop():
    with pytest.raises(PathError):
        monodromy_probe([W1], zline(1, 2))
    with pytest.raises(PathError):
        monodromy_probe([W1], "loop")


@pytest.mark.parametrize("probe", ["homotopy element", "homotopy word",
                                   "monodromy"])
def test_identity_probes_build_one_layout(monkeypatch, probe):
    # homotopy_test built a new layout for every deformation, 1 +
    # deformations in all, each through a public iterate_* function that
    # checked the path again; monodromy_probe also went through one
    from grasspoly.elements import build_element

    built = []

    def counted(init):
        def init_and_count(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return init_and_count

    def reentered(*args, **kwargs):
        raise AssertionError("a probe went through a public entry point")

    for cls in (_Automaton, _WordBatch):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    for name in ("iterate_element", "iterate_word", "iterate_words"):
        monkeypatch.setattr(iterint, name, reentered)
    if probe == "homotopy element":
        report = homotopy_test(build_element(2).tensor, safe_element_path(),
                               deformations=3, amplitude=0.02,
                               quad_tol=1e-10)
        assert report["status"] == "pass"
        assert built == ["_Automaton"]
    elif probe == "homotopy word":
        # the first deformation crosses the zero of D[1] and is resampled
        deform, deformed = PathSpec.deform, []

        def first_through_a_pole(path, *args, **kwargs):
            deformed.append(args)
            if len(deformed) == 1:
                return PathSpec.line([[-1.0], [2.0]], [[1.0], [5.0]])
            return deform(path, *args, **kwargs)

        monkeypatch.setattr(PathSpec, "deform", first_through_a_pole)
        path = PathSpec.line([[1.0], [2.0]], [[3.0], [5.0]])
        report = homotopy_test([W1], path, deformations=3)
        assert report["status"] == "pass"
        assert len(deformed) == 4
        assert built == ["_WordBatch"]
    else:
        loop = PathSpec.polygon([[[1.0]], [[1j]], [[-1.0]], [[-1j]]])
        assert abs(monodromy_probe([W1], loop) - 2j * math.pi) < 1e-10
        assert built == ["_WordBatch"]


# ---------------------------------------------------------------------------
# determinism across worker counts


def test_thread_count_does_not_change_values(monkeypatch):
    from grasspoly.elements import build_element

    path = safe_element_path()
    el = build_element(2).tensor

    def run():
        rep = homotopy_test(el, path, deformations=3, amplitude=0.02,
                            quad_tol=1e-10)
        return rep["values"], rep["spread"], rep["panels"]

    monkeypatch.setenv("GRASSPOLY_THREADS", "1")
    serial = run()
    monkeypatch.setenv("GRASSPOLY_THREADS", "4")
    threaded = run()
    assert serial == threaded
