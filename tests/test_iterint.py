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

from grasspoly.errors import (BudgetError, ContractViolation, PathError,
                              PoleError)
from grasspoly.iterint import (_NODES, PHASE_JUMP_LIMIT, POLE_THRESHOLD,
                               IterIntResult, PathSpec, _fit_brackets,
                               _letter_values, _PhaseJump, _WordBatch,
                               dlog_letter, homotopy_test, iterate_element,
                               iterate_word, iterate_words, monodromy_probe,
                               normalize_letter, normalize_word,
                               shuffle_test, shuffles)
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


def test_words_with_different_initial_rows_never_merge():
    # the same word twice; the rows differ at level 1 and at level 2
    log2 = math.log(2)
    word = (W1, W1)
    initial = np.array([[1.0, 0.0, 0.0], [1.0, 0.5, 0.0], [1.0, 0.0, 0.25]])
    results = iterate_words([word] * 3, zline(1, 2), initial=initial)
    expected = [log2 ** 2 / 2, log2 ** 2 / 2 + 0.5 * log2,
                log2 ** 2 / 2 + 0.25]
    for r, want, row in zip(results, expected, initial):
        assert abs(r.value - want) < 1e-12
        alone = iterate_word(word, zline(1, 2), initial=row)
        assert abs(r.value - alone.value) < 1e-12


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


def _det_solve_letter_values(seg, svals, batch):
    """Values of every letter at the given s positions: (nodes, letters).

    One det and one solve cover every bracket at every node.  A bracket
    whose modulus drops below POLE_THRESHOLD raises PoleError; one whose
    value turns by more than PHASE_JUMP_LIMIT between adjacent nodes
    raises _PhaseJump.  Of several offending brackets the first in
    `batch.symbols` is reported, and its modulus is checked before its
    phase.
    """
    deg = seg.shape[0] - 1
    m, powers = _configurations(seg, svals)
    if deg >= 1:
        dcoef = seg[1:] * np.arange(1, deg + 1)[:, None, None]
        mp = np.einsum("dcx,du->ucx", dcoef, powers[:deg])
    else:
        mp = np.zeros_like(m)
    values = np.zeros((len(svals), len(batch.symbols)), dtype=complex)
    if batch.bracket_syms:
        a = m[:, batch.brackets, :]
        det = np.linalg.det(a)
        small = np.abs(det).min(axis=0)
        turns = np.abs(np.angle(det[1:] / det[:-1])).max(axis=0)
        bad = (small < POLE_THRESHOLD) | (turns > PHASE_JUMP_LIMIT)
        if bad.any():
            b = int(bad.argmax())
            sym = batch.symbols[batch.bracket_syms[b]]
            if small[b] < POLE_THRESHOLD:
                raise PoleError(
                    f"bracket {symbol_to_str(sym)} modulus {small[b]:.3e} "
                    f"below {POLE_THRESHOLD:g} on the path")
            raise _PhaseJump(sym, float(turns[b]))
        values[:, batch.bracket_syms] = np.trace(
            np.linalg.solve(a, mp[:, batch.brackets, :]), axis1=2, axis2=3)
    return values @ batch.coef


def _panel_nodes(sa, sb):
    return 0.5 * (sa + sb) + 0.5 * (sb - sa) * _NODES


def _letter_batch(dim, count):
    """One-letter words over every bracket of `count` vectors in dimension
    `dim`: each bracket alone, multi-part letters with int, Fraction and
    complex coefficients, a scalar letter and a bracket-and-scalar
    letter."""
    brackets = [bracket_symbol(c)[0]
                for c in combinations(range(1, count + 1), dim)]
    a, b, c = brackets[0], brackets[1], brackets[-1]
    t = scalar_symbol("t")
    letters = [((1, sym),) for sym in brackets] + [
        ((2, a), (-1, b)),
        ((Fraction(1, 3), b), (Fraction(-5, 2), c)),
        ((0.5 - 1.5j, a), (2j, c), (-3, b)),
        ((1, t),),
        ((4, c), (Fraction(7, 2), t)),
    ]
    return _WordBatch([(letter,) for letter in letters], dim, count)


def _outcome(letters, *args):
    try:
        return letters(*args)
    except _PhaseJump as exc:
        return exc.sym


def _assert_letters_match(seg, svals, batch):
    """The series letters agree with the det/solve letters to 1e-12 of
    each letter's size, or both refuse the panel for the same bracket."""
    old = _outcome(_det_solve_letter_values, seg, svals, batch)
    new = _outcome(_letter_values, _fit_brackets(seg, batch), svals, batch)
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
        batch = _letter_batch(dim, count)
        for deg in (0, 1, 2, 3):
            for _ in range(4):
                seg = (rng.standard_normal((deg + 1, count, dim))
                       + 1j * rng.standard_normal((deg + 1, count, dim)))
                sa = rng.uniform(0.0, 0.9)
                sb = sa + rng.uniform(0.01, 0.1)
                old = _assert_letters_match(seg, _panel_nodes(sa, sb), batch)
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
    batch = _letter_batch(dim, count)
    seg = (rng.standard_normal((4, count, dim))
           + 1j * rng.standard_normal((4, count, dim)))
    s0 = 0.37 + 1e-3j
    at = np.einsum("dcx,d->cx", seg, s0 ** np.arange(4))
    seg[0, 0] += 0.3 * at[1] - 0.8 * at[2] - at[0]
    for sb in (0.36, 0.368, 0.3695):
        svals = _panel_nodes(0.3, sb)
        old = _assert_letters_match(seg, svals, batch)
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
        batch = _WordBatch([(((1, first),),), (((1, second),),)], 2, 4)
        fit = _fit_brackets(seg, batch)
        if first == pole:
            with pytest.raises(PoleError) as old:
                _det_solve_letter_values(seg, svals, batch)
            with pytest.raises(PoleError) as new:
                _letter_values(fit, svals, batch)
            assert str(new.value) == str(old.value)
            assert str(new.value).startswith("bracket D[1,3] modulus 0.000e+00")
        else:
            with pytest.raises(_PhaseJump) as old:
                _det_solve_letter_values(seg, svals, batch)
            with pytest.raises(_PhaseJump) as new:
                _letter_values(fit, svals, batch)
            assert new.value.sym == old.value.sym == jump
            assert new.value.jump == pytest.approx(old.value.jump, rel=1e-9)


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
