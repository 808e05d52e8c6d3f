"""The sliding-window bracket element and its exact identity checks.

The degree-2 element is rebuilt here from scratch (itertools permutations,
local parity count, hand-rolled window slicing) and compared term by term
with the library's construction.  The identity checks are then exercised
in both directions: they pass on the honest element and fail on a
single-term mutation.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from grasspoly import elements
from grasspoly.elements import (GrassElement, Report, build_element,
                                check_comparison, check_integrability,
                                check_omission_relations,
                                check_scale_invariance,
                                check_steinberg_wedge, flip_first_term,
                                omission_residues, scale_label,
                                steinberg_wedge_sides,
                                _residue_sample, _scale_failures)
from grasspoly.aomoto import pairing_element_labels
from grasspoly.errors import ContractViolation
from grasspoly.tensors import (MultTensor, bracket_symbol, perms_with_signs,
                               scalar_symbol, _combine)

D1 = bracket_symbol((1,))[0]
D2 = bracket_symbol((2,))[0]


def sign_of(perm):
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def window_element_oracle(n, labels):
    """Independent rebuild: Alt over arrangements of the window tensor."""
    acc = {}
    for arr in itertools.permutations(labels):
        coeff = sign_of([labels.index(a) for a in arr])
        key = tuple(bracket_symbol(arr[k:k + n])[0] for k in range(n))
        acc[key] = acc.get(key, 0) + coeff
    return MultTensor(n, {k: v for k, v in acc.items() if v != 0})


# ---------------------------------------------------------------------------
# construction


def test_degree1_element_is_a_difference_of_logs():
    e = build_element(1)
    assert isinstance(e, GrassElement)
    assert (e.n, e.labels, e.prefix) == (1, (1, 2), ())
    assert e.tensor.arity == 1
    assert e.tensor.term_count == 2
    assert e.tensor.coefficient((D1,)) == 1
    assert e.tensor.coefficient((D2,)) == -1


@pytest.mark.parametrize("n,count", [(1, 2), (2, 24), (3, 720)])
def test_element_term_counts_and_unit_coefficients(n, count):
    t = build_element(n).tensor
    assert t.term_count == count
    assert set(t.terms.values()) <= {1, -1}


def test_degree2_element_matches_independent_rebuild():
    assert build_element(2).tensor == window_element_oracle(2, (1, 2, 3, 4))
    labels = (4, 9, 2, 7)
    assert (build_element(2, labels=labels).tensor
            == window_element_oracle(2, labels))


def test_degree3_element_matches_independent_rebuild():
    assert build_element(3).tensor == window_element_oracle(
        3, (1, 2, 3, 4, 5, 6))


def old_build_element(n, labels=None, prefix=(), signed=False):
    """The former arrangement loop of build_element, verbatim apart from
    its argument checks: every arrangement's n window brackets, signed by
    its parity (and, with signed=True, the brackets' sorting signs)."""
    if labels is None:
        labels = tuple(range(1, 2 * n + 1))
    labels = tuple(int(i) for i in labels)
    prefix = tuple(int(i) for i in prefix)

    def arrangements():
        for perm, sgn in perms_with_signs(2 * n):
            arr = [labels[p] for p in perm]
            slots = []
            coeff = sgn
            for k in range(n):
                sym, s = bracket_symbol(prefix + tuple(arr[k:k + n]),
                                        signed=signed)
                slots.append(sym)
                coeff *= s
            yield tuple(slots), coeff

    return MultTensor(n, _combine(arrangements()))


@pytest.mark.parametrize("case,signed,n", itertools.product(
    ["default", "prefix", "labels"], [False, True], [1, 2, 3, 4]))
def test_build_element_matches_window_loop(case, signed, n):
    kwargs = {
        "default": {},
        "prefix": {"prefix": (9, 0)},
        # permuted labels with a projection center below them
        "labels": {"labels": tuple(range(3 * n, n, -1)), "prefix": (1,)},
    }[case]
    new = build_element(n, signed=signed, **kwargs).tensor
    assert new.terms == old_build_element(n, signed=signed, **kwargs).terms
    assert new.term_count == math.factorial(2 * n)


def test_build_element_contracts():
    with pytest.raises(ContractViolation):
        build_element(0)
    with pytest.raises(ContractViolation):
        build_element(2, labels=(1, 2, 3))
    with pytest.raises(ContractViolation):
        build_element(2, labels=(1, 1, 2, 3))
    with pytest.raises(ContractViolation):
        build_element(2, labels=(1, 2, 3, 4), prefix=(4,))


def test_prefix_prepends_projection_centers():
    base = build_element(2, labels=(3, 4, 5, 6))
    lifted = build_element(2, labels=(3, 4, 5, 6), prefix=(7, 1))
    expected = {}
    for slots, coeff in base.tensor.terms.items():
        key = tuple(bracket_symbol((7, 1) + sym[1])[0] for sym in slots)
        expected[key] = coeff
    assert lifted.tensor == MultTensor(2, expected)
    for slots, _ in lifted.tensor.terms.items():
        for sym in slots:
            assert {1, 7} <= set(sym[1]) and len(sym[1]) == 4


# ---------------------------------------------------------------------------
# mutation helpers


def test_scale_label_multi_additive_expansion():
    t = MultTensor.from_terms(2, [(
        (bracket_symbol((1, 2))[0], bracket_symbol((3, 4))[0]), 5)])
    scaled = scale_label(t, 1, "a")
    a = scalar_symbol("a")
    assert scaled.term_count == 2
    assert scaled.coefficient((a, bracket_symbol((3, 4))[0])) == 5
    assert scaled.coefficient(
        (bracket_symbol((1, 2))[0], bracket_symbol((3, 4))[0])) == 5
    assert scale_label(t, 9, "a") == t
    with pytest.raises(ContractViolation):
        scale_label("tensor", 1, "a")
    for bad in ("tensor", build_element(2)):
        with pytest.raises(ContractViolation):
            check_scale_invariance(2, tensor=bad)


def test_flip_first_term_is_an_involution_on_the_value():
    t = build_element(2).tensor
    flipped = flip_first_term(t)
    assert flipped != t
    assert flip_first_term(flipped) == t
    slots, coeff = t.items_sorted()[0]
    assert slots == (bracket_symbol((1, 2))[0], bracket_symbol((1, 3))[0])
    assert flipped.coefficient(slots) == -coeff
    assert (t - flipped).term_count == 1
    with pytest.raises(ContractViolation):
        flip_first_term(MultTensor.zero(2))


# ---------------------------------------------------------------------------
# comparison with the coalgebra expansion


def test_comparison_constants():
    rep2 = check_comparison(2)
    assert rep2.passed
    assert rep2.details["expected_constant"] == "4"
    assert rep2.details["matched_constant"] == "4"
    assert rep2.details["expansion_terms"] == 24
    assert rep2.details["element_terms"] == 24

    rep3 = check_comparison(3)
    assert rep3.passed
    assert rep3.details["expected_constant"] == "-36"
    assert rep3.details["matched_constant"] == "-36"


def test_comparison_detects_mutation():
    e = build_element(2)
    bad = GrassElement(2, e.labels, (), flip_first_term(e.tensor))
    rep = check_comparison(2, element=bad)
    assert not rep.passed
    assert rep.details["matched_constant"] is None
    assert rep.residue_terms


@pytest.mark.parametrize("n, c", [
    (n, c) for n in (2, 3) for c in ("2", "1/2", "-1")] + [(4, "1/2")])
def test_comparison_rejects_a_scaled_element(n, c):
    """Only the one constant (-1)^n (n!)^2 passes: c times the element
    leaves the residue (1 - c) lhs."""
    e = build_element(n)
    scaled = GrassElement(n, e.labels, (), e.tensor * Fraction(c))
    rep = check_comparison(n, element=scaled)
    assert not rep.passed
    assert rep.details["matched_constant"] is None
    assert rep.residue_terms


def test_comparison_degree_four():
    rep = check_comparison(4)
    assert rep.passed
    assert rep.details["expected_constant"] == "576"
    assert rep.details["matched_constant"] == "576"
    assert rep.details["expansion_terms"] == 40320
    assert rep.details["element_terms"] == 40320
    assert pairing_element_labels(4).term_count == 70


def test_comparison_contracts():
    with pytest.raises(ContractViolation):
        check_comparison(1)
    with pytest.raises(ContractViolation):
        check_comparison(5)


def test_one_degree_table():
    # the comparison, the period and the command line read one table
    from grasspoly import cli
    from grasspoly.elements import DEGREES
    from grasspoly.polylogs import grassmannian_tate

    assert set(DEGREES) == {"element", "grassmannian_tate", *cli.SUITES}
    assert DEGREES["comparison"] == DEGREES["grassmannian_tate"] == range(2, 5)
    for n in (1, 5):
        with pytest.raises(ContractViolation,
                           match=f"comparison supports degrees 2 to 4, "
                                 f"not n = {n}"):
            check_comparison(n)
        with pytest.raises(ContractViolation,
                           match="grassmannian_tate supports degrees 2 to 4"):
            grassmannian_tate(n, None)


# ---------------------------------------------------------------------------
# the (2n+1)-term relations


@pytest.mark.parametrize("n", [2, 3])
def test_omission_relations_cancel(n):
    plain, projected = omission_residues(n)
    assert plain.is_zero()
    assert projected.is_zero()
    rep = check_omission_relations(n)
    assert rep.passed
    assert rep.details == {"plain_residue_terms": 0,
                           "projected_residue_terms": 0}


def test_omission_relations_detect_mutation():
    def crooked(n, labels=None, prefix=()):
        e = build_element(n, labels=labels, prefix=prefix)
        return GrassElement(e.n, e.labels, e.prefix,
                            flip_first_term(e.tensor))

    rep = check_omission_relations(2, element_builder=crooked)
    assert not rep.passed
    assert rep.residue_terms


# ---------------------------------------------------------------------------
# scale invariance


@pytest.mark.parametrize("n", [2, 3])
def test_scale_invariance(n):
    rep = check_scale_invariance(n)
    assert rep.passed
    assert rep.details["labels_checked"] == list(range(1, 2 * n + 1))
    assert rep.details["failing_labels"] == []


def test_degree1_is_honestly_not_scale_invariant():
    """D[1] - D[2] shifts by the scalar log under a single rescale; the
    cancellation needs the overlapping windows that start at degree 2."""
    rep = check_scale_invariance(1)
    assert not rep.passed
    assert rep.details["failing_labels"] == [1, 2]


def test_scale_invariance_single_label_and_mutation():
    assert check_scale_invariance(2, which=3).passed
    rep = check_scale_invariance(2, tensor=flip_first_term(
        build_element(2).tensor))
    assert not rep.passed
    assert rep.details["failing_labels"]
    assert rep.residue_terms


def test_two_vector_scale_residue_cancels():
    def residue(n, a, b):
        base = build_element(n).tensor
        return scale_label(scale_label(base, a, "a"), b, "b") - base

    rng = random.Random(41)
    for _ in range(5):
        a, b = rng.sample(range(1, 5), 2)
        assert residue(2, a, b).is_zero()
    assert residue(3, 1, 6).is_zero()


def test_signed_mode_breaks_scale_invariance():
    """With sorting signs kept the torus action picks up genuine signs, so
    the invariance only holds after the mod-2 identification."""
    signed = build_element(2, signed=True).tensor
    rep = check_scale_invariance(2, tensor=signed)
    assert not rep.passed
    assert rep.details["failing_labels"] == [1, 2, 3, 4]


def scale_oracle(tensor, which):
    """(failing labels, residue sample of the first failing label in the
    order of which) from the expanded residue of every label."""
    residues = {lab: scale_label(tensor, lab, "a") - tensor for lab in which}
    bad = [lab for lab, r in residues.items() if not r.is_zero()]
    return sorted(bad), _residue_sample(residues[bad[0]]) if bad else []


def assert_scale_matches_oracle(n, tensor, which):
    rep = check_scale_invariance(n, which=which, tensor=tensor)
    failing, sample = scale_oracle(tensor, which)
    assert rep.details["labels_checked"] == list(which)
    assert rep.details["failing_labels"] == failing
    assert rep.residue_terms == sample
    assert rep.passed == (not failing)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("mutate", [False, True])
def test_scale_contractions_match_the_residue_on_elements(n, signed, mutate):
    t = build_element(n, signed=signed).tensor
    if mutate:
        t = flip_first_term(t)
    assert_scale_matches_oracle(n, t, list(range(1, 2 * n + 1)))


def test_scale_contractions_match_the_residue_on_random_tensors():
    """Seeded random sub-tensors of the element, with random integer
    coefficients, random label orders and, in some, the scalar b in a
    slot.  A term lacks the labels outside its windows, so some labels
    pass and some fail, and a which that the tensor does not touch at all
    is refused (trials 6 and 11 draw which=[2] for tensors holding only
    1, 3 and 4)."""
    rng = random.Random(1717)
    b = scalar_symbol("b")
    outcomes, refused = set(), []
    for trial in range(20):
        n = rng.choice((2, 3))
        keys = rng.sample(sorted(build_element(n).tensor.terms),
                          rng.randint(1, 8))
        pairs = []
        for key in keys:
            if trial % 3 == 0:
                j = rng.randrange(n)
                key = key[:j] + (b,) + key[j + 1:]
            pairs.append((key, rng.randint(-3, 3)))
        which = rng.sample(range(1, 2 * n + 1), rng.randint(1, 2 * n))
        t = MultTensor.from_terms(n, pairs)
        held = {label for slots in t.terms for kind, labels in slots
                if kind == "D" for label in labels}
        if held.isdisjoint(which):
            with pytest.raises(ContractViolation, match="no label of which"):
                check_scale_invariance(n, which=which, tensor=t)
            refused.append(trial)
            continue
        assert_scale_matches_oracle(n, t, which)
        outcomes.update(lab in check_scale_invariance(
            n, which=which, tensor=t).details["failing_labels"]
            for lab in which)
    assert outcomes == {False, True}
    assert refused == [6, 11]


def test_scale_check_falls_back_when_the_tensor_holds_a():
    # D[1] (x) a - a (x) D[1] is fixed by rescaling 1, because the two
    # a (x) a terms of the expansion cancel; its contraction at slot 1
    # is a, not zero.  Holding a, the tensor goes the residue way.
    a = scalar_symbol("a")
    t = MultTensor.from_terms(2, [((D1, a), 1), ((a, D1), -1)])
    assert _scale_failures(t) == ({1}, {1})
    assert check_scale_invariance(1, which=[1], tensor=t).passed
    assert_scale_matches_oracle(1, t, [1, 2])
    assert_scale_matches_oracle(1, t + MultTensor.from_terms(
        2, [((D1, D2), 2)]), [2, 1])


def test_scale_check_refuses_labels_the_tensor_does_not_hold():
    # the default which of 1..4 misses a mutated element on labels 5..8,
    # which the same check fails when asked about its own labels
    moved = flip_first_term(build_element(2, labels=(5, 6, 7, 8)).tensor)
    with pytest.raises(ContractViolation, match="no label of which"):
        check_scale_invariance(2, tensor=moved)
    assert not check_scale_invariance(2, which=[5, 6, 7, 8],
                                      tensor=moved).passed
    mutated = flip_first_term(build_element(2).tensor)
    with pytest.raises(ContractViolation, match="no label of which"):
        check_scale_invariance(2, tensor=mutated, which=[9])
    # one held label is enough: 9 is checked and passes, 1 fails
    rep = check_scale_invariance(2, tensor=mutated, which=[9, 1])
    assert rep.details["failing_labels"] == [1]


def test_scale_contractions_match_the_residue_at_degree_4():
    e = build_element(4).tensor
    for t in (e, flip_first_term(e)):
        assert_scale_matches_oracle(4, t, [1, 8])


# ---------------------------------------------------------------------------
# integrability


def test_integrability_exact_zeros():
    rep = check_integrability(2, num_points=6)
    assert rep.passed
    assert rep.witness is None
    assert rep.details["positions"] == [1]
    rep = check_integrability(3, ks=2, num_points=2)
    assert rep.passed
    assert rep.details["positions"] == [2]
    assert rep.residue_terms == []


def test_integrability_gaussian_points():
    assert check_integrability(2, num_points=3, gaussian=True).passed


def test_integrability_detects_mutation():
    rep = check_integrability(
        2, tensor=flip_first_term(build_element(2).tensor), num_points=3)
    assert not rep.passed
    assert rep.witness is not None
    assert set(rep.witness) == {"k", "point_index", "config", "outer",
                                "value"}
    assert rep.residue_terms


def test_integrability_gaussian_witness_is_pinned():
    # recorded before the fraction-free kernel replaced Fraction arithmetic
    rep = check_integrability(
        3, gaussian=True, num_points=3,
        tensor=flip_first_term(build_element(3).tensor))
    value = "21032552461/11394551363-27337654627/11394551363i"
    assert rep.witness == {
        "config": {"dim": 3, "vectors": [
            ["5-4i", "9+1i", "7+9i"], ["3", "-13+3i", "-7-11i"],
            ["-3+6i", "0+13i", "-6-12i"], ["-7+2i", "11+4i", "6+12i"],
            ["3+9i", "9+9i", "0+5i"], ["5", "-9-7i", "-6-1i"]]},
        "k": 1, "outer": ["D[1,4,5]"], "point_index": 0, "value": value}
    assert rep.residue_terms == [{"outer": ["D[1,4,5]"], "value": value}]


def test_integrability_contracts():
    with pytest.raises(ContractViolation):
        check_integrability(1)
    with pytest.raises(ContractViolation):
        check_integrability(2, ks=2)
    with pytest.raises(ContractViolation):
        check_integrability(2, ks=0)


@pytest.mark.parametrize("points", [0, -1])
def test_integrability_refuses_an_empty_sample(points):
    # no point at all would certify a mutated element
    bad = flip_first_term(build_element(2).tensor)
    with pytest.raises(ContractViolation, match="at least one point"):
        check_integrability(2, tensor=bad, num_points=points)
    with pytest.raises(ContractViolation, match="at least one point"):
        check_integrability(2, ks=1, tensor=bad, num_points=points)


def test_integrability_refuses_no_position():
    bad = flip_first_term(build_element(3).tensor)
    with pytest.raises(ContractViolation, match="wedge position"):
        check_integrability(3, ks=[], tensor=bad)


def _refuse_build(*args, **kwargs):
    raise AssertionError("build_element called for a refused degree")


@pytest.mark.parametrize("check, n", [
    (functools.partial(check_omission_relations,
                       element_builder=_refuse_build), 5),
    (check_scale_invariance, 5),
    (check_integrability, 5),
    (check_integrability, 1),
], ids=["relations-5", "scale-5", "integrability-5", "integrability-1"])
def test_checks_refuse_degrees_outside_their_table_before_building(
        monkeypatch, check, n):
    # before, each degree-5 check started building elements of 10! terms,
    # and integrability refused n = 1 in words of its own
    monkeypatch.setattr(elements, "build_element", _refuse_build)
    with pytest.raises(ContractViolation, match="supports degrees"):
        check(n)


def test_scale_refuses_no_label():
    bad = flip_first_term(build_element(3).tensor)
    with pytest.raises(ContractViolation, match="needs a label"):
        check_scale_invariance(3, which=[], tensor=bad)


# ---------------------------------------------------------------------------
# the cross-ratio wedge identity


def test_steinberg_sides_are_canonically_equal():
    lhs, rhs = steinberg_wedge_sides()
    assert lhs == rhs
    assert len(lhs.terms) == 12
    assert set(rhs.terms.values()) <= {Fraction(1), Fraction(-1)}


def test_steinberg_check_passes_and_half_matters():
    rep = check_steinberg_wedge()
    assert rep.passed
    assert rep.details == {"symbolic_equal": True, "lhs_terms": 12,
                           "rhs_terms": 12}
    assert rep.residue_terms == []

    bad = check_steinberg_wedge(half_coefficient=False)
    assert not bad.passed
    assert bad.details["symbolic_equal"] is False
    lhs, rhs = steinberg_wedge_sides(half_coefficient=False)
    assert bad.residue_terms == _residue_sample(lhs - rhs)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_shape():
    rep = check_scale_invariance(2)
    plain = rep.to_json_dict()
    assert set(plain) == {"check", "n", "status", "details", "residue_terms",
                          "witness"}
    timed = rep.to_json_dict(timings=True)
    assert "elapsed_ms" in timed
    assert isinstance(timed["elapsed_ms"], float)
    assert rep.passed is True
    assert isinstance(rep, Report)


def test_records_are_immutable_and_built_positionally():
    e = build_element(2)
    again = GrassElement(e.n, e.labels, e.prefix, e.tensor)
    assert again == e and again.tensor is e.tensor
    rep = check_scale_invariance(2)
    with pytest.raises(AttributeError):
        rep.status = "fail"
    with pytest.raises(AttributeError):
        e.n = 3
