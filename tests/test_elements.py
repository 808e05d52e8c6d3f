"""The sliding-window bracket element and its exact identity checks.

The degree-2 element is rebuilt here from scratch (itertools permutations,
local parity count, hand-rolled window slicing) and compared term by term
with the library's construction.  The identity checks are then exercised
in both directions: they pass on the honest element and fail on a
single-term mutation.
"""

import itertools
import random
from fractions import Fraction

import pytest

from grasspoly.elements import (GrassElement, Report, build_element,
                                check_comparison, check_integrability,
                                check_omission_relations,
                                check_scale_invariance,
                                check_steinberg_wedge, flip_first_term,
                                integrability_residues, omission_residues,
                                scale_label, steinberg_wedge_sides)
from grasspoly.errors import ContractViolation
from grasspoly.tensors import MultTensor, bracket_symbol, scalar_symbol

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


def test_comparison_report_constant_mode():
    rep = check_comparison(2, mode="report-constant")
    assert rep.passed
    assert rep.details["matched_constant"] == "4"


def test_comparison_contracts():
    with pytest.raises(ContractViolation):
        check_comparison(1)
    with pytest.raises(ContractViolation):
        check_comparison(4)
    with pytest.raises(ContractViolation):
        check_comparison(2, mode="always")


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


# ---------------------------------------------------------------------------
# integrability


def test_integrability_exact_zeros():
    rep = check_integrability(2, num_points=6)
    assert rep.passed
    assert rep.witness is None
    assert rep.details["positions"] == [1]
    for _, _, graded in integrability_residues(3, 2, num_points=2):
        for _, val in graded:
            assert val == 0


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
        list(integrability_residues(2, 2))
    with pytest.raises(ContractViolation):
        list(integrability_residues(2, 0))


# ---------------------------------------------------------------------------
# the cross-ratio wedge identity


def test_steinberg_sides_are_canonically_equal():
    lhs, rhs = steinberg_wedge_sides()
    assert lhs == rhs
    assert len(lhs.terms) == 12
    assert set(rhs.terms.values()) <= {Fraction(1), Fraction(-1)}


def test_steinberg_check_passes_and_half_matters():
    rep = check_steinberg_wedge(num_points=4)
    assert rep.passed
    assert rep.details["symbolic_equal"] is True

    bad = check_steinberg_wedge(num_points=4, half_coefficient=False)
    assert not bad.passed
    assert bad.details["symbolic_equal"] is False


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
