"""Canonical tensor stores: symbols, algebra laws, alternation, wedges,
and the JSON wire format."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from grasspoly.aomoto import GEN, MONO, AomotoExpr, make_gen
from grasspoly.errors import ContractViolation
from grasspoly.tensors import (MultTensor, WedgeTensor, _coeff_from_json,
                               _sort_with_sign, alt, bracket_symbol, equal,
                               parse_symbol, perms_with_signs, scalar_symbol,
                               symbol_sort_key, symbol_to_str,
                               tensor_of_slots, wedge_project)


def parity_oracle(seq):
    """Independent inversion-count parity."""
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def rand_symbol(rng, pool=6, size=2):
    return bracket_symbol(tuple(rng.sample(range(1, pool + 1), size)))[0]


def rand_tensor(rng, arity=2, terms=5):
    pairs = []
    for _ in range(terms):
        slots = tuple(rand_symbol(rng) for _ in range(arity))
        pairs.append((slots, rng.randint(-5, 5)))
    return MultTensor.from_terms(arity, pairs)


# ---------------------------------------------------------------------------
# symbols


def test_bracket_symbol_sorts_and_signs():
    rng = random.Random(201)
    for _ in range(100):
        ix = rng.sample(range(1, 10), 3)
        sym, sign = bracket_symbol(ix)
        assert sym == ("D", tuple(sorted(ix)))
        assert sign == 1
        sym_s, sign_s = bracket_symbol(ix, signed=True)
        assert sym_s == sym
        assert sign_s == parity_oracle(ix)
    with pytest.raises(ContractViolation):
        bracket_symbol(())


def test_bracket_symbol_allows_repeats():
    sym, sign = bracket_symbol((2, 2, 1))
    assert sym == ("D", (1, 2, 2))
    assert sign == 1


def test_scalar_symbol_and_parse_round_trip():
    rng = random.Random(202)
    for _ in range(50):
        sym = rand_symbol(rng, pool=9, size=rng.randint(1, 4))
        assert parse_symbol(symbol_to_str(sym)) == sym
    a = scalar_symbol("a")
    assert parse_symbol(symbol_to_str(a)) == a
    assert symbol_to_str(a) == "a"
    with pytest.raises(ContractViolation):
        scalar_symbol("")
    with pytest.raises(ContractViolation):
        parse_symbol("")


@pytest.mark.parametrize("bad", ["D[1,x]", "D[1.5]", 5, None, ["D[1]"],
                                 "D[1,2", "D [1,2]", "[1,4]", "D[1]x", "a]",
                                 "D[1,,2]", "D[1,2,]", "D[,1]", "D[1, ,2]"])
def test_parse_symbol_refuses_non_strings_and_non_integer_labels(bad):
    # "D[1,2" to "a]", bracket text that is not a well-formed D[i,j,...],
    # were read as scalar symbols, whose d log is zero; the last four,
    # with an empty label, were read as D[1,2], D[1,2], D[1] and D[1,2]
    with pytest.raises(ContractViolation):
        parse_symbol(bad)


def test_every_element_symbol_prints_and_parses_back():
    from grasspoly.elements import build_element, scale_label

    tensors = [build_element(n).tensor for n in (1, 2, 3)]
    tensors.append(scale_label(tensors[1], 1, "a"))
    symbols = {sym for t in tensors for slots in t.terms for sym in slots}
    # the a-terms of the rescaled element cancel, so scalars are added by
    # hand; a label that would not print back is refused (before,
    # scalar_symbol("D[1]") printed as D[1] and parsed back as a bracket)
    refused = []
    for label in ("a", "D[1]", "x[2]", "]", " a", "a "):
        try:
            symbols.add(scalar_symbol(label))
        except ContractViolation:
            refused.append(label)
    assert refused == ["D[1]", "x[2]", "]", " a", "a "]
    for sym in symbols:
        assert parse_symbol(symbol_to_str(sym)) == sym


def test_symbol_sort_key_orders_brackets_before_scalars():
    d = bracket_symbol((1, 2))[0]
    s = scalar_symbol("a")
    assert symbol_sort_key(d) < symbol_sort_key(s)


def test_perms_with_signs_oracle():
    for k in (1, 2, 3, 4):
        table = perms_with_signs(k)
        assert len(table) == [1, 1, 2, 6, 24][k]
        for perm, sgn in table:
            assert sgn == parity_oracle(perm)


def test_perms_with_signs_matches_sort_with_sign():
    # the block-recurrence parities against the inversion count, same order
    for k in range(-1, 9):
        assert perms_with_signs(k) == tuple(
            (perm, _sort_with_sign(perm)[1])
            for perm in permutations(range(k)))


def test_perms_with_signs_cache_is_bounded():
    # finite, and large enough that the tables of k = 0..9 stay cached
    maxsize = perms_with_signs.cache_info().maxsize
    assert maxsize is not None and 10 <= maxsize <= 64
    tables = [perms_with_signs(k) for k in range(8)]
    assert all(perms_with_signs(k) is t for k, t in enumerate(tables))


# ---------------------------------------------------------------------------
# MultTensor algebra


def test_mult_tensor_group_laws():
    rng = random.Random(203)
    for _ in range(30):
        a = rand_tensor(rng)
        b = rand_tensor(rng)
        c = rand_tensor(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a - a).is_zero()
        assert a + MultTensor.zero(2) == a
        assert -(-a) == a
        assert 2 * a == a + a
        assert Fraction(1, 2) * (a + a) == a
        assert 0 * a == MultTensor.zero(2)


def test_mult_tensor_merging_and_pruning():
    sym1 = bracket_symbol((1, 2))[0]
    sym2 = bracket_symbol((3, 4))[0]
    t = MultTensor.from_terms(2, [((sym1, sym2), 2), ((sym1, sym2), -2),
                                  ((sym2, sym1), 3)])
    assert t.term_count == 1
    assert t.coefficient((sym2, sym1)) == 3
    assert t.coefficient((sym1, sym2)) == 0
    with pytest.raises(ContractViolation):
        MultTensor.from_terms(2, [((sym1,), 1)])
    with pytest.raises(ContractViolation):
        MultTensor(0)


def test_mult_tensor_arity_contracts():
    a = rand_tensor(random.Random(204), arity=2)
    b = rand_tensor(random.Random(205), arity=3)
    with pytest.raises(ContractViolation):
        a + b
    with pytest.raises(ContractViolation):
        equal(a, b)
    assert equal(a, a)
    with pytest.raises(ContractViolation):
        equal(a, 7)


def test_mult_tensor_hash_eq_and_str():
    rng = random.Random(206)
    a = rand_tensor(rng)
    b = MultTensor(a.arity, dict(a.terms))
    assert a == b and hash(a) == hash(b)
    assert str(MultTensor.zero(2)) == "0"
    assert "(x)" in str(a)
    with pytest.raises(AttributeError):
        a.terms = {}


def test_items_sorted_is_canonical():
    rng = random.Random(207)
    t = rand_tensor(rng, terms=8)
    keys = [tuple(symbol_sort_key(s) for s in slots)
            for slots, _ in t.items_sorted()]
    assert keys == sorted(keys)


def test_tensor_of_slots_multi_additivity():
    a = scalar_symbol("a")
    b = scalar_symbol("b")
    d = bracket_symbol((1, 2))[0]
    t = tensor_of_slots([((a, 2), (b, -1)), ((d, 1),)])
    assert t.coefficient((a, d)) == 2
    assert t.coefficient((b, d)) == -1
    assert t.term_count == 2
    with pytest.raises(ContractViolation):
        tensor_of_slots([()])


def test_json_round_trip():
    rng = random.Random(208)
    for trial in range(20):
        t = rand_tensor(rng, arity=rng.randint(1, 3), terms=6)
        again = MultTensor.from_json_dict(t.to_json_dict())
        assert again == t
    frac = MultTensor.from_terms(
        1, [((scalar_symbol("a"),), Fraction(-3, 7))])
    assert MultTensor.from_json_dict(frac.to_json_dict()) == frac
    with pytest.raises(ContractViolation):
        MultTensor.from_json_dict({"terms": []})
    with pytest.raises(ContractViolation):
        MultTensor.from_json_dict({"arity": "x", "terms": []})
    with pytest.raises(ContractViolation):
        MultTensor.from_json_dict({"arity": 1})


@pytest.mark.parametrize("bad", ["x", "1/0", "", True, False])
def test_coeff_from_json_refuses_what_is_not_a_rational(bad):
    # JSON true and false were read as the coefficients 1 and 0
    with pytest.raises(ContractViolation, match="bad coefficient"):
        _coeff_from_json(bad)
    assert _coeff_from_json("-6/4") == Fraction(-3, 2)
    assert type(_coeff_from_json("4/2")) is int


GOOD_TERM = {"coeff": 2, "slots": [["D[1]"]]}


@pytest.mark.parametrize("terms", [
    [GOOD_TERM, {"coeff": 1}],
    [GOOD_TERM, {"slots": [["D[1]"]]}],
    [GOOD_TERM, {"coeff": "x", "slots": [["D[1]"]]}],
    [GOOD_TERM, {"coeff": True, "slots": [["D[1]"]]}],
    [GOOD_TERM, {"coeff": 1, "slots": [["D[1,x]"]]}],
    [GOOD_TERM, {"coeff": 1, "slots": [[5]]}],
    [GOOD_TERM, {"coeff": 1, "slots": 5}],
    [GOOD_TERM, "D[1]"],
    [GOOD_TERM, None],
    5,
], ids=["no-slots", "no-coeff", "bad-coeff", "bool-coeff", "bad-label",
        "int-symbol", "int-slots", "string-term", "null-term", "int-terms"])
def test_tensor_from_json_refuses_malformed_terms(terms):
    with pytest.raises(ContractViolation):
        MultTensor.from_json_dict({"arity": 1, "terms": terms})
    assert MultTensor.from_json_dict({"arity": 1, "terms": [GOOD_TERM]}) == \
        MultTensor.from_terms(1, [((bracket_symbol((1,))[0],), 2)])


# ---------------------------------------------------------------------------
# alternation


def test_alt_of_symmetric_template_vanishes():
    d = bracket_symbol((1, 2))[0]

    def symmetric(perm):
        return MultTensor.from_terms(1, [((d,), 1)])

    assert alt(symmetric, 3).is_zero()


def test_alt_antisymmetry_under_precomposition():
    labels = (1, 2, 3)

    def template(perm):
        syms = tuple(bracket_symbol((labels[p], 9))[0] for p in perm)
        return MultTensor.from_terms(3, [(syms, 1)])

    def swapped(perm):
        perm2 = (perm[1], perm[0], perm[2])
        return template(perm2)

    assert alt(template, 3) == -alt(swapped, 3)


def test_alt_no_normalization_factor():
    labels = (1, 2)

    def template(perm):
        syms = tuple(bracket_symbol((labels[p], 9))[0] for p in perm)
        return MultTensor.from_terms(2, [(syms, 1)])

    t = alt(template, 2)
    s1 = bracket_symbol((1, 9))[0]
    s2 = bracket_symbol((2, 9))[0]
    assert t.coefficient((s1, s2)) == 1
    assert t.coefficient((s2, s1)) == -1


def test_alt_contract_errors():
    calls = {"n": 0}

    def flaky(perm):
        calls["n"] += 1
        return MultTensor.zero(1 if calls["n"] == 1 else 2)

    with pytest.raises(ContractViolation):
        alt(flaky, 2)
    with pytest.raises(ContractViolation):
        alt(lambda p: MultTensor.zero(1), -3)


# ---------------------------------------------------------------------------
# wedge tensors


def test_wedge_diagonal_terms_vanish():
    d = bracket_symbol((1, 2))[0]
    w = WedgeTensor.from_terms(2, 1, [((d, d), 5)])
    assert w.is_zero()


def test_wedge_swap_absorbs_sign():
    a = bracket_symbol((1, 2))[0]
    b = bracket_symbol((1, 3))[0]
    w1 = WedgeTensor.from_terms(2, 1, [((a, b), 1)])
    w2 = WedgeTensor.from_terms(2, 1, [((b, a), -1)])
    assert w1 == w2
    assert not w1.is_zero()
    w3 = WedgeTensor.from_terms(2, 1, [((a, b), 1), ((b, a), 1)])
    assert w3.is_zero()


def test_wedge_project_and_outer_groups():
    rng = random.Random(209)
    t = rand_tensor(rng, arity=3, terms=10)
    for k in (1, 2):
        w = wedge_project(t, k)
        assert w.arity == 2
        total = sum(len(entries) for _, entries in w.outer_groups())
        assert total == len(w.terms)
        for outer, entries in w.outer_groups():
            assert len(outer) == 1
            for a, b, coeff in entries:
                assert symbol_sort_key(a) < symbol_sort_key(b)
                assert coeff != 0
    with pytest.raises(ContractViolation):
        wedge_project(t, 3)
    with pytest.raises(ContractViolation):
        wedge_project({"not": "a tensor"}, 1)


def test_wedge_contracts_and_dunder():
    with pytest.raises(ContractViolation):
        WedgeTensor(1, 1)
    with pytest.raises(ContractViolation):
        WedgeTensor(3, 3)
    a = bracket_symbol((1, 2))[0]
    b = bracket_symbol((1, 3))[0]
    w = WedgeTensor.from_terms(2, 1, [((a, b), 2)])
    again = WedgeTensor(2, 1, dict(w.terms))
    assert w == again and hash(w) == hash(again)
    assert "^" in str(w)
    assert str(WedgeTensor(2, 1)) == "0"
    with pytest.raises(AttributeError):
        w.width = 4
    with pytest.raises(ContractViolation):
        WedgeTensor.from_terms(2, 1, [((a, b, a), 1)])


def test_wedge_linear_in_coefficients():
    rng = random.Random(210)
    t1 = rand_tensor(rng, arity=2, terms=6)
    t2 = rand_tensor(rng, arity=2, terms=6)
    w_sum = wedge_project(t1 + t2, 1)
    w1 = wedge_project(t1, 1)
    w2 = wedge_project(t2, 1)
    merged = WedgeTensor.from_terms(
        2, 1, list(w1.terms.items()) + list(w2.terms.items()))
    assert w_sum == merged


# ---------------------------------------------------------------------------
# the linear-combination contract shared by all three stores


def combination_values(kind):
    """(a, b, c, strings): a and b share a shape, c has another (None where
    the type has one shape only); strings are repr(a), str(a), repr(b) and
    str(b) as recorded before the three types shared one base."""
    d12, d13, d24 = (bracket_symbol(ix)[0] for ix in ((1, 2), (1, 3), (2, 4)))
    a = scalar_symbol("a")
    if kind is MultTensor:
        return (MultTensor.from_terms(2, [((d13, a), Fraction(-1, 2)),
                                          ((d12, d24), 3)]),
                MultTensor.from_terms(2, [((d12, d24), -1), ((a, d12), 2)]),
                MultTensor.from_terms(3, [((d12, d13, a), 1)]),
                ("MultTensor(arity=2, 2 terms)",
                 "3 * D[1,2] (x) D[2,4]  +  -1/2 * D[1,3] (x) a",
                 "MultTensor(arity=2, 2 terms)",
                 "-1 * D[1,2] (x) D[2,4]  +  2 * a (x) D[1,2]"))
    if kind is WedgeTensor:
        return (WedgeTensor.from_terms(3, 2, [((a, d24, d12), 2),
                                              ((d12, d13, d24),
                                               Fraction(1, 3))]),
                WedgeTensor.from_terms(3, 2, [((d12, d13, d24), -1)]),
                WedgeTensor.from_terms(3, 1, [((d12, d13, d24), 1)]),
                ("WedgeTensor(width=3, pair_index=2, 2 terms)",
                 "1/3 * D[1,2] (x) D[1,3] ^ D[2,4]  +  "
                 "-2 * a (x) D[1,2] ^ D[2,4]",
                 "WedgeTensor(width=3, pair_index=2, 1 terms)",
                 "-1 * D[1,2] (x) D[1,3] ^ D[2,4]"))
    g1 = (GEN, make_gen((5,), (1, 2), (3, 4))[0])
    g2 = (GEN, make_gen((), (1, 2, 3), (4, 5, 6))[0])
    mono = (MONO, ((d13, 1), (a, -2)))
    return (AomotoExpr.from_terms([((g2, mono), Fraction(-1, 2)),
                                   ((g1,), 4)]),
            AomotoExpr.from_terms([((g1,), -1), ((mono, g1), 1)]),
            None,
            ("AomotoExpr(2 terms)",
             "-1/2 * A_2[|1,2,3;4,5,6] (x) D[1,3] (x) a^-2  +  "
             "4 * A_1[5|1,2;3,4]",
             "AomotoExpr(2 terms)",
             "-1 * A_1[5|1,2;3,4]  +  1 * D[1,3] (x) a^-2 (x) "
             "A_1[5|1,2;3,4]"))


@pytest.mark.parametrize("kind", [MultTensor, WedgeTensor, AomotoExpr])
def test_linear_combination_contract(kind):
    a, b, c, strings = combination_values(kind)
    with pytest.raises(AttributeError):
        a.terms = {}
    assert a + b - b == a
    assert -(-a) == a
    assert 2 * a == a + a == a * 2
    assert (a - a).is_zero() and (a - a).term_count == 0
    assert a + b != a and a.term_count == 2
    twin = kind.from_terms(*a._shape(), a.terms.items())
    assert twin == a and hash(twin) == hash(a)
    assert len({a, twin, b}) == 2
    assert (repr(a), str(a), repr(b), str(b)) == strings
    assert str(a - a) == "0"
    if c is not None:
        with pytest.raises(ContractViolation):
            a + c
        assert a != c


@pytest.mark.parametrize("kind", [MultTensor, WedgeTensor, AomotoExpr])
def test_scalar_multiples_keep_coefficient_types(kind):
    a, b, _, _ = combination_values(kind)
    t = a + b
    ints = {k: v for k, v in t.terms.items() if type(v) is int}
    fracs = {k: v for k, v in t.terms.items() if type(v) is Fraction}
    assert ints and fracs
    for product in (2 * t, t * 2, -3 * t):
        scale = product.terms[next(iter(ints))] // ints[next(iter(ints))]
        assert product.terms == {k: v * scale for k, v in t.terms.items()}
        assert all(type(product.terms[k]) is int for k in ints)
    # a Fraction coefficient that an integer clears becomes an int
    assert {type(v) for v in (t * (6 * max(
        v.denominator for v in fracs.values()))).terms.values()} == {int}
    half = kind.from_terms(*t._shape(), [(next(iter(t.terms)),
                                          Fraction(1, 2))])
    for scalar, value in ((2, 1), (4, 2)):
        (coeff,) = (half * scalar).terms.values()
        assert coeff == value and type(coeff) is int
    assert (0 * t).is_zero() and (t * 0).is_zero()
    # Fraction scalars: exact products, integral ones made int, zeros gone
    third = t * Fraction(1, 3)
    assert third.terms == {k: Fraction(v) / 3 for k, v in t.terms.items()}
    assert 3 * third == t
    assert Fraction(0) * t == (t - t)
    assert {type(v) for v in (Fraction(2) * t).terms.values()} == {
        type(v) for v in (2 * t).terms.values()}
