"""Simplex-pair generators, the coproduct, and tensor expansion.

The load-bearing oracles:
- generator canonicalization signs against an independent parity count;
- the weight-1 cross-ratio monomial against exact projective geometry
  (project the configuration from the prefix, take the cross-ratio);
- the additivity relations, whose expansions must be exactly zero;
- the former per-arrangement Fraction loops of the pairing element, the
  weight-2 coproduct and the expansion, and the former weight >= 3
  coproduct loop, kept here as copies;
- equivariance: expanding a relabelled input relabels the output.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from grasspoly.aomoto import (GEN, MONO, AomotoExpr, AomotoGen,
                              additivity_residue, coproduct,
                              coproduct_higher, coproduct_weight2,
                              cross_ratio_monomial, expand_to_tensor,
                              make_gen, pairing_element,
                              pairing_element_labels)
from grasspoly.configurations import cross_ratio, random_generic
from grasspoly.errors import ContractViolation, DegeneracyError
from grasspoly.tensors import (MultTensor, bracket_symbol, perms_with_signs,
                               _combine, _expand_slots)


def parity_oracle(seq):
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


# ---------------------------------------------------------------------------
# generators


def test_make_gen_sorting_signs():
    rng = random.Random(301)
    for _ in range(100):
        labels = rng.sample(range(1, 20), 7)
        prefix = labels[:1]
        left = labels[1:4]
        right = labels[4:7]
        gen, sign = make_gen(prefix, left, right)
        assert gen is not None
        assert sign == parity_oracle(left) * parity_oracle(right)
        assert gen.left == tuple(sorted(left))
        assert gen.right == tuple(sorted(right))
        assert gen.prefix == tuple(prefix)
        assert gen.weight == 2


def test_make_gen_vanishing_cases():
    assert make_gen((), (1, 1, 2), (3, 4, 5)) == (None, 0)
    assert make_gen((), (1, 2, 3), (4, 4, 5)) == (None, 0)
    assert make_gen((1,), (1, 2, 3), (4, 5, 6)) == (None, 0)
    assert make_gen((7,), (1, 2, 3), (4, 5, 7)) == (None, 0)
    assert make_gen((2, 2), (3, 4), (5, 6)) == (None, 0)
    with pytest.raises(ContractViolation):
        make_gen((), (1, 2), (3, 4, 5))
    with pytest.raises(ContractViolation):
        make_gen((), (1,), (2,))


def test_gen_str():
    rng = random.Random(302)
    for _ in range(50):
        labels = rng.sample(range(1, 30), 6)
        gen, _ = make_gen(labels[:2], labels[2:4], labels[4:6])
        pre, left, right = (",".join(map(str, sorted(labels[i:i + 2])))
                            for i in (0, 2, 4))
        assert str(gen) == f"A_1[{pre}|{left};{right}]"
    gen, _ = make_gen((), (3, 2, 1), (4, 5, 6))
    assert str(gen) == "A_2[|1,2,3;4,5,6]"


def test_gen_repr_and_hash_are_those_of_its_fields():
    # the repr is the sort key of AomotoExpr terms, so it fixes term order
    gen, _ = make_gen((5,), (1, 2), (3, 4))
    assert repr(gen) == "AomotoGen(prefix=(5,), left=(1, 2), right=(3, 4))"
    assert hash(gen) == hash(((5,), (1, 2), (3, 4)))
    assert gen.weight == 1


def test_expr_algebra_laws():
    rng = random.Random(303)

    def rand_expr():
        pairs = []
        for _ in range(4):
            labels = rng.sample(range(1, 12), 4)
            gen, gs = make_gen((), labels[:2], labels[2:])
            pairs.append((((GEN, gen),), gs * rng.randint(-3, 3)))
        return AomotoExpr.from_terms(pairs)

    for _ in range(20):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a - a).is_zero()
        assert 2 * a == a + a
        assert 0 * a == AomotoExpr.zero()
    with pytest.raises(ContractViolation):
        AomotoExpr.from_terms([((("x", None),), 1)])


# ---------------------------------------------------------------------------
# the weight-1 monomial against exact projective geometry


def test_cross_ratio_monomial_matches_projection():
    """Evaluating the monomial on a generic configuration gives the
    cross-ratio of the four points projected from the prefix, up to the
    four bracket-sorting parities that the canonical symbols discard."""
    rng = random.Random(304)
    for trial in range(10):
        dim = rng.choice((2, 3))
        count = dim + 4
        cfg = random_generic(dim, count, seed=repr(("crm", trial)))
        labels = rng.sample(range(1, count + 1), 4 + (dim - 2))
        prefix = tuple(labels[4:])
        gen, sign = make_gen(prefix, labels[0:2], labels[2:4])
        assert gen is not None and sign in (1, -1)
        p = gen.prefix
        (l0, l1), (m0, m1) = gen.left, gen.right

        value = Fraction(1)
        for sym, e in cross_ratio_monomial(gen):
            value = value * Fraction(cfg.bracket(sym[1])) ** e

        orders = [p + (l0, m0), p + (l1, m1), p + (l1, m0), p + (l0, m1)]

        def ordered_det(t):
            return Fraction(cfg.bracket(tuple(sorted(t)), order=t))

        raw = (ordered_det(orders[0]) * ordered_det(orders[1])
               / (ordered_det(orders[2]) * ordered_det(orders[3])))
        sigma = 1
        for t in orders:
            sigma *= parity_oracle(t)
        assert value == sigma * raw

        # the signed ratio is the honest projected cross-ratio
        proj = cfg
        remaining = list(range(1, count + 1))
        for center in sorted(p, reverse=True):
            proj = proj.project(remaining.index(center) + 1)
            remaining.remove(center)
        pts = [proj.vector(remaining.index(lab) + 1)
               for lab in (l0, l1, m0, m1)]
        assert raw == cross_ratio(*pts)


def test_cross_ratio_monomial_contracts():
    gen, _ = make_gen((), (1, 2, 3), (4, 5, 6))
    with pytest.raises(ContractViolation):
        cross_ratio_monomial(gen)
    with pytest.raises(ContractViolation):
        cross_ratio_monomial("nope")


# ---------------------------------------------------------------------------
# coproduct structure


def test_coproduct_weight2_shape():
    gen, _ = make_gen((), (1, 2, 3), (4, 5, 6))
    cp = coproduct_weight2(gen)
    assert len(cp.terms) == 18
    for factors, coeff in cp.terms.items():
        assert len(factors) == 2
        assert coeff in (Fraction(1, 2), Fraction(-1, 2))
        tags = tuple(f[0] for f in factors)
        assert tags in ((MONO, GEN), (GEN, MONO))
        inner = factors[0][1] if tags[0] == GEN else factors[1][1]
        assert inner.weight == 1
        assert len(inner.prefix) == 1


def test_coproduct_weight2_label_collisions_drop_terms():
    gen, _ = make_gen((), (1, 2, 3), (3, 4, 5))
    assert gen is not None
    cp = coproduct_weight2(gen)
    assert len(cp.terms) == 14
    for factors, _ in cp.terms.items():
        for tag, payload in factors:
            if tag == GEN:
                assert len(set(payload.left)) == len(payload.left)
                assert len(set(payload.right)) == len(payload.right)
                assert not set(payload.prefix) & (
                    set(payload.left) | set(payload.right))


def test_coproduct_higher_shape():
    gen, _ = make_gen((), (1, 2, 3, 4), (5, 6, 7, 8))
    cp = coproduct_higher(gen)
    for factors, coeff in cp.terms.items():
        assert len(factors) == 2
        assert factors[0][0] == GEN
        assert factors[1][0] == MONO
        assert factors[0][1].weight == 2
    assert len(cp.terms) == 16


def test_coproduct_dispatch_and_contracts():
    g2, _ = make_gen((), (1, 2, 3), (4, 5, 6))
    g3, _ = make_gen((), (1, 2, 3, 4), (5, 6, 7, 8))
    g1, _ = make_gen((), (1, 2), (3, 4))
    assert coproduct(g2) == coproduct_weight2(g2)
    assert coproduct(g3) == coproduct_higher(g3)
    with pytest.raises(ContractViolation):
        coproduct(g1)
    with pytest.raises(ContractViolation):
        coproduct_weight2(g1)
    with pytest.raises(ContractViolation):
        coproduct_higher(g2)
    with pytest.raises(ContractViolation):
        coproduct("gen")


# ---------------------------------------------------------------------------
# expansion


def test_expand_to_tensor_weight1():
    gen, _ = make_gen((), (1, 2), (3, 4))
    t = expand_to_tensor(AomotoExpr.of_gen(gen), 1)
    d13 = bracket_symbol((1, 3))[0]
    d24 = bracket_symbol((2, 4))[0]
    d23 = bracket_symbol((2, 3))[0]
    d14 = bracket_symbol((1, 4))[0]
    assert t.coefficient((d13,)) == 1
    assert t.coefficient((d24,)) == 1
    assert t.coefficient((d23,)) == -1
    assert t.coefficient((d14,)) == -1
    assert t.term_count == 4


def test_expand_to_tensor_accepts_bare_gen_and_is_linear():
    gen_a, _ = make_gen((), (1, 2), (3, 4))
    gen_b, _ = make_gen((), (1, 3), (2, 5))
    ta = expand_to_tensor(gen_a, 1)
    tb = expand_to_tensor(gen_b, 1)
    combo = AomotoExpr.of_gen(gen_a, 2) + AomotoExpr.of_gen(gen_b, -3)
    assert expand_to_tensor(combo, 1) == 2 * ta - 3 * tb


def test_expand_to_tensor_arity_contract():
    gen, _ = make_gen((), (1, 2, 3), (4, 5, 6))
    with pytest.raises(ContractViolation):
        expand_to_tensor(AomotoExpr.of_gen(gen), 3)
    with pytest.raises(ContractViolation):
        expand_to_tensor(7, 1)


def test_expand_weight2_lands_in_depth2():
    gen, _ = make_gen((), (1, 2, 3), (4, 5, 6))
    t = expand_to_tensor(AomotoExpr.of_gen(gen), 2)
    assert isinstance(t, MultTensor)
    assert t.arity == 2
    assert t.term_count == 36
    denominators = {Fraction(c).denominator for c in t.terms.values()}
    assert denominators == {1}, "the eighths all collapse away"


# ---------------------------------------------------------------------------
# relations die in the coproduct


@pytest.mark.parametrize("weight", [2, 3])
@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
def test_additivity_relations_expand_to_zero(weight, dual, side):
    t = additivity_residue(weight, dual=dual, side=side)
    assert t.arity == weight
    assert t.is_zero()


def test_additivity_contracts():
    with pytest.raises(ContractViolation):
        additivity_residue(1)
    with pytest.raises(ContractViolation):
        additivity_residue(2, side="up")


# ---------------------------------------------------------------------------
# the alternated pairing element


def test_pairing_element_labels_shape():
    expr = pairing_element_labels(2)
    assert not expr.is_zero()
    for factors, _ in expr.terms.items():
        assert len(factors) == 2
        assert factors[0][0] == GEN
        assert factors[1][0] == MONO
        assert factors[0][1].weight == 1
    with pytest.raises(ContractViolation):
        pairing_element_labels(1)
    with pytest.raises(ContractViolation):
        pairing_element_labels(2, labels=(1, 2, 3))
    with pytest.raises(ContractViolation):
        pairing_element_labels(2, labels=(1, 1, 2, 3))


def test_pairing_element_validates_configuration():
    cfg = random_generic(2, 4, seed=11)
    expr = pairing_element(cfg)
    assert expr == pairing_element_labels(2)
    with pytest.raises(ContractViolation):
        pairing_element(random_generic(2, 5, seed=11))
    with pytest.raises(ContractViolation):
        pairing_element("config")
    from grasspoly.configurations import Configuration
    bad = Configuration(2, [[1, 0], [0, 1], [1, 1], [2, 2]])
    with pytest.raises(DegeneracyError):
        pairing_element(bad)


# ---------------------------------------------------------------------------
# oracle: the per-arrangement Fraction loops the library used to run
#
# pairing_element_labels now makes one term per C(2n, n) split, both
# coproducts run one face-deletion loop over canonical parts, and
# expand_to_tensor carries integer numerators.  The copies below are the
# former loops, verbatim up to the names of the functions they call, and
# every rewritten function must return exactly their dicts.


def old_mono(*signed_brackets):
    out = []
    for labels, e in signed_brackets:
        sym, _ = bracket_symbol(labels)
        out.append((sym, e))
    return (MONO, tuple(out))


def old_coproduct_weight2(gen):
    p = gen.prefix
    L, M = gen.left, gen.right
    c = Fraction(-1, 8)
    pairs = []
    for ps, s1 in perms_with_signs(3):
        l0, l1, l2 = (L[i] for i in ps)
        for qs, s2 in perms_with_signs(3):
            m0, m1, m2 = (M[j] for j in qs)
            sgn = s1 * s2
            # D(p, m0, l1, l2) (x) <p,m0 | l1,l2; m1,m2>
            g1, gs1 = make_gen(p + (m0,), (l1, l2), (m1, m2))
            if g1 is not None:
                pairs.append((
                    (old_mono((p + (m0, l1, l2), 1)), (GEN, g1)),
                    c * sgn * gs1))
            # <p,l0 | l1,l2; m1,m2> (x) D(p, l0, m1, m2)
            g2, gs2 = make_gen(p + (l0,), (l1, l2), (m1, m2))
            if g2 is not None:
                pairs.append((
                    ((GEN, g2), old_mono((p + (l0, m1, m2), 1))),
                    c * sgn * gs2))
    return AomotoExpr.from_terms(pairs)


def old_coproduct_higher(gen):
    """Coproduct component of a generator of weight >= 3 into
    weight-(w-1) (x) bracket terms, generator in the left slot."""
    if not isinstance(gen, AomotoGen):
        raise ContractViolation("coproduct_higher expects a generator")
    w = gen.weight
    if w < 3:
        raise ContractViolation(
            f"coproduct_higher needs weight >= 3, got {w}")
    p = gen.prefix
    L, M = gen.left, gen.right
    pairs = []
    for i, li in enumerate(L):
        lrest = L[:i] + L[i + 1:]
        for j in range(len(M)):
            mrest = M[:j] + M[j + 1:]
            g, gs = make_gen(p + (li,), lrest, mrest)
            if g is None:
                continue
            sgn = -1 if (i + j) % 2 else 1
            pairs.append((
                ((GEN, g), old_mono((p + (li,) + mrest, 1))),
                -sgn * gs))
    return AomotoExpr.from_terms(pairs)


def old_coproduct(gen):
    if gen.weight == 2:
        return old_coproduct_weight2(gen)
    return old_coproduct_higher(gen)


def old_expand_to_tensor(expr, arity):
    if isinstance(expr, AomotoGen):
        expr = AomotoExpr.of_gen(expr)

    def leaves():
        stack = list(expr.terms.items())
        while stack:
            factors, coeff = stack.pop()
            idx = None
            for i, f in enumerate(factors):
                if f[0] == GEN and f[1].weight >= 2:
                    idx = i
                    break
            if idx is not None:
                cp = old_coproduct(factors[idx][1])
                head, tail = factors[:idx], factors[idx + 1:]
                for cf, cc in cp.terms.items():
                    stack.append((head + cf + tail, coeff * cc))
                continue
            slots = []
            for tag, payload in factors:
                if tag == GEN:
                    slots.append(cross_ratio_monomial(payload))
                else:
                    slots.append(payload)
            assert len(slots) == arity
            yield from _expand_slots(slots, coeff)

    return MultTensor(arity, _combine(leaves()))


def old_pairing_element_labels(n, labels=None, prefix=()):
    if labels is None:
        labels = tuple(range(1, 2 * n + 1))
    labels = tuple(int(i) for i in labels)
    prefix = tuple(int(i) for i in prefix)

    def arrangements():
        for perm, sgn in perms_with_signs(2 * n):
            arr = [labels[p] for p in perm]
            gen, gs = make_gen(prefix, arr[:n], arr[n:])
            if gen is None:
                continue
            sym, _ = bracket_symbol(prefix + tuple(arr[n:]))
            yield ((GEN, gen), (MONO, ((sym, 1),))), sgn * gs

    return AomotoExpr(_combine(arrangements()))


def assert_same_terms(new, old):
    """Equal dicts, and integral coefficients stored as ints in both."""
    assert new.terms == old.terms
    for c in new.terms.values():
        assert type(c) is int or c.denominator != 1


PAIRING_CASES = [
    {},
    {"labels": "reversed"},
    {"labels": "shuffled"},
    {"prefix": (20, 19)},
    {"prefix": "overlap"},
]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", PAIRING_CASES,
                         ids=["default", "reversed", "shuffled", "prefix",
                              "overlap"])
def test_pairing_element_matches_arrangement_loop(n, case):
    labels = tuple(range(1, 2 * n + 1))
    kwargs = dict(case)
    if kwargs.get("labels") == "reversed":
        kwargs["labels"] = labels[::-1]
    elif kwargs.get("labels") == "shuffled":
        kwargs["labels"] = tuple(random.Random(n).sample(labels, 2 * n))
    if kwargs.get("prefix") == "overlap":
        kwargs["prefix"] = (labels[1], 30)
    new = pairing_element_labels(n, **kwargs)
    assert_same_terms(new, old_pairing_element_labels(n, **kwargs))
    if case.get("prefix") == "overlap":
        assert new.is_zero()
    else:
        assert new.term_count == math.comb(2 * n, n)


WEIGHT2_GENS = sorted(
    {gen for prefix in ((), (7,), (7, 8))
     for left in itertools.combinations(range(1, 7), 3)
     for right in itertools.combinations(range(1, 7), 3)
     for gen in [make_gen(prefix, left, right)[0]]},
    key=str)


def test_coproduct_weight2_matches_double_alternation():
    shared = 0
    for gen in WEIGHT2_GENS:
        assert_same_terms(coproduct_weight2(gen), old_coproduct_weight2(gen))
        shared += bool(set(gen.left) & set(gen.right))
    assert len(WEIGHT2_GENS) == 3 * 400
    assert shared == 3 * (400 - 20)  # all but the 20 disjoint pairs


def higher_gens(weight, labels, prefixes, count, seed):
    """`count` canonical generators of `weight` over `labels`, sampled from
    every left/right choice under each prefix; most simplex pairs share
    labels."""
    pool = [gen for prefix in prefixes
            for left in itertools.combinations(labels, weight + 1)
            for right in itertools.combinations(labels, weight + 1)
            for gen in [make_gen(prefix, left, right)[0]]]
    return random.Random(seed).sample(sorted(pool, key=str), count)


@pytest.mark.parametrize("weight", [3, 4])
def test_coproduct_higher_matches_face_deletion_loop(weight):
    gens = higher_gens(weight, range(1, weight + 5), ((), (20,), (21, 20)),
                       400, weight)
    prefixes = {gen.prefix for gen in gens}
    assert prefixes == {(), (20,), (20, 21)}
    overlapping = 0
    for gen in gens:
        new = coproduct_higher(gen)
        assert_same_terms(new, old_coproduct_higher(gen))
        assert not new.is_zero()
        overlapping += bool(set(gen.left) & set(gen.right))
    assert overlapping > 300


def non_canonical_gens(weight, count, seed):
    """Directly constructed generators: shuffled simplices and prefixes,
    and copies with one label repeated inside a simplex or the prefix."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        labels = rng.sample(range(1, 3 * weight + 6), 2 * weight + 4)
        prefix = tuple(labels[:rng.randrange(3)])
        left = labels[2:weight + 3]
        right = labels[weight + 3:2 * weight + 4]
        if rng.random() < 0.5:  # overlapping simplices
            right[rng.randrange(weight + 1)] = rng.choice(left)
        rng.shuffle(left)
        rng.shuffle(right)
        out.append(AomotoGen(prefix[::-1], tuple(left), tuple(right)))
        where = rng.choice(("left", "right", "prefix"))
        l2, r2, p2 = list(left), list(right), [labels[0], labels[0]]
        if where == "left":
            l2[0] = l2[-1]
        elif where == "right":
            r2[-1] = r2[0]
        out.append(AomotoGen(tuple(p2), tuple(l2), tuple(r2)))
    return out


@pytest.mark.parametrize("weight", [2, 3, 4])
def test_coproduct_of_non_canonical_generators_matches_old_loops(weight):
    live = coproduct_weight2 if weight == 2 else coproduct_higher
    nonzero = canonical = 0
    for gen in non_canonical_gens(weight, 60, 306 + weight):
        canon, _ = make_gen(gen.prefix, gen.left, gen.right)
        new = live(gen)
        assert_same_terms(new, old_coproduct(gen))
        if canon is None:
            assert new.is_zero()
        nonzero += not new.is_zero()
        canonical += canon == gen
    assert nonzero >= 40
    assert canonical < 10


@pytest.mark.parametrize("gen", [
    AomotoGen((1,), (1, 2, 3), (4, 5, 6)),
    AomotoGen((4,), (1, 2, 3), (4, 5, 6)),
    AomotoGen((9, 5), (1, 2, 3, 4), (5, 6, 7, 8)),
    AomotoGen((7,), (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)),
], ids=str)
def test_coproduct_of_degenerate_generator_is_zero(gen):
    """A simplex label in the prefix makes the generator zero, so its
    coproduct and expansion vanish.  The old loops moved that label out of
    a simplex and returned terms."""
    assert make_gen(gen.prefix, gen.left, gen.right) == (None, 0)
    assert coproduct(gen).is_zero()
    assert expand_to_tensor(gen, gen.weight).is_zero()
    assert not old_coproduct(gen).is_zero()


def test_expansion_of_weight2_generators_matches_fraction_loop():
    rng = random.Random(305)
    for gen in rng.sample(WEIGHT2_GENS, 60):
        coeff = rng.choice((1, -2, Fraction(1, 3), Fraction(-5, 7)))
        expr = AomotoExpr.of_gen(gen, coeff)
        assert_same_terms(expand_to_tensor(expr, 2),
                          old_expand_to_tensor(expr, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_expansion_of_pairing_element_matches_fraction_loop(n):
    expr = pairing_element_labels(n, prefix=(9,))
    assert_same_terms(expand_to_tensor(expr, n),
                      old_expand_to_tensor(expr, n))


def test_expansion_with_fraction_coefficients_and_several_generators():
    g2a, _ = make_gen((), (1, 2, 3), (4, 5, 6))
    g2b, _ = make_gen((9,), (1, 3, 5), (2, 4, 7))
    g3, _ = make_gen((), (1, 2, 3, 4), (5, 6, 7, 8))
    g1, _ = make_gen((3,), (1, 2), (4, 5))
    mono = (MONO, ((bracket_symbol((1, 2))[0], 2),
                   (bracket_symbol((3, 4))[0], -1)))
    expr = AomotoExpr.from_terms([
        (((GEN, g2a), (GEN, g2b)), Fraction(1, 3)),
        (((GEN, g3), mono), Fraction(5, 7)),
        (((GEN, g1), (GEN, g3)), -2),
        ((mono, (GEN, g2b), (GEN, g1)), Fraction(-5, 7)),
    ])
    new = expand_to_tensor(expr, 4)
    assert_same_terms(new, old_expand_to_tensor(expr, 4))
    assert any(type(c) is Fraction for c in new.terms.values())
    assert any(type(c) is int for c in new.terms.values())


def additivity_input(weight, dual, side):
    """The expression additivity_residue expands (copied from it)."""
    pool = tuple(range(1, weight + 3))
    fixed = tuple(range(weight + 3, 2 * weight + 4))
    pairs = []
    for i, omitted in enumerate(pool):
        rest = pool[:i] + pool[i + 1:]
        prefix = (omitted,) if dual else ()
        if side == "left":
            gen, gs = make_gen(prefix, rest, fixed)
        else:
            gen, gs = make_gen(prefix, fixed, rest)
        if gen is None:
            continue
        sign = -1 if i % 2 else 1
        pairs.append((((GEN, gen),), sign * gs))
    return AomotoExpr.from_terms(pairs)


@pytest.mark.parametrize("weight", [2, 3])
@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
def test_additivity_inputs_expand_as_the_fraction_loop(weight, dual, side):
    expr = additivity_input(weight, dual, side)
    assert expand_to_tensor(expr, weight) == additivity_residue(
        weight, dual=dual, side=side)
    assert_same_terms(expand_to_tensor(expr, weight),
                      old_expand_to_tensor(expr, weight))
    # each summand alone is far from zero, so equality is not vacuous
    one = AomotoExpr.from_terms([next(iter(expr.terms.items()))])
    assert_same_terms(expand_to_tensor(one, weight),
                      old_expand_to_tensor(one, weight))
    assert not expand_to_tensor(one, weight).is_zero()


# ---------------------------------------------------------------------------
# standard-form expansion: the stack loop as oracle, equivariance, bounds


def random_gen(rng, weight):
    """A directly constructed generator of `weight`: 0-2 prefix labels,
    simplices sharing 0..weight+1 labels, every part in random order; now
    and then a repeated label or a prefix label inside a simplex."""
    labels = rng.sample(range(1, 3 * weight + 7), 2 * weight + 4)
    prefix = labels[:rng.randrange(3)]
    left = labels[2:weight + 3]
    shared = rng.sample(left, rng.randrange(weight + 2))
    right = shared + labels[weight + 3:2 * weight + 4 - len(shared)]
    rng.shuffle(left)
    rng.shuffle(right)
    roll = rng.random()
    if roll < 0.06:
        left[0] = left[-1]
    elif roll < 0.12:
        prefix.append(rng.choice(left + right))
    elif roll < 0.18:
        prefix = [labels[0], labels[0]]
    return AomotoGen(tuple(prefix), tuple(left), tuple(right))


def random_mono(rng):
    atoms = {bracket_symbol(rng.sample(range(1, 12), rng.randrange(2, 4)))[0]
             for _ in range(rng.randrange(1, 3))}
    return MONO, tuple((sym, rng.choice((1, -1, 2))) for sym in atoms)


def random_expr(rng, arity):
    """Terms of one generator, two generators, or a generator and a
    monomial in either order, with int and Fraction coefficients."""
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        shape = rng.choice(("gen", "gens", "gen-mono", "mono-gen")
                           if arity > 1 else ("gen",))
        if shape == "gen":
            factors = ((GEN, random_gen(rng, arity)),)
        elif shape == "gens":
            w = rng.randrange(1, arity)
            factors = ((GEN, random_gen(rng, w)),
                       (GEN, random_gen(rng, arity - w)))
        else:
            factors = ((GEN, random_gen(rng, arity - 1)), random_mono(rng))
            if shape == "mono-gen":
                factors = factors[::-1]
        pairs.append((factors, rng.choice(
            (1, -2, 3, Fraction(1, 3), Fraction(-5, 7)))))
    return AomotoExpr.from_terms(pairs)


def vanishes(gen):
    return make_gen(gen.prefix, gen.left, gen.right)[0] is None


def stack_loop_expansion(expr, arity):
    """old_expand_to_tensor of the terms whose generators do not vanish.
    The old loop expanded a generator with a prefix label inside a simplex
    (or, at weight 1, a repeated prefix label) into nonzero terms."""
    live = AomotoExpr({factors: c for factors, c in expr.terms.items()
                       if not any(tag == GEN and vanishes(payload)
                                  for tag, payload in factors)})
    return old_expand_to_tensor(live, arity)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_expansion_of_random_expressions_matches_stack_loop(arity):
    rng = random.Random(1300 + arity)
    count = {1: 80, 2: 80, 3: 60, 4: 8}[arity]
    vanishing = fractional = 0
    for _ in range(count):
        expr = random_expr(rng, arity)
        new = expand_to_tensor(expr, arity)
        assert_same_terms(new, stack_loop_expansion(expr, arity))
        vanishing += any(tag == GEN and vanishes(payload)
                         for factors in expr.terms for tag, payload in factors)
        fractional += any(type(c) is Fraction for c in new.terms.values())
    assert vanishing >= count // 10
    assert fractional >= count // 10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_of_relabelled_pairings_matches_stack_loop(n):
    rng = random.Random(1310 + n)
    for _ in range(3 if n < 4 else 1):
        labels = rng.sample(range(1, 30), 2 * n + 2)
        expr = pairing_element_labels(n, labels=labels[:2 * n],
                                      prefix=labels[2 * n:][:rng.randrange(3)])
        assert_same_terms(expand_to_tensor(expr, n),
                          old_expand_to_tensor(expr, n))


def relabel_expr(expr, sigma):
    def factor(f):
        tag, payload = f
        if tag == GEN:
            return GEN, AomotoGen(*(tuple(sigma[i] for i in part)
                                    for part in (payload.prefix, payload.left,
                                                 payload.right)))
        return MONO, tuple((relabel_symbol(sym, sigma), e)
                           for sym, e in payload)

    return AomotoExpr({tuple(map(factor, factors)): c
                       for factors, c in expr.terms.items()})


def relabel_symbol(sym, sigma):
    return bracket_symbol([sigma[i] for i in sym[1]])[0]


def relabel_tensor(tensor, sigma):
    return MultTensor(tensor.arity, {
        tuple(relabel_symbol(sym, sigma) for sym in key): c
        for key, c in tensor.terms.items()})


def random_relabelling(rng, labels):
    labels = sorted(set(labels))
    return dict(zip(labels, rng.sample(range(1, 60), len(labels))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_of_pairing_is_equivariant(n):
    rng = random.Random(1320 + n)
    for prefix in ((), (2 * n + 1,)):
        expr = pairing_element_labels(n, prefix=prefix)
        base = expand_to_tensor(expr, n)
        for _ in range(2 if n < 4 else 1):
            sigma = random_relabelling(rng, range(1, 2 * n + 2))
            moved = expand_to_tensor(relabel_expr(expr, sigma), n)
            assert moved.terms == relabel_tensor(base, sigma).terms


@pytest.mark.parametrize("weight", [2, 3, 4])
def test_expansion_of_a_generator_is_equivariant(weight):
    rng = random.Random(1330 + weight)
    for _ in range(12 if weight < 4 else 4):
        gen = random_gen(rng, weight)
        expr = AomotoExpr.of_gen(gen, rng.choice((1, Fraction(-2, 3))))
        base = expand_to_tensor(expr, weight)
        sigma = random_relabelling(rng, gen.prefix + gen.left + gen.right)
        moved = expand_to_tensor(relabel_expr(expr, sigma), weight)
        assert moved.terms == relabel_tensor(base, sigma).terms


def test_caches_stay_bounded():
    """Distinct generators past every cache's bound leave each cache at
    or below it; the coproduct and monomial caches reach it."""
    from grasspoly.aomoto import _standard_expansion

    def gens(weight, count):
        labels = range(1, {1: 13, 2: 10, 3: 9}[weight])
        simplices = list(itertools.combinations(labels, weight + 1))
        out = [gen for prefix in ((), (20,))
               for left in simplices for right in simplices
               for gen in [make_gen(prefix, left, right)[0]]]
        return random.Random(1340 + weight).sample(out, count)

    for weight in (2, 3):
        for gen in gens(weight, 5000):
            coproduct(gen)
        for gen in gens(weight, 300):
            expand_to_tensor(gen, weight)
    for gen in gens(1, 5000):
        cross_ratio_monomial(gen)
        expand_to_tensor(gen, 1)
    caches = (coproduct_weight2, coproduct_higher, cross_ratio_monomial,
              _standard_expansion)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
    for cache in caches[:3]:
        info = cache.cache_info()
        assert info.currsize == info.maxsize
