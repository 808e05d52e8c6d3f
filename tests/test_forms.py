"""Exact d log evaluation and the wedge pairing.

Two oracles are used here.  The first avoids the row-replacement formula
entirely: the bracket determinant of base + t * tangent is expanded as an
exact univariate polynomial in t (Leibniz sum over permutations with
polynomial entries), and d log is its linear coefficient over its
constant one.  The second is the plain Fraction evaluation (Gaussian
elimination over the entries as given, one Fraction d log per symbol, one
Fraction wedge product per term) that the integer kernel must reproduce
value for value.
"""

import itertools
import random
from fractions import Fraction

import pytest

from grasspoly.configurations import (Configuration, GaussianRational,
                                      random_generic)
from grasspoly.elements import (build_element, flip_first_term,
                                steinberg_wedge_sides)
from grasspoly.errors import ContractViolation, PoleError
from grasspoly.forms import (TangentAssignment, dlog_eval, random_tangent,
                             tensor_slot_eval, wedge_eval, wedge_eval_graded)
from grasspoly.tensors import (BRACKET, SCALAR, MultTensor, WedgeTensor,
                               bracket_symbol, scalar_symbol, symbol_to_str,
                               wedge_project)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def poly_add(p, q):
    n = max(len(p), len(q))
    p = list(p) + [0] * (n - len(p))
    q = list(q) + [0] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def det_poly(rows):
    """Exact det of a matrix of linear polynomials [const, slope]."""
    n = len(rows)
    total = [0]
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        prod = [-1 if inv % 2 else 1]
        for r, c in enumerate(perm):
            prod = poly_mul(prod, rows[r][c])
        total = poly_add(total, prod)
    return total


def dlog_oracle(at, subset):
    rows = [[[at.base[i - 1][j], at.tangent[i - 1][j]]
             for j in range(len(at.base[i - 1]))] for i in subset]
    q = det_poly(rows)
    assert q[0] != 0
    return q[1] / q[0]


# ---------------------------------------------------------------------------
# assignments


def test_tangent_assignment_construction():
    cfg = random_generic(2, 4, seed=1)
    rng = random.Random(7)
    tan = random_tangent(4, 2, rng)
    at = TangentAssignment.make(cfg, tan)
    assert at.count == 4
    assert at.base == cfg.vectors
    raw = TangentAssignment.make([list(v) for v in cfg.vectors], tan)
    assert raw == at
    with pytest.raises(ContractViolation):
        TangentAssignment.make(cfg, tan[:3])
    with pytest.raises(ContractViolation):
        TangentAssignment.make(cfg, [row[:1] for row in tan])
    # direct construction validates too
    assert TangentAssignment(at.base, at.tangent) == at
    with pytest.raises(ContractViolation):
        TangentAssignment(((1, 2),), ())
    with pytest.raises(ContractViolation):
        TangentAssignment(((1, 2),), ((3,),))


def test_random_tangent_shape_and_determinism():
    t1 = random_tangent(5, 3, random.Random(11), bound=4)
    t2 = random_tangent(5, 3, random.Random(11), bound=4)
    assert t1 == t2
    assert len(t1) == 5 and all(len(r) == 3 for r in t1)
    assert all(abs(x) <= 4 for r in t1 for x in r)


# ---------------------------------------------------------------------------
# d log of a single bracket


def test_dlog_matches_polynomial_expansion():
    rng = random.Random(501)
    for trial in range(30):
        dim = rng.choice((2, 3, 4))
        count = dim + rng.randint(1, 3)
        cfg = random_generic(dim, count, seed=repr(("dlog", trial)))
        tan = random_tangent(count, dim, rng)
        at = TangentAssignment.make(cfg, tan)
        subset = tuple(sorted(rng.sample(range(1, count + 1), dim)))
        sym = bracket_symbol(subset)[0]
        assert dlog_eval(sym, at) == dlog_oracle(at, subset)


def test_dlog_matches_polynomial_expansion_gaussian():
    rng = random.Random(502)
    for trial in range(10):
        cfg = random_generic(2, 5, seed=repr(("gdlog", trial)),
                             gaussian=True)
        tan = tuple(tuple(GaussianRational(rng.randint(-9, 9),
                                           rng.randint(-9, 9))
                          for _ in range(2)) for _ in range(5))
        at = TangentAssignment.make(cfg, tan)
        subset = tuple(sorted(rng.sample(range(1, 6), 2)))
        sym = bracket_symbol(subset)[0]
        assert dlog_eval(sym, at) == dlog_oracle(at, subset)


def test_dlog_is_linear_in_the_tangent():
    rng = random.Random(503)
    cfg = random_generic(3, 5, seed=9)
    u = random_tangent(5, 3, rng)
    v = random_tangent(5, 3, rng)
    s = tuple(tuple(a + b for a, b in zip(ru, rv)) for ru, rv in zip(u, v))
    tripled = tuple(tuple(3 * a for a in ru) for ru in u)
    sym = bracket_symbol((1, 3, 5))[0]
    at_u = TangentAssignment.make(cfg, u)
    at_v = TangentAssignment.make(cfg, v)
    at_s = TangentAssignment.make(cfg, s)
    at_3u = TangentAssignment.make(cfg, tripled)
    assert dlog_eval(sym, at_s) == dlog_eval(sym, at_u) + dlog_eval(sym, at_v)
    assert dlog_eval(sym, at_3u) == 3 * dlog_eval(sym, at_u)


def test_dlog_scalar_symbols_are_flat():
    cfg = random_generic(2, 3, seed=3)
    at = TangentAssignment.make(cfg, random_tangent(3, 2, random.Random(1)))
    val = dlog_eval(scalar_symbol("a"), at)
    assert val == 0 and not isinstance(val, float)
    floaty = TangentAssignment.make([[1.0, 0.0], [0.0, 1.0]],
                                    [[0.5, 0.5], [0.25, 0.5]])
    # a float point was accepted and gave the float 0.0
    with pytest.raises(ContractViolation, match="not a matrix entry"):
        dlog_eval(scalar_symbol("a"), floaty)


def test_dlog_and_wedge_refuse_inexact_rows():
    # float and complex rows were taken at their binary values and the
    # exact value rounded back to a float or complex
    cfg = random_generic(2, 4, seed=4)
    rng = random.Random(2)
    u, v = random_tangent(4, 2, rng), random_tangent(4, 2, rng)
    sym = bracket_symbol((2, 4))[0]
    w = wedge_project(build_element(2).tensor, 1)
    for cast in (float, complex):
        base = [[cast(x) for x in row] for row in cfg.vectors]
        at_u = TangentAssignment.make(base, u)
        at_v = TangentAssignment.make(base, v)
        with pytest.raises(ContractViolation, match="not a matrix entry"):
            dlog_eval(sym, at_u)
        for evaluate in (wedge_eval, wedge_eval_graded):
            with pytest.raises(ContractViolation,
                               match="not a matrix entry"):
                evaluate(w, at_u, at_v)
    # an inexact tangent row alone is refused as well
    at_f = TangentAssignment.make(cfg, [[float(x) for x in row]
                                        for row in u])
    with pytest.raises(ContractViolation, match="not a matrix entry"):
        dlog_eval(sym, at_f)


def test_dlog_contracts_and_poles():
    cfg = random_generic(2, 4, seed=5)
    at = TangentAssignment.make(cfg, random_tangent(4, 2, random.Random(3)))
    with pytest.raises(ContractViolation):
        dlog_eval(("q", (1, 2)), at)
    with pytest.raises(ContractViolation):
        dlog_eval(bracket_symbol((1, 9))[0], at)
    with pytest.raises(ContractViolation):
        dlog_eval(bracket_symbol((1, 2, 3))[0], at)
    with pytest.raises(PoleError):
        dlog_eval(bracket_symbol((2, 2))[0], at)
    degenerate = TangentAssignment.make([[1, 2], [2, 4], [0, 1]],
                                        [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(PoleError):
        dlog_eval(bracket_symbol((1, 2))[0], degenerate)


# ---------------------------------------------------------------------------
# slot evaluation over tensors


def test_tensor_slot_eval_order_and_values():
    t = MultTensor.from_terms(2, [
        ((bracket_symbol((1, 2))[0], bracket_symbol((3, 4))[0]), 2),
        ((bracket_symbol((1, 3))[0], bracket_symbol((2, 4))[0]), -1),
    ])
    cfg = random_generic(2, 4, seed=7)
    at = TangentAssignment.make(cfg, random_tangent(4, 2, random.Random(5)))
    rows = tensor_slot_eval(t, 2, at)
    assert [(slots, coeff) for slots, coeff, _ in rows] == t.items_sorted()
    for slots, _, val in rows:
        assert val == dlog_eval(slots[1], at)
    with pytest.raises(ContractViolation):
        tensor_slot_eval(t, 3, at)
    with pytest.raises(ContractViolation):
        tensor_slot_eval("t", 1, at)


# ---------------------------------------------------------------------------
# the wedge pairing


def tangent_pair(config, seed, bound=13):
    """Seeded tangent pair at a configuration's base point."""
    rng = random.Random(repr(("tangents", seed, config.dim, len(config))))
    u = random_tangent(len(config), config.dim, rng, bound)
    v = random_tangent(len(config), config.dim, rng, bound)
    return (TangentAssignment.make(config, u),
            TangentAssignment.make(config, v))


def wedge_oracle(w, at_u, at_v):
    total = 0
    for outer, entries in w.outer_groups():
        for a, b, coeff in entries:
            total = total + coeff * (
                dlog_eval(a, at_u) * dlog_eval(b, at_v)
                - dlog_eval(a, at_v) * dlog_eval(b, at_u))
    return total


def test_wedge_eval_matches_term_by_term_pairing():
    rng = random.Random(504)
    cfg = random_generic(2, 4, seed=8)
    at_u, at_v = tangent_pair(cfg, seed=31)
    syms = [bracket_symbol(p)[0]
            for p in itertools.combinations(range(1, 5), 2)]
    pairs = [((rng.choice(syms), rng.choice(syms)), rng.randint(-3, 3))
             for _ in range(12)]
    w = WedgeTensor.from_terms(2, 1, pairs)
    assert wedge_eval(w, at_u, at_v) == wedge_oracle(w, at_u, at_v)


def test_wedge_eval_is_antisymmetric_in_the_tangents():
    cfg = random_generic(2, 4, seed=9)
    at_u, at_v = tangent_pair(cfg, seed=32)
    w = wedge_project(build_tensor_for_wedge(), 1)
    val = wedge_eval(w, at_u, at_v)
    assert wedge_eval(w, at_v, at_u) == -val
    assert wedge_eval(w, at_u, at_u) == 0


def build_tensor_for_wedge():
    return MultTensor.from_terms(2, [
        ((bracket_symbol((1, 2))[0], bracket_symbol((1, 3))[0]), 1),
        ((bracket_symbol((2, 3))[0], bracket_symbol((2, 4))[0]), 3),
    ])


def test_wedge_eval_graded_sums_to_total():
    cfg = random_generic(3, 6, seed=10)
    at_u, at_v = tangent_pair(cfg, seed=33)
    from grasspoly.elements import build_element
    w = wedge_project(build_element(3).tensor, 2)
    graded = wedge_eval_graded(w, at_u, at_v)
    assert sum(val for _, val in graded) == wedge_eval(w, at_u, at_v)
    assert [outer for outer, _ in graded] == sorted(
        outer for outer, _ in w.outer_groups())
    for outer, _ in graded:
        assert len(outer) == 1


def test_wedge_eval_base_mismatch():
    cfg_a = random_generic(2, 4, seed=11)
    cfg_b = random_generic(2, 4, seed=12)
    at_u, _ = tangent_pair(cfg_a, seed=34)
    _, at_v = tangent_pair(cfg_b, seed=34)
    w = wedge_project(build_tensor_for_wedge(), 1)
    with pytest.raises(ContractViolation):
        wedge_eval(w, at_u, at_v)
    with pytest.raises(ContractViolation):
        wedge_eval("w", at_u, at_u)
    with pytest.raises(ContractViolation):
        wedge_eval_graded("w", at_u, at_u)


# ---------------------------------------------------------------------------
# the integer kernel against the plain Fraction evaluation


def fraction_det(rows):
    """Determinant by Gaussian elimination over the entries as given."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    det = Fraction(sign)
    for i in range(n):
        det = det * m[i][i]
    return det


def fraction_dlog(symbol, at):
    kind, ix = symbol
    if kind == SCALAR:
        return Fraction(0)
    assert kind == BRACKET
    if len(set(ix)) != len(ix):
        raise PoleError(f"degenerate bracket {symbol_to_str(symbol)}: "
                        "repeated label")
    rows = [at.base[i - 1] for i in ix]
    det = fraction_det(rows)
    if det == 0:
        raise PoleError(f"bracket {symbol_to_str(symbol)} vanishes at base")
    num = 0
    for r in range(len(rows)):
        repl = list(rows)
        repl[r] = at.tangent[ix[r] - 1]
        num = num + fraction_det(repl)
    return num / det


def fraction_wedge_graded(w, at_u, at_v):
    cache = {}
    out = []
    for outer, entries in w.outer_groups():
        total = 0
        for a, b, coeff in entries:
            for s in (a, b):
                if s not in cache:
                    cache[s] = (fraction_dlog(s, at_u), fraction_dlog(s, at_v))
            total = total + coeff * (cache[a][0] * cache[b][1]
                                     - cache[a][1] * cache[b][0])
        out.append((outer, total))
    return out


def rational(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def gauss_rational(rng, bound=9):
    return GaussianRational(rational(rng, bound), rational(rng, bound))


def random_point(dim, count, entry, rng):
    """A generic configuration and a tangent pair, all drawn by `entry`."""
    while True:
        cfg = Configuration(dim, [[entry(rng) for _ in range(dim)]
                                  for _ in range(count)])
        if cfg.is_generic():
            break
    u, v = ([[entry(rng) for _ in range(dim)] for _ in range(count)]
            for _ in range(2))
    return TangentAssignment.make(cfg, u), TangentAssignment.make(cfg, v)


def assert_matches_fraction_oracle(w, at_u, at_v):
    graded = wedge_eval_graded(w, at_u, at_v)
    expected = fraction_wedge_graded(w, at_u, at_v)
    assert graded == expected
    assert [str(v) for _, v in graded] == [str(v) for _, v in expected]
    assert [type(v) for _, v in graded] == [type(v) for _, v in expected]
    assert wedge_eval(w, at_u, at_v) == sum(v for _, v in expected)


@pytest.mark.parametrize("entry", [rational, gauss_rational],
                         ids=["fraction", "gaussian"])
def test_kernel_matches_fraction_oracle_on_non_integer_points(entry):
    # row scaling must clear mixed denominators in base and tangent rows
    rng = random.Random(601)
    element = build_element(3).tensor
    for _ in range(3):
        at_u, at_v = random_point(3, 6, entry, rng)
        for sym in {s for slots in element.terms for s in slots}:
            assert dlog_eval(sym, at_u) == fraction_dlog(sym, at_u)
        for k in (1, 2):
            assert_matches_fraction_oracle(wedge_project(element, k),
                                           at_u, at_v)


def test_kernel_folds_fraction_coefficients():
    lhs, rhs = steinberg_wedge_sides()
    halves = WedgeTensor(2, 1, {slots: Fraction(c, 2)
                                for slots, c in rhs.terms.items()})
    mixed = WedgeTensor(2, 1, {slots: Fraction(c, 2 + i % 3)
                               for i, (slots, c)
                               in enumerate(sorted(lhs.terms.items()))})
    rng = random.Random(602)
    for entry in (rational, gauss_rational):
        at_u, at_v = random_point(2, 4, entry, rng)
        for w in (lhs, rhs, halves, mixed):
            assert_matches_fraction_oracle(w, at_u, at_v)


def test_kernel_matches_fraction_oracle_on_a_mutated_element():
    flipped = flip_first_term(build_element(3).tensor)
    nonzero = 0
    for gaussian in (False, True):
        cfg = random_generic(3, 6, seed=603, gaussian=gaussian)
        at_u, at_v = tangent_pair(cfg, seed=603)
        for k in (1, 2):
            w = wedge_project(flipped, k)
            assert_matches_fraction_oracle(w, at_u, at_v)
            nonzero += sum(1 for _, v in wedge_eval_graded(w, at_u, at_v)
                           if v != 0)
    assert nonzero > 0


def test_kernel_pole_message_matches_fraction_oracle():
    # D[1,2] vanishes: vectors 1 and 2 are proportional
    at_u = TangentAssignment.make([[1, 2], [2, 4], [0, 1], [1, 1]],
                                  [[1, 0], [0, 1], [1, 1], [2, 1]])
    at_v = TangentAssignment.make(at_u.base,
                                  [[0, 3], [1, 1], [2, 0], [1, 5]])
    w = WedgeTensor.from_terms(2, 1, [
        ((bracket_symbol((1, 3))[0], bracket_symbol((2, 4))[0]), 1),
        ((bracket_symbol((3, 4))[0], bracket_symbol((1, 2))[0]), 2)])
    with pytest.raises(PoleError) as expected:
        fraction_wedge_graded(w, at_u, at_v)
    with pytest.raises(PoleError) as got:
        wedge_eval_graded(w, at_u, at_v)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "bracket D[1,2] vanishes at base"
