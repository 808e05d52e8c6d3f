"""Scissor-congruence generators, their coproduct, and tensor expansion.

The weight-k group is generated by pairs of simplices <prefix | L; M>
where L and M are (k+1)-tuples of abstract vector labels and the prefix is
a (possibly empty) set of projection centers: the generator of the
configuration obtained by projecting everything from those centers.
Canonical form sorts L and M, absorbing the sign of the sorting
permutations into the coefficient (skew-symmetry is an exact relation of
these groups, not a mod-2 one), and sorts the prefix, whose order carries
no sign because projections commute.  A repeated label inside L or inside
M makes the generator zero by skew-symmetry; a label shared with the
prefix degenerates the simplex and also gives zero.

Expressions are linear combinations of factor tuples, each factor either a
generator or a multiplicative monomial of bracket symbols.  The coproduct
of a generator lands in such two-factor expressions, with the factor order
exactly as in the coproduct formulas.  Write L = (l_0..l_w), M = (m_0..m_w)
and p for the inherited prefix; at every weight the (w-1, 1) component is
one face-deletion sum moving l_i (and, at weight 2, m_j) into the prefix:

* weight w >= 3 (generator left, bracket right):
    - sum_{i,j} (-1)^(i+j) <p,l_i | L\\l_i; M\\m_j> (x) D(p, l_i, M\\m_j)

* weight 2: the defining formula is -(1/8) times the double alternation
  over both simplices of D(p,m0,l1,l2) (x) <p,m0 | l1,l2; m1,m2> +
  <p,l0 | l1,l2; m1,m2> (x) D(p,l0,m1,m2).  Swapping l1, l2 (or m1, m2)
  keeps each summand's key and flips its sign twice, so the four orders
  sharing (l0, m0) = (l_i, m_j) give equal terms: it is the sum above halved,
  with the summand D(p, m_j, L\\l_i) (x) <p,m_j | L\\l_i; M\\m_j> added
  (both tensor orders appear).

One loop builds both.  Dropping a label from a sorted simplex keeps it
sorted, so each sub-generator is canonical with sign +1 once its new
center joins the prefix; it vanishes when that center lies in the other
simplex.

Iterating the coproduct down to weight 1 and then turning every weight-1
generator into its projected cross-ratio monomial

    <p | l0,l1; m0,m1>  ->  D(p,l0,m0) D(p,l1,m1) / (D(p,l1,m0) D(p,l0,m1))

expands an expression into a canonical MultTensor.  That composite is the
maximal iterated coproduct of the coalgebra, realized purely in terms of
the (w-1,1) components.  The face-deletion sums and the cross-ratio map
are written in labels and alternate in each simplex, the prefix is a set,
and every vanishing test compares label sets; so the expansion commutes
with relabelling, up to the sign of canonicalisation.  Each generator is
therefore expanded once per label pattern: renumbered 1..k in order of
first appearance (its standard form), expanded and cached, and mapped back
through its labels: the expansion's symbols are relabelled once per
label order, and each term picks its slots out of them by index.  The 70
weight-3 generators of the degree-4 pairing element share one standard
form, and the whole expansion needs three.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import ContractViolation, DegeneracyError
from .tensors import (BRACKET, MultTensor, bracket_symbol, symbol_to_str,
                      _combine, _LinearCombination,
                      _sort_with_sign, _vector_labels)

GEN = "g"
MONO = "m"

# Entries kept by each memoised function of this module, so a long-lived
# process holds bounded memory whatever it expands.
CACHE_SIZE = 4096


class AomotoGen(NamedTuple):
    """Canonical simplex-pair generator <prefix | left; right>."""

    prefix: tuple
    left: tuple
    right: tuple

    @property
    def weight(self):
        return len(self.left) - 1

    def __str__(self):
        pre = ",".join(str(i) for i in self.prefix)
        l = ",".join(str(i) for i in self.left)
        r = ",".join(str(i) for i in self.right)
        return f"A_{self.weight}[{pre}|{l};{r}]"


def make_gen(prefix, left, right):
    """Canonicalize a generator; returns (gen, sign) or (None, 0).

    None means the generator vanishes: a repeated label within left or
    right (skew-symmetry), or a simplex label equal to a projection center
    (degenerate simplex in the quotient).
    """
    prefix = tuple(int(i) for i in prefix)
    left = tuple(int(i) for i in left)
    right = tuple(int(i) for i in right)
    if len(left) != len(right):
        raise ContractViolation(
            f"simplices must have equal size, got {len(left)} and {len(right)}")
    if len(left) < 2:
        raise ContractViolation("simplices need at least 2 labels")
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        return None, 0
    pset = set(prefix)
    if len(pset) != len(prefix):
        return None, 0
    if pset & (set(left) | set(right)):
        return None, 0
    ls, s1 = _sort_with_sign(left)
    rs, s2 = _sort_with_sign(right)
    return AomotoGen(tuple(sorted(prefix)), ls, rs), s1 * s2


class AomotoExpr(_LinearCombination):
    """Linear combination of factor tuples (generators and monomials)."""

    __slots__ = ()
    _sort_key = staticmethod(repr)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", dict(terms or {}))

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def from_terms(cls, pairs):
        def checked():
            for factors, coeff in pairs:
                key = tuple(factors)
                for f in key:
                    if f[0] not in (GEN, MONO):
                        raise ContractViolation(f"bad factor tag {f[0]!r}")
                yield key, coeff

        return cls(_combine(checked()))

    @classmethod
    def of_gen(cls, gen, coeff=1):
        return cls.from_terms([(((GEN, gen),), coeff)])

    @staticmethod
    def _factor_strs(factors):
        out = []
        for tag, payload in factors:
            if tag == GEN:
                out.append(str(payload))
            else:
                for sym, e in payload:
                    out.append(symbol_to_str(sym)
                               + (f"^{e}" if e != 1 else ""))
        return out

    def _key_str(self, factors):
        return " (x) ".join(self._factor_strs(factors))


def _mono(*signed_brackets):
    """Monomial factor from (labels, exponent) pairs, mod-2 canonical.
    The labels are those of canonical generators, so already ints."""
    return (MONO, tuple(((BRACKET, tuple(sorted(labels))), e)
                        for labels, e in signed_brackets))


def _coproduct_terms(gen):
    """The (w-1, 1) face-deletion sum of the module docstring, for any
    weight >= 2.  A directly constructed generator is canonicalised once
    here, so unsorted or repeated labels give its sign times the canonical
    image; the terms' keys are distinct, so no combining is needed."""
    canon, sign = make_gen(gen.prefix, gen.left, gen.right)
    if canon is None:
        return AomotoExpr.zero()
    p, L, M = canon.prefix, canon.left, canon.right
    both = canon.weight == 2
    unit = Fraction(sign, 2) if both else sign
    terms = {}
    for i, li in enumerate(L):
        lrest = L[:i] + L[i + 1:]
        pl = tuple(sorted(p + (li,)))
        for j, mj in enumerate(M):
            mrest = M[:j] + M[j + 1:]
            c = unit if (i + j) % 2 else -unit
            if both and mj not in lrest:
                # D(p, m_j, L\l_i) (x) <p, m_j | L\l_i; M\m_j>
                pm = tuple(sorted(p + (mj,)))
                terms[_mono((pm + lrest, 1)),
                      (GEN, AomotoGen(pm, lrest, mrest))] = c
            if li not in mrest:
                # <p, l_i | L\l_i; M\m_j> (x) D(p, l_i, M\m_j)
                terms[(GEN, AomotoGen(pl, lrest, mrest)),
                      _mono((pl + mrest, 1))] = c
    return AomotoExpr(terms)


@lru_cache(maxsize=CACHE_SIZE)
def coproduct_weight2(gen):
    """Coproduct of a weight-2 generator into weight-1 (x) bracket terms,
    in both tensor orders."""
    if not isinstance(gen, AomotoGen):
        raise ContractViolation("coproduct_weight2 expects a generator")
    if gen.weight != 2:
        raise ContractViolation(
            f"coproduct_weight2 needs weight 2, got {gen.weight}")
    return _coproduct_terms(gen)


@lru_cache(maxsize=CACHE_SIZE)
def coproduct_higher(gen):
    """Coproduct component of a generator of weight >= 3 into
    weight-(w-1) (x) bracket terms, generator in the left slot."""
    if not isinstance(gen, AomotoGen):
        raise ContractViolation("coproduct_higher expects a generator")
    w = gen.weight
    if w < 3:
        raise ContractViolation(
            f"coproduct_higher needs weight >= 3, got {w}")
    return _coproduct_terms(gen)


def coproduct(gen):
    """Weight-graded coproduct component (w-1, 1) of a generator."""
    if not isinstance(gen, AomotoGen):
        raise ContractViolation("coproduct expects a generator")
    if gen.weight == 2:
        return coproduct_weight2(gen)
    if gen.weight >= 3:
        return coproduct_higher(gen)
    raise ContractViolation("weight-1 generators have no reduced coproduct")


@lru_cache(maxsize=CACHE_SIZE)
def cross_ratio_monomial(gen):
    """The multiplicative monomial of a weight-1 generator.

    <p | l0,l1; m0,m1> maps to the projected cross-ratio
    D(p,l0,m0) D(p,l1,m1) / (D(p,l1,m0) D(p,l0,m1)), returned as a slot
    monomial of four bracket symbols with exponents +-1.
    """
    if not isinstance(gen, AomotoGen):
        raise ContractViolation("cross_ratio_monomial expects a generator")
    if gen.weight != 1:
        raise ContractViolation(
            f"cross_ratio_monomial needs weight 1, got {gen.weight}")
    p = gen.prefix
    (l0, l1), (m0, m1) = gen.left, gen.right
    return _mono((p + (l0, m0), 1), (p + (l1, m1), 1),
                 (p + (l1, m0), -1), (p + (l0, m1), -1))[1]


def expand_to_tensor(expr, arity):
    """Expand an expression into a canonical MultTensor of given arity.

    Each term is the product of its factors' expansions: a monomial
    factor gives its atoms, one slot, and a generator of weight w gives
    its relabelled standard-form expansion (_standard_expansion), w slots.
    A term whose slot count differs from `arity` is a contract violation:
    the expression does not reduce to the requested depth.

    Coefficients stay integers throughout: the terms are summed as int
    numerators over one running denominator (_sum_products), and a
    Fraction is made only for a key whose total is not integral.  When
    the denominator is 1 and no total is 0, as for the pairing element,
    the totals are the store as they stand.
    """
    if isinstance(expr, AomotoGen):
        expr = AomotoExpr.of_gen(expr)
    if not isinstance(expr, AomotoExpr):
        raise ContractViolation("expand_to_tensor expects an expression")
    arity = int(arity)

    for factors in expr.terms:
        slots = sum(f[1].weight if f[0] == GEN else 1 for f in factors)
        if slots != arity:
            raise ContractViolation(
                f"term reduces to {slots} slots, expected {arity}")
    den, totals = _sum_products(expr.terms.items())
    if den == 1 and all(totals.values()):
        return MultTensor(arity, totals)
    out = {}
    for key, num in totals.items():
        if num:
            q, r = divmod(num, den)
            out[key] = q if not r else Fraction(num, den)
    return MultTensor(arity, out)


def _standard_form(gen):
    """(std, sign, order) with gen = sign * (std relabelled by order).

    The labels are renumbered 1..k in order of first appearance (prefix,
    left simplex, then the right simplex's own labels) and the result is
    canonicalised by make_gen, which gives the sign; order[k - 1] is the
    original label of k.  std is None when gen vanishes (a repeated label,
    or a prefix label inside a simplex): those are label-set tests, so
    they hold for gen exactly when for its renumbering.
    """
    order = tuple(dict.fromkeys(
        int(i) for part in (gen.prefix, gen.left, gen.right) for i in part))
    new = {label: k for k, label in enumerate(order, 1)}
    std, sign = make_gen(*(tuple(new[int(i)] for i in part)
                           for part in (gen.prefix, gen.left, gen.right)))
    return std, sign, order


def _expand_factors(factors, relabels):
    """(den, [(key, numerator), ...]): the product of the factors'
    expansions.  relabels memoises, for one expansion, the symbols of
    each (standard form, order) mapped through order and re-sorted
    (brackets are mod 2, so no sign); each term of the standard
    expansion picks its key out of them by index."""
    den, items = 1, None
    for tag, payload in factors:
        if tag == GEN:
            std, sign, order = _standard_form(payload)
            if std is None:
                return 1, ()
            d, symbols, part = _standard_expansion(std)
            relabel = relabels.get((std, order))
            if relabel is None:
                relabel = relabels[std, order] = tuple(
                    (kind, tuple(sorted(order[i - 1] for i in labels)))
                    for kind, labels in symbols)
            den *= d
            part = [(pick(relabel), sign * c) for pick, c in part]
        else:
            part = [((sym,), e) for sym, e in payload]
        items = part if items is None else [
            (k1 + k2, c1 * c2) for k1, c1 in items for k2, c2 in part]
    return den, items


def _sum_products(terms):
    """(den, {key: numerator}): the sum over (factors, coeff) terms of
    coeff times the product of the factors' expansions, as int numerators
    over one running denominator.  A term's denominator is its factors'
    expansion denominator times coeff's; only when that does not divide
    the running one are the numerators summed so far rescaled to the lcm."""
    den, totals, relabels = 1, {}, {}
    get = totals.get
    for factors, coeff in terms:
        d, items = _expand_factors(factors, relabels)
        d *= coeff.denominator
        if den % d:
            scale = lcm(den, d) // den
            for key in totals:
                totals[key] *= scale
            den *= scale
        num = coeff.numerator * (den // d)
        for key, c in items:
            totals[key] = get(key, 0) + c * num
    return den, totals


@lru_cache(maxsize=CACHE_SIZE)
def _standard_expansion(std):
    """(den, symbols, ((pick, numerator), ...)): the depth-w expansion of
    a standard-form generator, int numerators over one denominator in
    lowest terms, zeros dropped.  symbols holds the expansion's bracket
    symbols in order of first use, and each term's pick is an itemgetter
    of the indices of its slots: pick(symbols) is its key.  A relabelling
    then maps each symbol once, and each key is made by indexing.

    Weight 1 is the cross-ratio monomial.  At weight w >= 2 each term of
    coproduct(std) is the product of its factors' expansions, and each
    generator factor recurses through its own standard form; the terms are
    summed over one running denominator (_sum_products), then reduced.
    """
    index = {}

    def pick(key):
        ix = [index.setdefault(sym, len(index)) for sym in key]
        # an itemgetter of one index returns the item, of a slice a tuple
        return itemgetter(*ix) if len(ix) > 1 else itemgetter(
            slice(ix[0], ix[0] + 1))

    if std.weight == 1:
        items = tuple((pick((sym,)), e)
                      for sym, e in cross_ratio_monomial(std))
        return 1, tuple(index), items
    den, totals = _sum_products(coproduct(std).terms.items())
    nums = [num for num in totals.values() if num]
    g = gcd(den, *nums)
    items = tuple((pick(key), num // g)
                  for key, num in totals.items() if num)
    return den // g, tuple(index), items


def additivity_residue(weight, dual=False, side="left"):
    """Tensor expansion of a simplex-addition alternating sum.

    The pool of labels 1..weight+2 fills one simplex of a weight-`weight`
    generator, each summand omitting one pool label with an alternating
    sign; the other simplex is fixed at labels weight+3..2*weight+3.
    side selects which simplex takes the pool.  With dual=True the omitted
    label is prepended as a projection center instead of being dropped.
    All four sums (two sides, plain and dual) are relations of the
    generator groups, so their depth-`weight` expansions must be the zero
    tensor; the returned MultTensor is that expansion.
    """
    weight = int(weight)
    if weight < 2:
        raise ContractViolation("additivity expansion needs weight >= 2")
    if side not in ("left", "right"):
        raise ContractViolation(f"side must be left or right, got {side!r}")
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
    return expand_to_tensor(AomotoExpr.from_terms(pairs), weight)


def pairing_element_labels(n, labels=None, prefix=()):
    """Alternated simplex-pair element over 2n labels.

    Alt over all arrangements (x1..x2n) of the labels of
    <prefix | x1..xn; x(n+1)..x2n>  (x)  D(prefix, x(n+1), ..., x(2n)),
    a weight-(n-1) expression whose tensor expansion of depth n matches a
    multiple of the sliding-window bracket element; see elements.py.

    The n!^2 arrangements that put the same labels in the left simplex
    give one canonical key with one sign, so the sum runs over the
    C(2n, n) position splits: each split is made once, with coefficient
    (n!)^2 times the sign of the shuffle (left positions, then right
    positions, each ascending) times the sorting sign of make_gen.
    """
    n = int(n)
    if n < 2:
        raise ContractViolation("pairing element needs n >= 2")
    labels = _vector_labels(n, labels)
    prefix = tuple(int(i) for i in prefix)
    multiplicity = factorial(n) ** 2

    def splits():
        for left in combinations(range(2 * n), n):
            right = tuple(k for k in range(2 * n) if k not in left)
            gen, gs = make_gen(prefix, [labels[k] for k in left],
                               [labels[k] for k in right])
            if gen is None:
                continue
            sym, _ = bracket_symbol(prefix + tuple(labels[k] for k in right))
            coeff = multiplicity * _sort_with_sign(left + right)[1] * gs
            yield ((GEN, gen), (MONO, ((sym, 1),))), coeff

    return AomotoExpr(_combine(splits()))


def pairing_element(config):
    """Validated form of pairing_element_labels for a concrete generic
    configuration of 2n vectors in dimension n, labelled 1..2n."""
    from .configurations import Configuration

    if not isinstance(config, Configuration):
        raise ContractViolation("pairing_element expects a Configuration")
    n = config.dim
    if len(config) != 2 * n:
        raise ContractViolation(
            f"need 2n = {2*n} vectors in dimension {n}, got {len(config)}")
    cert = config.is_generic()
    if not cert:
        raise DegeneracyError(
            f"configuration is not generic: subset {cert.failing_subset}")
    return pairing_element_labels(n)
