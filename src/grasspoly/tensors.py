"""Canonical integer-linear combinations of multiplicative symbol tensors.

Elements here model sums of n-fold tensors of multiplicative symbols,
written additively and taken modulo 2-torsion.  Concretely:

* A symbol is either a determinant bracket D[i1,...,ik] over abstract
  vector labels, or a named scalar such as "a".  Bracket index lists are
  stored sorted; the sign of the sorting permutation is discarded, which
  is exactly the mod-2-torsion identification x = -x of the multiplicative
  group written additively.  bracket_symbol(..., signed=True) keeps that
  sign instead, for diagnostics of identities that only hold mod 2.
* A slot of a term is a single symbol.  Products inside a slot are
  expanded by multi-additivity when a tensor is built (tensor_of_slots),
  so a slot holding a^2 b^-1 becomes two stored terms with coefficients
  +2 and -1.
* Terms live in a dict keyed by the tuple of slot symbols, with exact
  rational coefficients (integers stay integers).  Zero coefficients are
  pruned eagerly, so equality of canonical forms is dict equality and the
  zero tensor is the empty dict.
* MultTensor, WedgeTensor and aomoto.AomotoExpr share one private base,
  _LinearCombination: immutability, the queries, sums, negation, scalar
  multiples, equality, hashing, repr and str live there once.  Each type
  adds only its shape, its term order and how one key prints.

Alternation helpers stream over permutations with cached parities; nothing
materializes the full symmetric group action term lists beyond the merged
result.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product
from math import prod
from operator import itemgetter

from .errors import ContractViolation

# A symbol is ("D", (i1, ..., ik)) or ("S", label).
BRACKET = "D"
SCALAR = "S"


def bracket_symbol(indices, signed=False):
    """Canonical bracket symbol over abstract labels, with its sign.

    Returns (symbol, sign).  With signed=False (mod-2 semantics, the
    default) the sign is always +1.  With signed=True the sign is the
    parity of the permutation sorting the given index order.  Repeated
    labels are allowed here; they denote the zero function and are flagged
    by evaluation, not by construction.
    """
    ix = tuple(int(i) for i in indices)
    if not ix:
        raise ContractViolation("empty bracket")
    if signed:
        ordered, sign = _sort_with_sign(ix)
        return (BRACKET, ordered), sign
    return (BRACKET, tuple(sorted(ix))), 1


def scalar_symbol(label):
    """Named multiplicative scalar, e.g. a deformation parameter.  A label
    holding "[" or "]", or with surrounding whitespace, is refused, so
    that parse_symbol reads every printed symbol back as itself."""
    label = str(label)
    if not label:
        raise ContractViolation("empty scalar label")
    if "[" in label or "]" in label or label != label.strip():
        raise ContractViolation(
            f"scalar label {label!r} holds a bracket or surrounding space")
    return (SCALAR, label)


def symbol_sort_key(sym):
    kind, payload = sym
    if kind == BRACKET:
        return (0, len(payload), payload)
    return (1, payload)


def symbol_to_str(sym):
    kind, payload = sym
    if kind == BRACKET:
        return "D[" + ",".join(str(i) for i in payload) + "]"
    return payload


def parse_symbol(s):
    """The symbol that symbol_to_str prints as `s`: a bracket D[i,j,...]
    of integer labels, or a scalar label.  Other text holding "[" or "]",
    and a bracket with an empty label, is refused rather than read as a
    scalar, whose d log is zero, or as a bracket without that label."""
    if not isinstance(s, str):
        raise ContractViolation(f"a symbol is a string, got {s!r}")
    s = s.strip()
    if s.startswith(BRACKET + "[") and s.endswith("]"):
        parts = s[2:-1].split(",")
        if not all(p.strip() for p in parts):
            raise ContractViolation(
                f"malformed bracket {s!r}: a label is empty")
        try:
            ix = tuple(int(p) for p in parts)
        except ValueError:
            raise ContractViolation(
                f"bracket labels must be integers: {s!r}") from None
        return bracket_symbol(ix)[0]
    if "[" in s or "]" in s:
        raise ContractViolation(
            f"malformed bracket {s!r}: a bracket is D[i,j,...]")
    if not s:
        raise ContractViolation("empty symbol string")
    return scalar_symbol(s)


def _sort_with_sign(seq):
    """(sorted tuple, sign of the sorting permutation); the sign is
    (-1)^(number of inversions)."""
    lst = tuple(seq)
    inv = 0
    for a in range(len(lst)):
        la = lst[a]
        for b in range(a + 1, len(lst)):
            if la > lst[b]:
                inv += 1
    return tuple(sorted(lst)), (-1 if inv % 2 else 1)


@lru_cache(maxsize=16)
def _parities(k):
    """The signs of the permutations of range(k), in lexicographic order.

    In that order the permutations come in k blocks, block j those that
    lead with j.  A leading j precedes exactly j smaller entries, so
    block j carries the signs of the k - 1 table, flipped when j is odd.
    Zipped with itertools.permutations(range(k)), this streams the
    signed permutations without keeping them."""
    signs = [1]
    for m in range(2, k + 1):
        flipped = [-s for s in signs]
        signs = (signs + flipped) * (m // 2) + (signs if m % 2 else [])
    return tuple(signs)


@lru_cache(maxsize=16)
def perms_with_signs(k):
    """All permutations of range(k) with their parities (_parities),
    lexicographic.  The cache is bounded, and holds the tables of every
    k <= 9 at once."""
    return tuple(zip(permutations(range(k)), _parities(k)))


def _norm_coeff(c):
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _combine(pairs):
    """Canonical coefficient store of (key, coeff) pairs: coefficients of
    equal keys summed, zero entries dropped, integral Fractions made int."""
    acc = {}
    get = acc.get
    for key, coeff in pairs:
        old = get(key)
        acc[key] = coeff if old is None else old + coeff
    return {k: _norm_coeff(v) for k, v in acc.items() if v}


_symbol, _exponent = itemgetter(0), itemgetter(1)


def _expand_slots(slots, coeff=1):
    """Multi-additive expansion of slot monomials.

    Each slot is a sequence of (symbol, exponent) pairs.  Yields one
    (symbols, coeff * exponents) pair per choice of one atom from every
    slot, so the slots a^2 b^-1 and c give (a, c) with 2 and (b, c) with -1.
    """
    for combo in product(*slots):
        yield tuple(map(_symbol, combo)), coeff * prod(map(_exponent, combo))


def _term_sort_key(kv):
    return tuple(symbol_sort_key(s) for s in kv[0])


def _coeff_to_json(c):
    c = _norm_coeff(c)
    if isinstance(c, int):
        return c
    return str(c)


def _coeff_from_json(c):
    """An integer, or a rational string "p/q"; JSON true and false, which
    Python reads as the ints 1 and 0, are refused."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str):
        try:
            return _norm_coeff(Fraction(c))
        except (ValueError, ZeroDivisionError):
            pass
    raise ContractViolation(f"bad coefficient {c!r}")


class _LinearCombination:
    """Immutable canonical linear combination: the terms dict of _combine
    together with a shape that sums and equality must agree on.

    A subclass stores its shape in its own slots, named in order by _SHAPE
    and passed to its constructor before the terms.  It also says how one
    key prints (_key_str) and, unless items sort by _term_sort_key, how
    (key, coeff) items sort (_sort_key).  Everything else, the algebra,
    equality, hashing, repr and str, lives here once.
    """

    __slots__ = ("terms",)
    _SHAPE = ()
    _sort_key = staticmethod(_term_sort_key)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _shape(self):
        return tuple(getattr(self, field) for field in self._SHAPE)

    # -- queries -----------------------------------------------------------

    @property
    def term_count(self):
        return len(self.terms)

    def is_zero(self):
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items(), key=self._sort_key)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        shape = self._shape()
        if other._shape() != shape:
            raise ContractViolation(
                ", ".join(self._SHAPE) + " mismatch in tensor sum")
        return type(self)(*shape, _combine(
            chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return type(self)(*self._shape(),
                          {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return type(self)(*self._shape(), {})
        # the keys are distinct and a nonzero scalar keeps every
        # coefficient nonzero, so there is nothing to merge or drop
        return type(self)(*self._shape(), {
            k: _norm_coeff(v * scalar) for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __hash__(self):
        return hash(self._shape() + (frozenset(self.terms.items()),))

    def __repr__(self):
        shape = "".join(f"{field}={value}, " for field, value
                        in zip(self._SHAPE, self._shape()))
        return f"{type(self).__name__}({shape}{len(self.terms)} terms)"

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(f"{coeff} * {self._key_str(key)}"
                            for key, coeff in self.items_sorted())


class MultTensor(_LinearCombination):
    """Canonical linear combination of symbol tensors of fixed arity."""

    __slots__ = ("arity",)
    _SHAPE = ("arity",)

    def __init__(self, arity, terms=None):
        arity = int(arity)
        if arity < 1:
            raise ContractViolation("arity must be >= 1")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", dict(terms or {}))

    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def from_terms(cls, arity, pairs):
        """Build from (slots, coeff) pairs, merging and pruning zeros."""
        def keyed():
            for slots, coeff in pairs:
                key = tuple(slots)
                if len(key) != arity:
                    raise ContractViolation(
                        f"term has {len(key)} slots, expected {arity}")
                yield key, coeff

        return cls(arity, _combine(keyed()))

    def coefficient(self, slots):
        return self.terms.get(tuple(slots), 0)

    def _key_str(self, slots):
        return " (x) ".join(symbol_to_str(s) for s in slots)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "arity": self.arity,
            "terms": [
                {"coeff": _coeff_to_json(c),
                 "slots": [[symbol_to_str(s)] for s in slots]}
                for slots, c in self.items_sorted()
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            arity = int(data["arity"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractViolation(f"bad tensor payload: {exc}") from exc
        return cls.from_terms(arity, _terms_from_json(data))


def _single_symbol(slot):
    if not isinstance(slot, (list, tuple)) or len(slot) != 1:
        raise ContractViolation("canonical tensors have single-symbol slots")
    return parse_symbol(slot[0])


def _terms_from_json(data):
    """The (slots, coeff) pairs of the wire format's term list,
    data["terms"] = [{"coeff": c, "slots": [[symbol], ...]}, ...]; a
    payload or term of another shape is refused."""
    try:
        raw = list(data["terms"])
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"bad tensor payload: {exc}") from exc
    pairs = []
    for t in raw:
        try:
            coeff, raw_slots = t["coeff"], list(t["slots"])
        except (KeyError, TypeError) as exc:
            raise ContractViolation(
                f"bad tensor term {t!r}: {exc!r}") from exc
        coeff = _coeff_from_json(coeff)
        pairs.append((tuple(map(_single_symbol, raw_slots)), coeff))
    return pairs


def _vector_labels(n, labels=None):
    """The 2n distinct integer labels of the vectors of a degree-n
    element, 1..2n by default."""
    if labels is None:
        return tuple(range(1, 2 * n + 1))
    labels = tuple(int(i) for i in labels)
    if len(labels) != 2 * n:
        raise ContractViolation(f"need 2n = {2*n} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ContractViolation("labels must be distinct")
    return labels


def equal(t1, t2):
    """Canonical equality with a strict arity contract."""
    if not isinstance(t1, MultTensor) or not isinstance(t2, MultTensor):
        raise ContractViolation("equal() compares MultTensor values")
    if t1.arity != t2.arity:
        raise ContractViolation(
            f"arity mismatch: {t1.arity} vs {t2.arity}")
    return t1.terms == t2.terms


def tensor_of_slots(slots, coeff=1):
    """Tensor of slot monomials, expanded by multi-additivity.

    Each slot is a sequence of (symbol, integer exponent) pairs; the slot
    a^2 b^-1 contributes 2a - b.  The result is the fully expanded
    canonical combination of single-symbol tensors.
    """
    norm = []
    for slot in slots:
        mono = [(sym, int(e)) for sym, e in slot]
        if not mono:
            raise ContractViolation("empty slot monomial")
        norm.append(mono)
    return MultTensor(len(norm), _combine(_expand_slots(norm, coeff)))


def alt(template, k):
    """Signed sum of template(perm) over all permutations of range(k).

    template maps a position permutation to a MultTensor; the result is
    sum sgn(perm) * template(perm), merged canonically.  No 1/k! factor.
    k must be >= 0; k = 0 gives template(()).
    """
    if k < 0:
        raise ContractViolation(f"alt needs k >= 0, got {k}")
    arity = None

    def signed_terms():
        nonlocal arity
        for perm, sgn in perms_with_signs(k):
            t = template(perm)
            if arity is None:
                arity = t.arity
            elif t.arity != arity:
                raise ContractViolation("template changed arity during alt")
            for slots, c in t.terms.items():
                yield slots, sgn * c

    terms = _combine(signed_terms())
    return MultTensor(arity, terms)


class WedgeTensor(_LinearCombination):
    """A tensor with one designated adjacent slot pair antisymmetrized.

    Stores `width` slot positions; the pair sits at 1-based positions
    (pair_index, pair_index + 1) and is kept with the two symbols in
    canonical sort order, absorbing the swap sign into the coefficient.
    Terms whose pair symbols coincide vanish.  Counting the wedge pair as
    one slot, the element has arity width - 1.
    """

    __slots__ = ("width", "pair_index")
    _SHAPE = ("width", "pair_index")

    def __init__(self, width, pair_index, terms=None):
        width = int(width)
        pair_index = int(pair_index)
        if width < 2:
            raise ContractViolation("wedge tensor needs width >= 2")
        if not 1 <= pair_index <= width - 1:
            raise ContractViolation(
                f"pair index {pair_index} out of range for width {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "pair_index", pair_index)
        object.__setattr__(self, "terms", dict(terms or {}))

    @classmethod
    def from_terms(cls, width, pair_index, pairs):
        k = pair_index - 1

        def canonical():
            for slots, coeff in pairs:
                slots = tuple(slots)
                if len(slots) != width:
                    raise ContractViolation(
                        f"term has {len(slots)} slots, expected {width}")
                a, b = slots[k], slots[k + 1]
                if a == b:
                    continue
                if symbol_sort_key(a) > symbol_sort_key(b):
                    a, b = b, a
                    coeff = -coeff
                yield slots[:k] + (a, b) + slots[k + 2:], coeff

        return cls(width, pair_index, _combine(canonical()))

    @property
    def arity(self):
        return self.width - 1

    def outer_groups(self):
        """Terms grouped by the symbols outside the wedge pair.

        Returns a sorted list of (outer_slots, [(a, b, coeff), ...]) where
        outer_slots is the tuple of non-pair slot symbols in position
        order.  The wedge of each group is an independent element, since
        distinct outer symbol tuples are independent group generators.
        """
        k = self.pair_index - 1
        groups = {}
        for slots, coeff in self.terms.items():
            outer = slots[:k] + slots[k + 2:]
            groups.setdefault(outer, []).append(
                (slots[k], slots[k + 1], coeff))
        out = []
        for outer in sorted(groups,
                            key=lambda t: tuple(symbol_sort_key(s)
                                                for s in t)):
            entries = sorted(groups[outer],
                             key=lambda e: (symbol_sort_key(e[0]),
                                            symbol_sort_key(e[1])))
            out.append((outer, entries))
        return out

    def _key_str(self, slots):
        k = self.pair_index - 1
        parts = [symbol_to_str(s) for s in slots]
        return " (x) ".join(
            parts[:k] + [f"{parts[k]} ^ {parts[k + 1]}"] + parts[k + 2:])


def wedge_project(t, k):
    """Antisymmetrize slots (k, k+1) of a MultTensor into a WedgeTensor.

    This is the projection whose vanishing is the degree-k integrability
    condition of the element at the d log level.
    """
    if not isinstance(t, MultTensor):
        raise ContractViolation("wedge_project expects a MultTensor")
    if not 1 <= k <= t.arity - 1:
        raise ContractViolation(
            f"pair index {k} out of range for arity {t.arity}")
    return WedgeTensor.from_terms(t.arity, k, t.terms.items())
