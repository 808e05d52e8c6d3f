"""Exact evaluation of d log bracket forms on tangent vectors.

A point of configuration space is an m x n matrix (rows are vectors); a
tangent vector is another m x n matrix.  The logarithmic derivative of a
bracket D[S] along a tangent T at base B is

    dlog D[S](T) = (sum_r det(B[S] with row r replaced by T[S_r])) / det(B[S])

which is the directional derivative of the determinant divided by its
value.  Named scalar symbols are multiplicative constants, so their d log
is zero.

The wedge pairing of two 1-forms on a tangent pair (u, v) is
w_a(u) w_b(v) - w_a(v) w_b(u); it annihilates Steinberg elements because
d(1-f) is parallel to df, which is what makes exact wedge evaluation a
sound certificate for vanishing in the second K-group at the d log level.

Evaluation runs on a fraction-free integer kernel, one base point at a
time:

1. Base row i and every tangent row i are scaled by the lcm of their
   denominators.  This leaves every d log unchanged and makes every entry
   an integer (a Gaussian integer when some entry is a GaussianRational).
2. Each bracket determinant and each row-replacement numerator comes
   from integer Bareiss elimination (configurations._bareiss).
3. With 1/d = conj(d)/N(d) for a Gaussian d (sign(d)/|d| for an integer),
   every d log is rescaled to one common denominator L per point, the
   lcm of the norms N(d).
4. A wedge group's total is a Python int (or Gaussian integer) over
   scale * L**2, where scale clears the coefficients' denominators; it
   becomes a Fraction or GaussianRational once, at the end.

The values are exactly those of plain Fraction arithmetic.  Entries are
ints, Fractions or GaussianRationals; a float or complex entry is refused
(ContractViolation), since the kernel would only round its exact value.
"""

from math import lcm
from operator import mul
from typing import NamedTuple

from .configurations import (Configuration, _bareiss, _integer_rows,
                             _quotient, _reciprocal, as_scalar)
from .errors import ContractViolation, PoleError
from .tensors import BRACKET, SCALAR, MultTensor, WedgeTensor, symbol_to_str


class TangentAssignment(NamedTuple("_Tangent", [("base", tuple),
                                                ("tangent", tuple)])):
    """A base point of configuration space together with one tangent."""

    __slots__ = ()

    def __new__(cls, base, tangent):
        if len(base) != len(tangent):
            raise ContractViolation("base/tangent row count mismatch")
        for b, t in zip(base, tangent):
            if len(b) != len(t):
                raise ContractViolation("base/tangent width mismatch")
        return super().__new__(cls, base, tangent)

    @classmethod
    def make(cls, base, tangent):
        """Build from a Configuration or raw rows, plus tangent rows."""
        if isinstance(base, Configuration):
            base_rows = base.vectors
        else:
            base_rows = tuple(tuple(x for x in row) for row in base)
        tan_rows = tuple(tuple(x for x in row) for row in tangent)
        return cls(base_rows, tan_rows)

    @property
    def count(self):
        return len(self.base)


def random_tangent(count, dim, rng, bound=13):
    """Integer tangent matrix with entries in [-bound, bound]."""
    return tuple(tuple(as_scalar(rng.randint(-bound, bound))
                       for _ in range(dim))
                 for _ in range(count))


def dlog_eval(symbol, at):
    """Evaluate d log of a single symbol on a tangent assignment.

    Bracket symbols use the determinant derivative formula; named scalars
    are constants and give 0.  A vanishing bracket at the base is a pole.
    The value is exact: a Fraction, or a GaussianRational.  A float or
    complex entry is refused with ContractViolation.
    """
    table = _DlogTable(at.base, (at.tangent,), (symbol,))
    return _quotient(table.numerators[symbol][0], table.denominator)


class _DlogTable:
    """The d logs of a set of symbols at one base point, along several
    tangents, as integers over one common denominator.

    Scaling base row i and every tangent row i by one nonzero scalar
    leaves every d log unchanged, so each row group is scaled to integers
    (Gaussian integers for Gaussian entries).  For a bracket S with
    integer determinant d = det(B[S]) and row-replacement numerator n_j
    along tangent j, 1/d = u/N with N a positive int (u = sign(d) and
    N = |d|, or u = conj(d) and N = |d|^2), and with L the lcm of all the
    N, the d log along tangent j is numerators[S][j] / denominator where
    numerators[S][j] = n_j * u * (L // N) and denominator = L.  Symbols
    are checked, and raise, in the order given.
    """

    def __init__(self, base, tangents, symbols):
        self.wedges = {}
        rows, _ = _integer_rows([tuple(b) + tuple(x for t in tangents
                                                  for x in t[i])
                                 for i, b in enumerate(base)])
        widths = [len(b) for b in base]
        raw = {}
        for sym in symbols:
            if sym not in raw:
                raw[sym] = _bracket_numerators(sym, rows, widths,
                                               len(tangents))
        den = lcm(*[r[2] for r in raw.values() if r is not None])
        zero = (0,) * len(tangents)
        self.numerators = {
            sym: zero if r is None else
            tuple(x * r[1] * (den // r[2]) for x in r[0])
            for sym, r in raw.items()}
        self.denominator = den

    def wedge(self, a, b):
        """The wedge w_a(u) w_b(v) - w_a(v) w_b(u) of tangents 0 and 1,
        over denominator**2."""
        key = (a, b)
        val = self.wedges.get(key)
        if val is None:
            au, av = self.numerators[a][:2]
            bu, bv = self.numerators[b][:2]
            val = self.wedges[key] = au * bv - av * bu
        return val


def _bracket_numerators(symbol, rows, widths, ntan):
    """d log of one symbol on integer rows: None for a named scalar, else
    (row-replacement numerator per tangent, u, N) with 1/det = u/N.

    rows[i] holds base row i followed by tangent row i of each tangent;
    widths[i] is the base row's length.  The checks, and their order,
    are those dlog_eval documents.
    """
    kind, ix = symbol
    if kind == SCALAR:
        return None
    if kind != BRACKET:
        raise ContractViolation(f"unknown symbol kind {kind!r}")
    name = symbol_to_str(symbol)
    if len(set(ix)) != len(ix):
        raise PoleError(f"degenerate bracket {name}: repeated label")
    if any(i < 1 or i > len(rows) for i in ix):
        raise ContractViolation(f"bracket {name} indexes outside the base")
    k = len(ix)
    if any(widths[i - 1] != k for i in ix):
        raise ContractViolation(
            f"bracket {name} size {k} does not match coordinate "
            f"dimension {widths[ix[0] - 1]}")
    sel = [rows[i - 1] for i in ix]
    det = _bareiss([r[:k] for r in sel])[1]
    if not det:
        raise PoleError(f"bracket {name} vanishes at base")
    nums = []
    for j in range(1, ntan + 1):
        num = 0
        for r in range(k):
            m = [s[:k] for s in sel]
            m[r] = sel[r][j * k:(j + 1) * k]
            num = num + _bareiss(m)[1]
        nums.append(num)
    return (nums, *_reciprocal(det))


class _WedgeGroups:
    """The outer groups of a WedgeTensor prepared for repeated evaluation.

    Coefficients are made integers by one common scale (the lcm of their
    denominators, so a coefficient 1/2 folds in through its 2); a group's
    value at a point is its integer total over scale * L**2, where L is
    the point's d log denominator.  Each group keeps the indices of its
    wedge pairs in `pairs`; `symbols` lists the wedge symbols in the order
    the terms first use them.
    """

    def __init__(self, w):
        groups = w.outer_groups()
        scale = lcm(*[c.denominator for _, es in groups for *_, c in es])
        index = {}
        self.groups = [
            (outer,
             [index.setdefault((a, b), len(index)) for a, b, _ in entries],
             [c.numerator * (scale // c.denominator) for *_, c in entries])
            for outer, entries in groups]
        self.scale = scale
        self.pairs = list(index)
        self.symbols = list(dict.fromkeys(s for pair in index for s in pair))

    def totals(self, table):
        """Integer numerator of each group's wedge value at a point."""
        vals = [table.wedge(a, b) for a, b in self.pairs]
        return [sum(map(mul, coeffs, map(vals.__getitem__, idx)))
                for _, idx, coeffs in self.groups]

    def graded(self, table):
        """(outer, value) per group, in sorted outer order."""
        den = self.scale * table.denominator ** 2
        return [(outer, _quotient(total, den))
                for (outer, *_), total in zip(self.groups, self.totals(table))]


def tensor_slot_eval(t, k, at):
    """Evaluate d log of slot k of every term of a tensor.

    Returns a list of (slots, coefficient, value) in canonical term order,
    so downstream pairings can combine values per term deterministically.
    """
    if not isinstance(t, MultTensor):
        raise ContractViolation("tensor_slot_eval expects a MultTensor")
    if not 1 <= k <= t.arity:
        raise ContractViolation(f"slot {k} out of range for arity {t.arity}")
    out = []
    cache = {}
    for slots, coeff in t.items_sorted():
        sym = slots[k - 1]
        if sym not in cache:
            cache[sym] = dlog_eval(sym, at)
        out.append((slots, coeff, cache[sym]))
    return out


def _pair_table(w, at_u, at_v, name):
    if not isinstance(w, WedgeTensor):
        raise ContractViolation(f"{name} expects a WedgeTensor")
    if at_u.base != at_v.base:
        raise ContractViolation("tangent pair must share one base point")
    groups = _WedgeGroups(w)
    return groups, _DlogTable(at_u.base, (at_u.tangent, at_v.tangent),
                              groups.symbols)


def wedge_eval(w, at_u, at_v):
    """Pair the wedge slots of a WedgeTensor with a tangent pair.

    Both assignments must share the same base point.  Each term
    contributes coeff * (w_a(u) w_b(v) - w_a(v) w_b(u)); slots outside the
    wedge pair are multiplicative spectators and count as 1.
    """
    groups, table = _pair_table(w, at_u, at_v, "wedge_eval")
    return _quotient(sum(groups.totals(table)),
                     groups.scale * table.denominator ** 2)


def wedge_eval_graded(w, at_u, at_v):
    """Per-outer-tuple wedge values, as a sorted list of (outer, value).

    Distinct outer symbol tuples are independent, so an element whose
    wedge vanishes must vanish on every graded piece; this is the form the
    integrability certificate consumes.
    """
    groups, table = _pair_table(w, at_u, at_v, "wedge_eval_graded")
    return groups.graded(table)
