"""Exact evaluation of d log bracket forms on tangent vectors.

A point of configuration space is an m x n matrix (rows are vectors); a
tangent vector is another m x n matrix.  The logarithmic derivative of a
bracket D[S] along a tangent T at base B is

    dlog D[S](T) = (sum_r det(B[S] with row r replaced by T[S_r])) / det(B[S])

which is the directional derivative of the determinant divided by its
value.  Over rational (or Gaussian rational) bases and tangents everything
here is exact; the same code runs on floats for finite-difference checks.

Named scalar symbols are multiplicative constants, so their d log is zero.

The wedge pairing of two 1-forms on a tangent pair (u, v) is
w_a(u) w_b(v) - w_a(v) w_b(u); it annihilates Steinberg elements because
d(1-f) is parallel to df, which is what makes exact wedge evaluation a
sound certificate for vanishing in the second K-group at the d log level.
"""

from dataclasses import dataclass

from .configurations import Configuration, as_scalar, exact_det
from .errors import ContractViolation, PoleError
from .tensors import BRACKET, SCALAR, MultTensor, WedgeTensor, symbol_to_str


@dataclass(frozen=True)
class TangentAssignment:
    """A base point of configuration space together with one tangent."""

    base: tuple
    tangent: tuple

    def __post_init__(self):
        if len(self.base) != len(self.tangent):
            raise ContractViolation("base/tangent row count mismatch")
        for b, t in zip(self.base, self.tangent):
            if len(b) != len(t):
                raise ContractViolation("base/tangent width mismatch")

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
    """
    kind, payload = symbol
    if kind == SCALAR:
        return as_scalar(0) if _is_exact(at) else 0.0
    if kind != BRACKET:
        raise ContractViolation(f"unknown symbol kind {kind!r}")
    ix = payload
    if len(set(ix)) != len(ix):
        raise PoleError(f"degenerate bracket {symbol_to_str(symbol)}: "
                        "repeated label")
    if any(i < 1 or i > at.count for i in ix):
        raise ContractViolation(
            f"bracket {symbol_to_str(symbol)} indexes outside the base")
    rows = [at.base[i - 1] for i in ix]
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ContractViolation(
            f"bracket {symbol_to_str(symbol)} size {k} does not match "
            f"coordinate dimension {len(rows[0])}")
    det = exact_det(rows)
    if det == 0:
        raise PoleError(f"bracket {symbol_to_str(symbol)} vanishes at base")
    num = 0
    for r in range(k):
        repl = list(rows)
        repl[r] = at.tangent[ix[r] - 1]
        num = num + exact_det(repl)
    return num / det


def _is_exact(at):
    probe = at.base[0][0] if at.base and at.base[0] else 0
    return not isinstance(probe, (float, complex))


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


def wedge_eval(w, at_u, at_v):
    """Pair the wedge slots of a WedgeTensor with a tangent pair.

    Both assignments must share the same base point.  Each term
    contributes coeff * (w_a(u) w_b(v) - w_a(v) w_b(u)); slots outside the
    wedge pair are multiplicative spectators and count as 1.
    """
    if not isinstance(w, WedgeTensor):
        raise ContractViolation("wedge_eval expects a WedgeTensor")
    if at_u.base != at_v.base:
        raise ContractViolation("tangent pair must share one base point")
    total = 0
    for _, entries in w.outer_groups():
        total = total + _group_wedge(entries, at_u, at_v, {})
    return total


def wedge_eval_graded(w, at_u, at_v):
    """Per-outer-tuple wedge values, as a sorted list of (outer, value).

    Distinct outer symbol tuples are independent, so an element whose
    wedge vanishes must vanish on every graded piece; this is the form the
    integrability certificate consumes.
    """
    if not isinstance(w, WedgeTensor):
        raise ContractViolation("wedge_eval_graded expects a WedgeTensor")
    if at_u.base != at_v.base:
        raise ContractViolation("tangent pair must share one base point")
    cache = {}
    return [(outer, _group_wedge(entries, at_u, at_v, cache))
            for outer, entries in w.outer_groups()]


def _group_wedge(entries, at_u, at_v, cache):
    total = 0
    for a, b, coeff in entries:
        if (a, "u") not in cache:
            cache[(a, "u")] = dlog_eval(a, at_u)
            cache[(a, "v")] = dlog_eval(a, at_v)
        if (b, "u") not in cache:
            cache[(b, "u")] = dlog_eval(b, at_u)
            cache[(b, "v")] = dlog_eval(b, at_v)
        total = total + coeff * (cache[(a, "u")] * cache[(b, "v")]
                                 - cache[(a, "v")] * cache[(b, "u")])
    return total
