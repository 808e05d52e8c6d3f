"""The sliding-window bracket element and its identity checks.

The degree-n element over 2n labels is the signed sum over all
arrangements (x1, ..., x2n) of the labels of

    D(x1..xn) (x) D(x2..x(n+1)) (x) ... (x) D(xn..x(2n-1))

i.e. slot k holds the bracket of the k-th window of n consecutive entries;
the last entry never appears in any window of the template, which is what
makes the element scale-invariant.  Everything is canonical mod 2-torsion
(see tensors.py), and identities are verified as exact identities of
canonical forms: on a generic configuration the brackets are distinct
irreducible polynomials, hence multiplicatively independent mod constants,
so an identity of canonical symbol tensors is equivalent to the identity
of the underlying rational-function tensors mod 2-torsion.

Checks provided here:

* check_comparison: the depth-n tensor expansion of the alternated
  simplex-pair element equals (-1)^n (n!)^2 times the element.  The
  expansion goes through the coalgebra of aomoto.py, so this exercises the
  coproduct formulas end to end.
* check_omission_relations: the two alternating (2n+1)-term relations,
  plain windows and center-prepended windows, both with exact zero
  canonical residue.
* check_scale_invariance: rescaling a chosen label multiplies the
  brackets containing it by a named scalar, and the expanded difference
  cancels exactly; decided by the label's single-slot contractions.
* check_integrability: for each inner position k the wedge projection of
  the element vanishes identically as a 2-form at the d log level; this
  is certified by exact evaluation at seeded random generic rational
  configurations with random integer tangent pairs, graded by the symbols
  outside the wedge pair.
* check_steinberg_wedge: the wedge decomposition of (1 - r) ^ r for the
  bracket cross-ratio r, against one half of the alternation of
  D(v1,v2) ^ D(v1,v3), decided by the exact residue lhs - rhs alone.  No
  point is evaluated: d log(1 - r) and d log r are both multiples of dr,
  so both sides vanish at every configuration.

All reports carry a machine-readable dict (status, residue sample,
witness) and can be serialized with or without timing, since byte-stable
output is part of the command line contract.
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import NamedTuple

from .errors import ContractViolation
from .tensors import (BRACKET, MultTensor, WedgeTensor, bracket_symbol,
                      perms_with_signs, scalar_symbol, symbol_to_str,
                      wedge_project, _combine, _expand_slots, _parities,
                      _vector_labels)


# The degrees each command, verify suite and period supports.  A degree-n
# element streams (2n)! arrangements: 40320 at n = 4, 3628800 at n = 5.
DEGREES = {"element": range(1, 5), "relations": range(1, 5),
           "scale": range(1, 5), "deltar": range(1, 5),
           "comparison": range(2, 5), "integrability": range(2, 5),
           "grassmannian_tate": range(2, 5)}


def require_degree(name, n):
    """n as an int, if DEGREES lists it for `name`; else ContractViolation."""
    n, degrees = int(n), DEGREES[name]
    if n not in degrees:
        raise ContractViolation(f"{name} supports degrees {degrees[0]} to "
                                f"{degrees[-1]}, not n = {n}")
    return n


class GrassElement(NamedTuple):
    """A built element: degree, ambient labels, optional projection
    centers (prepended to every bracket), and the canonical tensor."""

    n: int
    labels: tuple
    prefix: tuple
    tensor: MultTensor


def build_element(n, labels=None, prefix=(), signed=False):
    """Canonical degree-n element over 2n labels.

    labels defaults to 1..2n.  prefix holds projection-center labels that
    are prepended to every bracket (the element of the projected
    configuration).  signed=True keeps bracket sorting signs instead of
    the mod-2 identification; the identities verified by the checks are
    only expected to hold in the default mod-2 semantics.
    """
    n = int(n)
    if n < 1:
        raise ContractViolation("degree must be >= 1")
    labels = _vector_labels(n, labels)
    prefix = tuple(int(i) for i in prefix)
    if set(prefix) & set(labels):
        raise ContractViolation("prefix labels must not occur among labels")

    # (symbol, sign) of every window of n positions, made once and looked
    # up by the slices of each arrangement.  The n window sets determine
    # the arrangement (consecutive windows differ by one label on each
    # side), so the (2n)! keys are distinct and nothing needs merging.
    # The arrangements stream with their cached parities; no table of
    # (2n)! signed permutations is kept.
    window = {w: bracket_symbol(prefix + tuple(labels[p] for p in w),
                                signed=signed)
              for w in permutations(range(2 * n), n)}
    cuts = [slice(k, k + n) for k in range(n)]
    terms = {}
    for perm, sgn in zip(permutations(range(2 * n)), _parities(2 * n)):
        slots = []
        for cut in cuts:
            sym, s = window[perm[cut]]
            slots.append(sym)
            sgn *= s
        terms[tuple(slots)] = sgn
    return GrassElement(n, labels, prefix, MultTensor(n, terms))


def scale_label(tensor, label, name):
    """Replace every bracket containing `label` by (named scalar) * bracket
    and expand multi-additively: the tensor of the configuration with that
    one vector rescaled."""
    if not isinstance(tensor, MultTensor):
        raise ContractViolation("scale_label expects a MultTensor")
    label = int(label)
    a = scalar_symbol(name)

    def expanded():
        for slots, coeff in tensor.terms.items():
            monos = []
            for sym in slots:
                if sym[0] == BRACKET and label in sym[1]:
                    monos.append(((a, 1), (sym, 1)))
                else:
                    monos.append(((sym, 1),))
            yield from _expand_slots(monos, coeff)

    return MultTensor(tensor.arity, _combine(expanded()))


def flip_first_term(tensor):
    """Negate the first canonical term: the mutation used to prove the
    checks can fail."""
    if tensor.is_zero():
        raise ContractViolation("cannot mutate the zero tensor")
    slots, coeff = tensor.items_sorted()[0]
    terms = dict(tensor.terms)
    terms[slots] = -coeff
    return MultTensor(tensor.arity, terms)


# ---------------------------------------------------------------------------
# reports


class Report(NamedTuple):
    check: str
    n: int | None
    status: str
    details: dict
    residue_terms: list
    witness: dict | None = None
    elapsed_ms: float = 0.0

    @property
    def passed(self):
        return self.status == "pass"

    def to_json_dict(self, timings=False):
        out = {
            "check": self.check,
            "n": self.n,
            "status": self.status,
            "details": self.details,
            "residue_terms": self.residue_terms,
            "witness": self.witness,
        }
        if timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def _residue_sample(tensor, limit=10):
    out = []
    for slots, coeff in tensor.items_sorted()[:limit]:
        out.append({"coeff": str(coeff),
                    "slots": [symbol_to_str(s) for s in slots]})
    return out


def _wedge_residue_sample(groups, limit=10):
    out = []
    for outer, value in groups:
        if value != 0:
            out.append({"outer": [symbol_to_str(s) for s in outer],
                        "value": str(value)})
            if len(out) >= limit:
                break
    return out


# ---------------------------------------------------------------------------
# comparison of the coalgebra expansion with the element


def check_comparison(n, element=None):
    """Expand the alternated simplex-pair element through the coproduct
    and compare with (-1)^n (n!)^2 times the degree-n element (default:
    build_element(n)).

    The report passes exactly when the residue lhs - (-1)^n (n!)^2 rhs is
    the zero tensor; it then names the constant in matched_constant, and
    otherwise samples the residue.  The supported degrees, 2 to 4, are
    DEGREES["comparison"].  Measured in a fresh process on a shared 2-core
    machine with Python 3.11, n = 4 (40320 terms on each side) takes
    0.35-0.46 s with a 35 MB peak.
    """
    from .aomoto import expand_to_tensor, pairing_element_labels

    t0 = time.perf_counter()
    n = require_degree("comparison", n)
    lhs = expand_to_tensor(pairing_element_labels(n), n)
    rhs = element.tensor if element is not None else build_element(n).tensor
    constant = (-1) ** n * factorial(n) ** 2
    residue = lhs - constant * rhs
    ok = residue.is_zero()
    return Report(
        check="comparison",
        n=n,
        status="pass" if ok else "fail",
        details={
            "expected_constant": str(constant),
            "matched_constant": str(constant) if ok else None,
            "expansion_terms": lhs.term_count,
            "element_terms": rhs.term_count,
        },
        residue_terms=_residue_sample(residue),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# the alternating (2n+1)-term relations


def omission_residues(n, element_builder=build_element):
    """Canonical residues of the two (2n+1)-term relations.

    Plain: sum_i (-1)^i over omitting label i from (1..2n+1) of the
    degree-n element on the remaining 2n labels.  Projected: the same sum
    with the omitted label prepended to every bracket as a projection
    center.  Both must cancel to the zero tensor.
    """
    n = int(n)
    labels = tuple(range(1, 2 * n + 2))

    def signed_terms(projected):
        for i, omitted in enumerate(labels, start=1):
            rest = labels[:i - 1] + labels[i:]
            sign = -1 if i % 2 else 1
            if projected:
                el = element_builder(n, labels=rest, prefix=(omitted,))
            else:
                el = element_builder(n, labels=rest)
            for slots, c in el.tensor.terms.items():
                yield slots, sign * c

    return (MultTensor(n, _combine(signed_terms(False))),
            MultTensor(n, _combine(signed_terms(True))))


def check_omission_relations(n, element_builder=build_element):
    """Both (2n+1)-term relations of omission_residues, at a degree that
    DEGREES["relations"] lists; any other n is refused before a build."""
    t0 = time.perf_counter()
    n = require_degree("relations", n)
    plain, projected = omission_residues(n, element_builder)
    ok = plain.is_zero() and projected.is_zero()
    return Report(
        check="relations",
        n=n,
        status="pass" if ok else "fail",
        details={
            "plain_residue_terms": plain.term_count,
            "projected_residue_terms": projected.term_count,
        },
        residue_terms=(_residue_sample(plain)
                       + _residue_sample(projected)),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# scale invariance


def _scale_failures(base):
    """(failing, held): the labels whose rescaling changes `base`, and
    the labels its brackets hold.

    Rescaling label l by the scalar a turns each slot whose bracket holds
    l into a + bracket.  So scale_label(base, l, a) - base is the sum,
    over nonempty sets S of such slots, of the terms with a at exactly the
    slots in S, and the part at S is the contraction of base at S: a
    term counts when all its S brackets hold l, and its S slots become a.
    When base holds no a, distinct S give distinct keys, so the residue
    vanishes exactly when every part does.  The part at S is a further
    contraction of the part at any single slot of S, and contracting zero
    gives zero.  So l fails exactly when one of its n single-slot
    contractions is nonzero.  One pass per slot groups the terms by their
    other slots, and the contraction at that slot is nonzero for l
    exactly when, in some group, the coefficients of the brackets holding
    l have a nonzero sum.
    """
    failing, held = set(), set()
    for j in range(base.arity):
        groups = {}
        for slots, coeff in base.terms.items():
            kind, payload = slots[j]
            if kind != BRACKET:
                continue
            rest = slots[:j] + slots[j + 1:]
            group = groups.get(rest)
            if group is None:
                groups[rest] = [(payload, coeff)]
            else:
                group.append((payload, coeff))
        for group in groups.values():
            sums = {}
            get = sums.get
            for payload, coeff in group:
                for label in payload:
                    sums[label] = get(label, 0) + coeff
            held.update(sums)
            failing.update(label for label, c in sums.items() if c)
    return failing, held


def check_scale_invariance(n, which=None, tensor=None):
    """Rescaling any single vector leaves the tensor fixed.

    tensor defaults to the degree-n element; which selects the 1-based
    labels to test (default: all 2n, which realizes invariance under the
    full torus).  A label passes when scale_label(tensor, label, "a")
    equals the tensor.  That is decided by the single-slot contractions
    of _scale_failures, which touch each term once per slot, or by the
    expanded residue itself when the tensor already holds a scalar named
    a.  failing_labels lists the failing labels in order, and
    residue_terms samples the expanded residue of the first failing label
    in the order of which; on the contraction path that is the only
    residue built.  An empty which is refused, and so is a which none of
    whose labels occurs in a bracket of the tensor (the check would pass
    without testing anything), and an n that DEGREES["scale"] does not
    list.
    """
    t0 = time.perf_counter()
    n = require_degree("scale", n)
    base = tensor if tensor is not None else build_element(n).tensor
    if not isinstance(base, MultTensor):
        raise ContractViolation("check_scale_invariance expects a MultTensor")
    if which is None:
        which = list(range(1, 2 * n + 1))
    elif isinstance(which, int):
        which = [which]
    if not which:
        raise ContractViolation("check_scale_invariance needs a label")

    def residue(label):
        return scale_label(base, label, "a") - base

    labels = list(dict.fromkeys(which))
    failing, held = _scale_failures(base)
    if held.isdisjoint(int(lab) for lab in labels):
        raise ContractViolation(
            f"no label of which={list(which)} occurs in the tensor")
    a = scalar_symbol("a")
    if any(a in slots for slots in base.terms):
        failing = {int(lab) for lab in labels if not residue(lab).is_zero()}
    bad = [lab for lab in labels if int(lab) in failing]
    return Report(
        check="scale",
        n=n,
        status="pass" if not bad else "fail",
        details={"labels_checked": list(which),
                 "failing_labels": sorted(bad)},
        residue_terms=_residue_sample(residue(bad[0])) if bad else [],
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# integrability


def check_integrability(n, ks=None, tensor=None, num_points=20, seed=0,
                        bound=13, gaussian=False):
    """Certify that the wedge projections of the element vanish.

    For each position k in ks (default 1..n-1), the projection of the
    tensor (default: the degree-n element) onto a wedge at slots
    (k, k+1) is evaluated exactly, one outer-graded piece at a time, at
    num_points seeded generic configurations of 2n vectors in dimension
    n (entries in [-bound, bound], Gaussian integers if gaussian) with a
    seeded integer tangent pair each.  The report passes when every value
    is zero; otherwise the witness names the first nonzero piece, taking
    positions in the order of ks and points in index order, and
    residue_terms samples that point's nonzero pieces.  An empty ks or a
    num_points below 1 is refused: an empty sample would pass anything.
    So is an n that DEGREES["integrability"] does not list.  Each point's
    d log table serves every position, and each projection's groups
    every point.
    """
    from .configurations import random_generic
    from .forms import _DlogTable, _WedgeGroups, random_tangent

    t0 = time.perf_counter()
    n = require_degree("integrability", n)
    if ks is None:
        ks = list(range(1, n))
    elif isinstance(ks, int):
        ks = [ks]
    ks = [int(k) for k in ks]
    if not ks:
        raise ContractViolation("integrability needs a wedge position")
    if int(num_points) < 1:
        raise ContractViolation(
            f"integrability needs at least one point, not {num_points}")
    for k in ks:
        if not 1 <= k <= n - 1:
            raise ContractViolation(
                f"wedge position {k} out of range for n={n}")
    if tensor is None:
        tensor = build_element(n).tensor
    projections = [_WedgeGroups(wedge_project(tensor, k)) for k in ks]
    symbols = list(dict.fromkeys(s for g in projections for s in g.symbols))
    first_bad = [None] * len(ks)
    for p in range(int(num_points)):
        cfg = random_generic(n, 2 * n, seed=repr(("integrability", seed, p)),
                             bound=bound, gaussian=gaussian)
        rng = random.Random(repr(("integrability-tangent", seed, p)))
        u, v = (random_tangent(len(cfg), cfg.dim, rng, bound),
                random_tangent(len(cfg), cfg.dim, rng, bound))
        table = _DlogTable(cfg.vectors, (u, v), symbols)
        for i, g in enumerate(projections):
            graded = g.graded(table)
            if first_bad[i] is None and any(val != 0 for _, val in graded):
                first_bad[i] = (p, cfg, graded)
    witness = None
    residue = []
    for k, bad in zip(ks, first_bad):
        if bad is not None:
            p, cfg, graded = bad
            outer, val = next((o, v) for o, v in graded if v != 0)
            witness = {
                "k": k,
                "point_index": p,
                "config": cfg.to_json_dict(),
                "outer": [symbol_to_str(s) for s in outer],
                "value": str(val),
            }
            residue = _wedge_residue_sample(graded)
            break
    return Report(
        check="integrability",
        n=n,
        status="pass" if witness is None else "fail",
        details={"positions": list(ks), "points": int(num_points),
                 "bound": int(bound), "gaussian": bool(gaussian)},
        residue_terms=residue,
        witness=witness,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# the Steinberg wedge decomposition of the cross-ratio


def steinberg_wedge_sides(half_coefficient=True):
    """Both sides of the cross-ratio wedge identity as WedgeTensors.

    Left: (1 - r) ^ r over labels (1,2,3,4), where r is the bracket
    cross-ratio D13 D24 / (D23 D14) and 1 - r = -D12 D34 / (D23 D14) by
    the three-term bracket identity; the minus sign is 2-torsion and is
    dropped.  Right: half the alternation of D(x1,x2) ^ D(x1,x3), which is
    integral because each canonical wedge arises from exactly two
    arrangements.  half_coefficient=False deliberately omits the half, for
    tests that want to see the mismatch.
    """
    one_minus_r = [((bracket_symbol((1, 2))[0]), 1),
                   ((bracket_symbol((3, 4))[0]), 1),
                   ((bracket_symbol((2, 3))[0]), -1),
                   ((bracket_symbol((1, 4))[0]), -1)]
    r = [((bracket_symbol((1, 3))[0]), 1),
         ((bracket_symbol((2, 4))[0]), 1),
         ((bracket_symbol((2, 3))[0]), -1),
         ((bracket_symbol((1, 4))[0]), -1)]
    lhs_pairs = [((sa, sb), ca * cb)
                 for sa, ca in one_minus_r for sb, cb in r]
    lhs = WedgeTensor.from_terms(2, 1, lhs_pairs)

    labels = (1, 2, 3, 4)
    rhs_pairs = []
    c = Fraction(1, 2) if half_coefficient else Fraction(1)
    for perm, sgn in perms_with_signs(4):
        arr = [labels[p] for p in perm]
        a, _ = bracket_symbol((arr[0], arr[1]))
        b, _ = bracket_symbol((arr[0], arr[2]))
        rhs_pairs.append(((a, b), c * sgn))
    rhs = WedgeTensor.from_terms(2, 1, rhs_pairs)
    return lhs, rhs


def check_steinberg_wedge(half_coefficient=True, *, num_points=None,
                          seed=None):
    """Canonical equality of the two wedge sides: the check passes when
    the residue lhs - rhs is zero, and the report samples it.
    half_coefficient=False drops the 1/2 on the alternation side, a
    deliberate corruption that must be detected.

    No point is evaluated: d log(1 - r) = -dr / (1 - r) and d log r =
    dr / r are both multiples of dr, so both sides vanish at every
    configuration, whatever either side's scale.  num_points and seed are
    accepted and ignored."""
    t0 = time.perf_counter()
    lhs, rhs = steinberg_wedge_sides(half_coefficient=half_coefficient)
    residue = lhs - rhs
    symbolic_ok = residue.is_zero()
    return Report(
        check="deltar",
        n=None,
        status="pass" if symbolic_ok else "fail",
        details={"symbolic_equal": symbolic_ok,
                 "lhs_terms": len(lhs.terms), "rhs_terms": len(rhs.terms)},
        residue_terms=_residue_sample(residue),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
