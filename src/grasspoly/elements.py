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
  coproduct formulas end to end.  An alternative constant 2 (n!)^2 (the
  one a coproduct normalization of -1/4 would produce) is also recognized
  and reported; anything else is a failure.
* check_omission_relations: the two alternating (2n+1)-term relations,
  plain windows and center-prepended windows, both with exact zero
  canonical residue.
* check_scale_invariance: substituting a *> label multiplies brackets
  containing a chosen label by a named scalar; the expanded difference
  cancels exactly.
* check_integrability: for each inner position k the wedge projection of
  the element vanishes identically as a 2-form at the d log level; this
  is certified by exact evaluation at seeded random generic rational
  configurations with random integer tangent pairs, graded by the symbols
  outside the wedge pair.
* check_steinberg_wedge: the wedge decomposition of (1 - r) ^ r for the
  bracket cross-ratio r, against one half of the alternation of
  D(v1,v2) ^ D(v1,v3); both the canonical identity and its exact numeric
  evaluation at random generic configurations.

All reports carry a machine-readable dict (status, residue sample,
witness) and can be serialized with or without timing, since byte-stable
output is part of the command line contract.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .aomoto import expand_to_tensor, pairing_element_labels
from .configurations import random_generic
from .errors import ContractViolation
from .forms import _DlogTable, _WedgeGroups, random_tangent
from .tensors import (MultTensor, WedgeTensor, bracket_symbol,
                      perms_with_signs, scalar_symbol, symbol_to_str,
                      wedge_project, _combine, _expand_slots)


@dataclass(frozen=True)
class GrassElement:
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
    if labels is None:
        labels = tuple(range(1, 2 * n + 1))
    labels = tuple(int(i) for i in labels)
    if len(labels) != 2 * n:
        raise ContractViolation(f"need 2n = {2*n} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ContractViolation("labels must be distinct")
    prefix = tuple(int(i) for i in prefix)
    if set(prefix) & set(labels):
        raise ContractViolation("prefix labels must not occur among labels")

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

    return GrassElement(n, labels, prefix,
                        MultTensor(n, _combine(arrangements())))


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
                if sym[0] == "D" and label in sym[1]:
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


@dataclass
class Report:
    check: str
    n: int | None
    status: str
    details: dict = field(default_factory=dict)
    residue_terms: list = field(default_factory=list)
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

COMPARISON_DEGREES = (2, 3)


def check_comparison(n, mode="expect", element=None):
    """Expand the alternated simplex-pair element through the coproduct
    and compare with (-1)^n (n!)^2 times the degree-n element.

    Returns a report whose details name the constant that matched: the
    expected one, or the doubled constant 2 (n!)^2 that the alternative
    coproduct normalization would give.  Any other ratio fails, unless
    mode="report-constant", which accepts any exact scalar proportionality
    and reports the ratio.  n in {2, 3} is the supported range.  n = 4
    works through the underlying functions: build_element(4),
    pairing_element_labels(4) and expand_to_tensor(..., 4) take seconds
    and about 100 MB.
    """
    t0 = time.perf_counter()
    n = int(n)
    if n not in COMPARISON_DEGREES:
        raise ContractViolation("comparison check supports n in {2, 3}")
    if mode not in ("expect", "report-constant"):
        raise ContractViolation(f"unknown comparison mode {mode!r}")
    lam = pairing_element_labels(n)
    lhs = expand_to_tensor(lam, n)
    rhs = element.tensor if element is not None else build_element(n).tensor

    expected = Fraction((-1) ** n * factorial(n) ** 2)
    alternative = 2 * expected

    status, matched = "fail", None
    if lhs == expected * rhs:
        status, matched = "pass", expected
    elif lhs == alternative * rhs:
        status, matched = "pass", alternative
    elif mode == "report-constant" and not rhs.is_zero():
        slots, coeff = rhs.items_sorted()[0]
        ratio = Fraction(lhs.coefficient(slots)) / Fraction(coeff)
        if ratio != 0 and lhs == ratio * rhs:
            status, matched = "pass", ratio

    residue = MultTensor.zero(n)
    if status == "fail":
        residue = lhs - expected * rhs
    rep = Report(
        check="comparison",
        n=n,
        status=status,
        details={
            "expected_constant": str(expected),
            "matched_constant": None if matched is None else str(matched),
            "expansion_terms": lhs.term_count,
            "element_terms": rhs.term_count,
        },
        residue_terms=_residue_sample(residue),
    )
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


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
    t0 = time.perf_counter()
    plain, projected = omission_residues(n, element_builder)
    ok = plain.is_zero() and projected.is_zero()
    rep = Report(
        check="relations",
        n=int(n),
        status="pass" if ok else "fail",
        details={
            "plain_residue_terms": plain.term_count,
            "projected_residue_terms": projected.term_count,
        },
        residue_terms=(_residue_sample(plain)
                       + _residue_sample(projected)),
    )
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


# ---------------------------------------------------------------------------
# scale invariance


def check_scale_invariance(n, which=None, tensor=None):
    """Rescaling any single vector leaves the element fixed: the expanded
    difference cancels exactly.  which selects 1-based labels to test
    (default: all 2n, which realizes invariance under the full torus)."""
    t0 = time.perf_counter()
    n = int(n)
    base = tensor if tensor is not None else build_element(n).tensor
    if which is None:
        which = list(range(1, 2 * n + 1))
    elif isinstance(which, int):
        which = [which]
    residues = {}
    for label in which:
        scaled = scale_label(base, label, "a")
        residues[label] = scaled - base
    bad = {lab: r for lab, r in residues.items() if not r.is_zero()}
    rep = Report(
        check="scale",
        n=n,
        status="pass" if not bad else "fail",
        details={"labels_checked": list(which),
                 "failing_labels": sorted(bad)},
        residue_terms=(_residue_sample(next(iter(bad.values())))
                       if bad else []),
    )
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


# ---------------------------------------------------------------------------
# integrability


def _tangent_pair(tag, seed, p, cfg, bound):
    rng = random.Random(repr((tag, seed, p)))
    return (random_tangent(len(cfg), cfg.dim, rng, bound),
            random_tangent(len(cfg), cfg.dim, rng, bound))


def _integrability_points(n, ks, tensor, num_points, seed, bound, gaussian):
    """Yield (point_index, config, graded values per k) for each seeded
    point: the point is drawn once, its d log table is built once and
    shared by every wedge position, and each projection's groups are
    prepared once for all points."""
    for k in ks:
        if not 1 <= k <= n - 1:
            raise ContractViolation(
                f"wedge position {k} out of range for n={n}")
    if tensor is None:
        tensor = build_element(n).tensor
    projections = [_WedgeGroups(wedge_project(tensor, k)) for k in ks]
    symbols = list(dict.fromkeys(s for g in projections for s in g.symbols))
    for p in range(int(num_points)):
        cfg = random_generic(n, 2 * n, seed=repr(("integrability", seed, p)),
                             bound=bound, gaussian=gaussian)
        u, v = _tangent_pair("integrability-tangent", seed, p, cfg, bound)
        table = _DlogTable(cfg.vectors, (u, v), symbols)
        yield p, cfg, [g.graded(table) for g in projections]


def integrability_residues(n, k, tensor=None, num_points=20, seed=0,
                           bound=13, gaussian=False):
    """Exact wedge values of the degree-k projection at random points.

    For each of num_points seeded generic rational configurations of 2n
    vectors in dimension n (Gaussian-rational entries if requested), with
    one random integer tangent pair, evaluates every outer-graded piece of
    the wedge projection at slots (k, k+1).  Returns a list of
    (point_index, config, graded_values).
    """
    return [(p, cfg, graded[0]) for p, cfg, graded in _integrability_points(
        int(n), [int(k)], tensor, num_points, seed, bound, gaussian)]


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
    residue_terms samples that point's nonzero pieces.
    """
    t0 = time.perf_counter()
    n = int(n)
    if n < 2:
        raise ContractViolation("integrability needs degree >= 2")
    if ks is None:
        ks = list(range(1, n))
    elif isinstance(ks, int):
        ks = [ks]
    ks = [int(k) for k in ks]
    first_bad = [None] * len(ks)
    for p, cfg, per_k in _integrability_points(
            n, ks, tensor, num_points, seed, bound, gaussian):
        for i, graded in enumerate(per_k):
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
    rep = Report(
        check="integrability",
        n=n,
        status="pass" if witness is None else "fail",
        details={"positions": list(ks), "points": int(num_points),
                 "bound": int(bound), "gaussian": bool(gaussian)},
        residue_terms=residue,
        witness=witness,
    )
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


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


def check_steinberg_wedge(num_points=10, seed=0, bound=13,
                          half_coefficient=True):
    """Canonical equality of the two wedge sides, plus exact agreement of
    their evaluations at seeded random generic 4-point configurations in
    dimension 2 with random integer tangent pairs.  half_coefficient=False
    drops the 1/2 on the alternation side, a deliberate corruption that
    must be detected."""
    t0 = time.perf_counter()
    lhs, rhs = steinberg_wedge_sides(half_coefficient=half_coefficient)
    symbolic_ok = lhs == rhs
    lg, rg = _WedgeGroups(lhs), _WedgeGroups(rhs)
    symbols = list(dict.fromkeys(lg.symbols + rg.symbols))
    witness = None
    for p in range(int(num_points)):
        cfg = random_generic(2, 4, seed=repr(("steinberg", seed, p)),
                             bound=bound)
        u, v = _tangent_pair("steinberg-tangent", seed, p, cfg, bound)
        table = _DlogTable(cfg.vectors, (u, v), symbols)
        # both sides share the denominator L**2: cross-multiply the scales
        lt, rt = sum(lg.totals(table)), sum(rg.totals(table))
        if lt * rg.scale != rt * lg.scale:
            den = table.denominator ** 2
            witness = {"point_index": p, "config": cfg.to_json_dict(),
                       "lhs": str(table.value(lt, lg.scale * den)),
                       "rhs": str(table.value(rt, rg.scale * den))}
            break
    ok = symbolic_ok and witness is None
    diff = lhs.terms if not symbolic_ok else {}
    rep = Report(
        check="deltar",
        n=None,
        status="pass" if ok else "fail",
        details={"symbolic_equal": symbolic_ok, "points": int(num_points),
                 "lhs_terms": len(lhs.terms), "rhs_terms": len(rhs.terms)},
        residue_terms=[{"slots": [symbol_to_str(s) for s in slots],
                        "coeff": str(c)}
                       for slots, c in sorted(diff.items(), key=repr)[:10]],
        witness=witness,
    )
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep
