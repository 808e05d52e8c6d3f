"""Numerical iterated integrals of d log bracket forms along paths.

A path is a piecewise-polynomial map from [0,1] into the space of
configurations (complex matrices whose rows are the vectors).  A letter is
an integer (or rational, or complex) combination of d log of bracket
symbols; a word is a sequence of letters.  The iterated integral of a word
(w_1, ..., w_n) is F_n(1) where F_0 = 1 and F_k' = F_{k-1} * (pullback of
w_k), so the first letter of a word is the innermost integration.

The quadrature engine advances the states of a sweep panel by panel: on
each panel the letter values at the Gauss nodes are combined with a
spectral prefix-antiderivative matrix, so one level-by-level sweep per
panel yields every state at every node.  Many words are integrated in a
single sweep, sharing panels and letter evaluations; this is how
elements with hundreds of terms stay cheap.  One sweep (`_Sweep`) serves
two layouts, in both of which a level's states follow from the previous
level's through weighted edges, packed into slots by one function
(`_level`).  Words integrated for their own values (`iterate_words`)
form a prefix trie (`_WordBatch`): one state per distinct prefix, each
with one edge of weight 1 (the 720 words of the degree-3 element have
20, 180 and 720 distinct prefixes of length 1, 2 and 3).  An element,
whose words are wanted only in the sum sum_w c_w It(w)
(`iterate_element`), is the minimal weighted automaton of its words
(`_Automaton`): prefixes whose weighted suffixes are proportional share
one state, and the full words end in a single state, the element's value
(20 and 90 states at levels 1 and 2 for the degree-3 element, 70, 1120
and 1260 for degree 4).  A sweep starts from its layout's default states
(1 at the empty prefix, 0 elsewhere) or from a start vector of the same
shape, as `iterate_word(initial=)` and `li_n` pass.  On a path segment
every bracket is a polynomial P in the segment parameter; it is fitted
once per segment as a Chebyshev series from one batched determinant (the
Chebyshev points and matrices of a fit are built once per degree), the
segments of one degree on a path in one stack, and the letters of every
panel are P'/P of that fit at the nodes, combined through the letter
table's coefficients unless the letters are the brackets themselves.

Panels split adaptively by comparing a whole-panel sweep against two
half-panel sweeps.  Acceptance is proportional to the interval, so the
accumulated estimate stays near the requested tolerance, but it never
asks for a relative difference below _ROUNDING_FLOOR (16 ulp), which deep
panels could not meet in double precision.  Before it sweeps, a step
tests its letters: every edge into the first level leaves the start
state, so the first level's rows of |whole - halves| are the start value
times the letters' Gauss integrals over the whole panel less those over
the halves, taken through that level's edges (`_first_level`).  A step
whose rows exceed twice the limit, on a scale of the start states and
the first level's end values, splits unswept.  The sweeps could accept
it only if its largest state more than doubled on it; otherwise they
would be rejected, and the children sweep from the same start states
with the same letters either way, so values and errors are those of
sweeping every step.  On one pass of the benchmark's `tate_integrals`
workload (seed 3), 305 of the 344 splits among 772 steps are refused so,
and 1354 panels are swept instead of 1964.  A split evaluates the
letters of its children's halves (the four quarter panels) in one call
and hands down what is known: the left half is the left child's whole
panel (already swept, unless the step was refused), and the right half's
letter values serve the right child's whole panel, so no panel's letters
are evaluated twice.  A root step evaluates its three panels in one
call.  A panel whose letters fail raises only in its turn, after the
panels before it are swept and counted.  The `panels` count of a result
is the number of sweeps evaluated, and the budget limits the same count;
a refused step sweeps nothing, but it is an inner node of a tree whose
leaves sweep at least two panels each, so the budget still bounds the
work.  The acceptance test reads every state of the sweep.  An output's
reported error sums, over the accepted panels, |scale| times the largest
|whole - halves| among its states: a word's prefix nodes, with scale 1,
or an element's value, with the element's scale.

Failure modes are explicit: a bracket modulus below POLE_THRESHOLD at any
node raises PoleError, exceeding the panel budget raises BudgetError, and
malformed or discontinuous paths raise PathError.  A bracket whose phase
jumps between adjacent nodes (by more than pi/2: Re(w conj(v)) < 0 for
adjacent values v, w) makes the panel split; the first such jump on
a segment also runs a root check of every bracket on the segment (on the
same fitted polynomials), which raises PoleError at once when the path
crosses a zero.  A zero that the path only grazes is left to the
subdivision.  Evaluation is single-threaded and results are deterministic
for fixed inputs; the GRASSPOLY_THREADS environment variable is accepted
and ignored.

A panel carries GAUSS_ORDER = 24 Gauss-Legendre nodes.  The error of
Gauss quadrature falls geometrically with the node count on analytic
integrands, while a sweep over the 112 states of a degree-3 element,
bound by the number of numpy calls rather than their size, costs little
more at 24 nodes than at 16 (64 against 56 us).  Against 16 nodes, with
every step swept, one pass of the benchmark's `tate_integrals` workload
(seed 3) sweeps 1964 panels instead of 2857, and its split steps fall
from 526 of 1136 to 344 of 772.  Timed in one process, order 20 was slower than 24 on every
kind of integral, and order 28 was faster only on `li_n` (by 9%).  At
28 and 32 nodes degree-4 integrals took 1.6 and 1.7 times as long as at
24: their sweep over 2450 states is bound by arithmetic, which grows
with states x N^2.

numpy is bound lazily: it loads when a path is built or an integral runs,
not when the module is imported, and the quadrature tables are built on
the first panel.
"""

import random
import sys
from cmath import isfinite
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb, pi
from typing import NamedTuple

from . import _lazy_module
from .configurations import Configuration
from .errors import BudgetError, ContractViolation, PathError, PoleError
from .tensors import (BRACKET, SCALAR, MultTensor, bracket_symbol,
                      symbol_sort_key, symbol_to_str)

np = _lazy_module("numpy")

# Nodes per panel: see the module docstring for the measured trade of
# fewer panels against the cost of a degree-4 sweep.
GAUSS_ORDER = 24
POLE_THRESHOLD = 1e-8
# A turn between adjacent node values larger than this splits a panel;
# `_letter_values` tests it as Re(w conj(v)) < 0, which holds for this
# value only.
PHASE_JUMP_LIMIT = pi / 2
DEFAULT_BUDGET = 16384
MAX_DEPTH = 26
_JOINT_TOL = 1e-9
# Panel acceptance never asks for less than this relative difference: a
# tol * width test on deep panels would fall below double rounding.
_ROUNDING_FLOOR = 16 * sys.float_info.epsilon
# Leading coefficients this small relative to a bracket polynomial's
# largest are dropped before its roots are taken.
_ROOT_TRIM = 1e-10


class _PhaseJump(Exception):
    """Internal signal: a bracket value turned by more than
    PHASE_JUMP_LIMIT between adjacent nodes, so the panel straddles (or
    grazes) a zero that the modulus check alone cannot see.  The engine
    splits the panel; a jump persisting at full depth becomes PoleError."""

    def __init__(self, sym, jump):
        super().__init__(sym, jump)
        self.sym = sym
        self.jump = jump


@cache
def _quadrature():
    """The panel quadrature, built on first use: the Gauss nodes and
    weights on [-1, 1], the node-to-node prefix integration matrix Q, and
    Q.T, which takes the integrand values of a panel's states (one row
    each) to their prefix values at the nodes.  The sweep multiplies
    complex values by the weights and by Q.T, so those two are stored as
    C-contiguous complex arrays: numpy would otherwise cast a real table
    to a complex copy on every product (a C-ordered copy, which rounds the
    product as this one does; a Fortran-ordered one would not).  The
    arrays are shared, so they are read-only.

    With f expanded in Legendre polynomials from its values at the nodes,
    the antiderivative vanishing at -1 is exact for the expansion, giving
    F(nodes) = Q @ f(nodes) on [-1, 1]; the endpoint value uses the plain
    Gauss weights.
    """
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    vander = np.polynomial.legendre.legvander(x, GAUSS_ORDER)
    m = np.arange(GAUSS_ORDER)
    coef = ((2 * m[:, None] + 1) / 2.0) * w[None, :] * vander[:, :GAUSS_ORDER].T
    anti = np.empty((GAUSS_ORDER, GAUSS_ORDER))
    anti[:, 0] = x + 1.0
    for mm in range(1, GAUSS_ORDER):
        anti[:, mm] = (vander[:, mm + 1] - vander[:, mm - 1]) / (2 * mm + 1)
    qmat = anti @ coef
    tables = (x, w.astype(complex), qmat,
              np.ascontiguousarray(qmat.T, dtype=complex))
    for arr in tables:
        arr.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# paths


def _as_matrix(obj):
    if isinstance(obj, Configuration):
        obj = obj.to_floats()
    arr = np.asarray(obj, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise PathError("a path point must be a (count, dim) matrix")
    return arr


def _freeze(arr):
    """A read-only C-contiguous complex copy of arr; the caller's array
    stays writeable."""
    arr = np.array(arr, dtype=complex, order="C")
    arr.flags.writeable = False
    return arr


def _meets(a, b, tol):
    """Whether every entry of b lies within tol * max(1, max |a|) of a's,
    the bound included (np.allclose with that atol and rtol=0, without
    its broadcasting and infinity handling: path matrices are finite)."""
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.abs(a - b).max() <= tol * scale)


class PathSpec:
    """Piecewise-polynomial path: each segment maps s in [0,1] to a
    (count, dim) complex matrix via finite coefficient stacks (degree+1,
    count, dim), joined continuously.  Each stack is kept as a read-only
    copy."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        segs, ends = [], []
        for seg in segments:
            arr = _freeze(seg)
            if arr.ndim != 3 or arr.shape[0] < 1:
                raise PathError(
                    "segment coefficients must have shape (degree+1, count, dim)")
            # a sum is finite only when its terms are, so one test of the
            # segment's end also tests every coefficient; an overflowing
            # or inf - inf sum is reported by that test, not by a warning
            with np.errstate(over="ignore", invalid="ignore"):
                end = arr.sum(axis=0)
            if not np.isfinite(end).all():
                raise PathError(
                    "segment coefficients must be finite"
                    if not np.isfinite(arr).all() else
                    "segment end must be finite: its coefficients' sum "
                    "overflows")
            segs.append(arr)
            ends.append(end)
        if not segs:
            raise PathError("a path needs at least one segment")
        shape = segs[0].shape[1:]
        for arr in segs[1:]:
            if arr.shape[1:] != shape:
                raise PathError("all segments must share (count, dim)")
        for end, b in zip(ends, segs[1:]):
            if not _meets(end, b[0], _JOINT_TOL):
                raise PathError("discontinuous path: segment joint mismatch")
        object.__setattr__(self, "segments", tuple(segs))

    def __setattr__(self, name, value):
        raise AttributeError("PathSpec is immutable")

    @property
    def count(self):
        return self.segments[0].shape[1]

    @property
    def dim(self):
        return self.segments[0].shape[2]

    @classmethod
    def from_points(cls, points):
        """Polyline through the given configuration matrices."""
        pts = [_as_matrix(p) for p in points]
        if len(pts) < 2:
            raise PathError("a polyline needs at least two points")
        segs = []
        for a, b in zip(pts, pts[1:]):
            if a.shape != b.shape:
                raise PathError("polyline points must share (count, dim)")
            segs.append(np.stack([a, b - a]))
        return cls(segs)

    @classmethod
    def line(cls, start, end):
        return cls.from_points([start, end])

    @classmethod
    def polygon(cls, vertices):
        """Closed polyline: the first vertex is appended as the endpoint."""
        pts = list(vertices)
        if len(pts) < 2:
            raise PathError("a polygon needs at least two vertices")
        return cls.from_points(pts + [pts[0]])

    def start(self):
        return self.segments[0][0].copy()

    def end(self):
        return self.segments[-1].sum(axis=0)

    def is_closed(self, tol=_JOINT_TOL):
        return _meets(self.segments[0][0], self.end(), tol)

    def point(self, t):
        """Evaluate at global time t in [0,1], segments taken uniformly."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise PathError("path time must lie in [0, 1]")
        nseg = len(self.segments)
        idx = min(int(t * nseg), nseg - 1)
        s = t * nseg - idx
        seg = self.segments[idx]
        powers = s ** np.arange(seg.shape[0])
        return np.einsum("dcx,d->cx", seg, powers)

    def reverse(self):
        """The same trace walked backwards."""
        segs = []
        for seg in self.segments[::-1]:
            deg = seg.shape[0] - 1
            new = np.zeros_like(seg)
            for k in range(deg + 1):
                for d in range(k, deg + 1):
                    new[k] += comb(d, k) * ((-1) ** k) * seg[d]
            segs.append(new)
        return PathSpec(segs)

    def then(self, other):
        """Concatenation; the joint must be continuous."""
        if not isinstance(other, PathSpec):
            raise PathError("can only concatenate PathSpec values")
        return PathSpec(list(self.segments) + list(other.segments))

    def deform(self, seed, amplitude=0.1, mask=None):
        """Interior deformation: adds s(1-s)(A + B s) to every segment with
        random complex matrices A, B of the given amplitude, so endpoints
        of every segment (hence the whole path) are fixed.  mask, if
        given, is a (count, dim) 0/1 array selecting which entries move."""
        amplitude = float(amplitude)
        if mask is not None:
            mask = np.asarray(mask, dtype=float)
            if mask.shape != (self.count, self.dim):
                raise PathError("deformation mask shape mismatch")
        segs = []
        for si, seg in enumerate(self.segments):
            rng = random.Random(repr(("deform", seed, si)))

            def bump():
                re = np.array([[2 * rng.random() - 1 for _ in range(self.dim)]
                               for _ in range(self.count)])
                im = np.array([[2 * rng.random() - 1 for _ in range(self.dim)]
                               for _ in range(self.count)])
                out = amplitude * (re + 1j * im)
                return out if mask is None else out * mask

            a, b = bump(), bump()
            deg = max(seg.shape[0] - 1, 3)
            new = np.zeros((deg + 1,) + seg.shape[1:], dtype=complex)
            new[:seg.shape[0]] += seg
            new[1] += a
            new[2] += b - a
            new[3] -= b
            segs.append(new)
        return PathSpec(segs)

    def to_json_dict(self):
        out = []
        for seg in self.segments:
            deg = seg.shape[0] - 1
            coeffs = [[[[z.real, z.imag] for z in row] for row in level]
                      for level in seg]
            out.append({"degree": deg, "coeffs": coeffs})
        return {"segments": out}

    @classmethod
    def from_json_dict(cls, data):
        segs = []
        try:
            for item in data["segments"]:
                levels = []
                for level in item["coeffs"]:
                    levels.append([[complex(re, im) for re, im in row]
                                   for row in level])
                arr = np.asarray(levels, dtype=complex)
                if arr.shape[0] != int(item["degree"]) + 1:
                    raise PathError(
                        "segment degree does not match coefficients")
                segs.append(arr)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise PathError(f"bad path payload: {exc}") from exc
        return cls(segs)

    def __repr__(self):
        return (f"PathSpec({len(self.segments)} segments, "
                f"count={self.count}, dim={self.dim})")


# ---------------------------------------------------------------------------
# letters and words


def _is_symbol(x):
    return (isinstance(x, tuple) and len(x) == 2
            and x[0] in (BRACKET, SCALAR))


_NUMBERS = (int, float, complex, Fraction)


def normalize_letter(letter):
    """Canonical letter: a tuple of (coefficient, symbol) pairs.

    Accepts a bare symbol, one (coefficient, symbol) pair, or an iterable
    of such pairs.
    """
    if _is_symbol(letter):
        return ((1, letter),)
    parts = tuple(letter)
    if (len(parts) == 2 and isinstance(parts[0], _NUMBERS)
            and _is_symbol(parts[1])):
        return (parts,)
    out = []
    for p in parts:
        pt = tuple(p)
        if not (len(pt) == 2 and isinstance(pt[0], _NUMBERS)
                and _is_symbol(pt[1])):
            raise ContractViolation(f"bad letter part {p!r}")
        out.append(pt)
    if not out:
        raise ContractViolation("empty letter")
    return tuple(out)


def normalize_word(word):
    letters = tuple(normalize_letter(l) for l in word)
    if not letters:
        raise ContractViolation("a word needs at least one letter")
    return letters


def dlog_letter(indices, coeff=1):
    """Letter coeff * d log of one bracket."""
    return ((coeff, bracket_symbol(indices)[0]),)


def shuffles(word_a, word_b):
    """All interleavings of two words preserving each word's letter order."""
    a = tuple(word_a)
    b = tuple(word_b)
    n = len(a) + len(b)
    for spots in combinations(range(n), len(a)):
        spot_set = set(spots)
        out = []
        ai = bi = 0
        for i in range(n):
            if i in spot_set:
                out.append(a[ai])
                ai += 1
            else:
                out.append(b[bi])
                bi += 1
        yield tuple(out)


class IterIntResult(NamedTuple):
    """A value with its error estimate, panel count and convergence flag,
    and the path that selects its branch (not serialised)."""

    value: complex
    error: float
    panels: int
    depth_exceeded: bool = False
    path: PathSpec | None = None

    def to_json_dict(self):
        return {"value": [self.value.real, self.value.imag],
                "error": self.error,
                "panels": self.panels,
                "depth_exceeded": self.depth_exceeded}


# ---------------------------------------------------------------------------
# the engine


def _check_bracket(sym, dim, count):
    payload = sym[1]
    if len(payload) != dim:
        raise ContractViolation(
            f"bracket {symbol_to_str(sym)} needs {len(payload)} "
            f"coordinates but the path has dimension {dim}")
    if max(payload) > count or min(payload) < 1:
        raise ContractViolation(
            f"bracket {symbol_to_str(sym)} indexes outside the "
            f"path's {count} vectors")


class _LetterTable:
    """The letters of one sweep, prepared once for all its panels.

    `symbols` are the distinct bracket symbols in the order the letters
    first name them, and `coef` is the (symbols, letters) matrix with
    letter g = sum_j coef[j, g] d log symbols[j]; a scalar symbol has zero
    d log along a path, so it has no row.  When the letters are their
    symbols in order (letter g is d log symbols[g], as in every
    `_Automaton` and in words of single brackets), `coef` would be the
    identity and is None, so no product is made with it.  `brackets`
    holds the 0-based vector indices of the symbols, (symbols, dim).
    """

    def __init__(self, letters, dim, count):
        for letter in letters:
            for c, _ in letter:
                if not isfinite(c):
                    raise ContractViolation(
                        f"letter coefficient {c!r} is not finite")
        sym_rows = {}
        parts = [(sym_rows.setdefault(sym, len(sym_rows)), g, complex(c))
                 for g, letter in enumerate(letters) for c, sym in letter
                 if sym[0] == BRACKET]
        self.symbols = list(sym_rows)
        for sym in self.symbols:
            _check_bracket(sym, dim, count)
        self.coef = None
        if parts != [(g, g, 1) for g in range(len(letters))]:
            self.coef = np.zeros((len(self.symbols), len(letters)),
                                 dtype=complex)
            for j, g, c in parts:
                self.coef[j, g] += c
        self.brackets = np.array(
            [[i - 1 for i in sym[1]] for sym in self.symbols],
            dtype=int).reshape(len(self.symbols), dim)


class _Sweep:
    """The states of one sweep and how a panel moves them.

    The start state comes first, then the states level by level, then,
    when `final` is not None, the one state E of `_Automaton`; `f0` holds
    the default start values, 1 at the start state and 0 elsewhere.
    `levels[k-1]` takes level k - 1 to level k, as laid out by `_level`.
    Output i has the value scale * f[outputs[i, -1]], and |scale| times
    the largest |whole - halves| over the states outputs[i] is its share
    of a panel's error.  `first` describes the first level as
    `_first_level` lays it out, for the engine's test from letters.
    """

    def sweep(self, lv, f_a, hh):
        """The states at the end of a panel from those at its start f_a,
        given the letter values at its nodes and its half width.  Each
        slot's products are made and summed one slot at a time (a level's
        edges at once would be a large temporary at degree 4).  A level's
        end values are their own product with the weights, not a column
        of a wider product, so they round as `g @ weights` does (at the
        rounding floor a last-bit difference moves panel counts).  The
        last level's prefix values are needed only through `final`, and
        the last level of a trie needs none."""
        _, weights, _, prefix = _quadrature()
        f_b = f_a.copy()
        lv_t = lv.T.copy()
        prev, nodes = f_a[:1, None], slice(0, 1)
        for nodes, letter, weight, slots in self.levels:
            weighted = lv_t.take(letter, axis=0)
            weighted *= weight
            (_, src, pair), *rest = slots
            g = weighted.take(pair, axis=0)
            g *= prev.take(src, axis=0)
            for size, src, pair in rest:
                term = weighted.take(pair, axis=0)
                term *= prev.take(src, axis=0)
                g[:size] += term
            f_b[nodes] += hh * (g @ weights)
            if nodes is not self.levels[-1][0]:
                prev = g @ prefix
                prev *= hh
                prev += f_a[nodes, None]
        if self.final is not None:
            # E' at the nodes: sum over a of L_a * (final @ G)[a], where G
            # holds the last level's values f_a + hh * (g @ prefix) (the
            # start state alone when there is no level).  The real matrix
            # `final` acts on real and imaginary parts at once, and before
            # the prefix product, which then has a row per letter instead
            # of one per state.
            at_nodes = _real_matmul(self.final, f_a[nodes, None])
            if self.levels:
                at_nodes = at_nodes + hh * (_real_matmul(self.final, g)
                                            @ prefix)
            e = np.einsum("ua,au->u", lv, at_nodes)
            f_b[-1] += hh * (e @ weights)
        return f_b

    def errors(self, diff):
        """Each output's share of a panel's |whole - halves|."""
        return abs(self.scale) * diff[self.outputs].max(axis=1)

    def ends(self, f):
        """Each output's value from the states."""
        return self.scale * f[self.outputs[:, -1]]


def _real_matmul(real, z):
    """real @ z for a real matrix and a complex array whose last axis is
    contiguous, without a complex copy of the real matrix."""
    return (real @ z.view(float)).view(complex)


def _level(base, edges_in):
    """The `_Sweep` level of the states base, base + 1, ... by falling
    in-degree, from each one's incoming edges (source among the previous
    level's states, letter, weight): (slice of the states, letter and
    weight of each distinct (letter, weight) pair, slots).  A state's
    derivative sums weight * letter * source over its incoming edges.
    Slot j holds the j-th incoming edge of every state with more than j
    of them, as (number of such states, source of each edge, its pair),
    so it covers a leading run of the states."""
    slots = [[edges[j] for edges in edges_in if len(edges) > j]
             for j in range(len(edges_in[0]))]
    pairs = sorted({(a, w) for slot in slots for _, a, w in slot})
    index = {pair: i for i, pair in enumerate(pairs)}
    letter, weight = zip(*pairs)
    return (slice(base, base + len(edges_in)),
            np.array(letter, dtype=int),
            np.array(weight, dtype=float)[:, None],
            [(len(slot), np.array([q for q, _, _ in slot], dtype=int),
              np.array([index[a, w] for _, a, w in slot], dtype=int))
             for slot in slots])


def _first_level(states, letters):
    """The `first` of a `_Sweep` with `letters` letters: (slice of its
    first level's states, (letters, states) complex matrix M).  Every edge
    into the first level leaves the start state, so a panel moves those
    states by f[0] * (I @ M), where I holds the letters' integrals
    hh * (weights @ L) over the panel.  M holds the first level's edge
    weights, or `final` when there is no level (the first level is then
    the state E)."""
    if not states.levels:
        size = len(states.f0)
        return slice(size - 1, size), states.final.astype(complex)
    nodes, letter, weight, slots = states.levels[0]
    matrix = np.zeros((letters, nodes.stop - nodes.start), dtype=complex)
    for count, _, pair in slots:
        np.add.at(matrix, (letter[pair], np.arange(count)), weight[pair, 0])
    return nodes, matrix


class _WordBatch(_Sweep):
    """The words of one sweep as a prefix trie: one state per prefix, and
    one output per word.  Words share a node while they agree in their
    letters.  Each node has one edge of weight 1, from its parent along its
    letter, so a level is one slot.  `outputs[i, k]` is the node of the
    first k letters of word i, repeating its full node past its length."""

    def __init__(self, words, dim, count):
        if not words:
            raise ContractViolation("no words to integrate")
        words = [normalize_word(w) for w in words]
        letter_cols = {}
        rows = [[letter_cols.setdefault(l, len(letter_cols)) for l in w]
                for w in words]
        self.letters = _LetterTable(list(letter_cols), dim, count)
        nodes = [0] * len(rows)
        columns = [list(nodes)]
        self.levels = []
        lower, base = 0, 1
        for k in range(1, max(map(len, rows)) + 1):
            keys = {}  # (parent among the previous level's nodes, letter)
            for w, row in enumerate(rows):
                if k <= len(row):
                    nodes[w] = keys.setdefault((nodes[w] - lower, row[k - 1]),
                                               base + len(keys))
            columns.append(list(nodes))
            self.levels.append(
                _level(base, [[(src, a, 1)] for src, a in keys]))
            lower, base = base, base + len(keys)
        self.f0 = np.zeros(base, dtype=complex)
        self.f0[0] = 1.0
        self.final = None
        self.first = _first_level(self, len(letter_cols))
        self.outputs = np.array(columns, dtype=int).T
        self.scale = 1.0


def _ratio(w, lead):
    """w / lead exactly: an int when it divides, else a Fraction."""
    if type(w) is int and type(lead) is int and w % lead == 0:
        return w // lead
    q = Fraction(w) / Fraction(lead)
    return q.numerator if q.denominator == 1 else q


class _Automaton(_Sweep):
    """The minimal weighted automaton of an element's words, for a sweep
    that yields only the element's value sum_w c_w It(w).

    Read a word letter by letter from the left (the innermost letter
    first).  A prefix p has the suffix function S_p(s) = c_(ps), and the
    element is the suffix function of the empty prefix.  Prefixes whose
    suffix functions are proportional share a state: the state holds one
    representative S_q, and each of its prefixes has S_p = lam_p S_q.
    The integral of ps is linear in the prefix integral F_p, so the sweep
    carries G_q = sum_p lam_p F_p per state, and the states of a level
    follow from the previous level's through weighted edges:
    G_r' = sum over edges (q, a, w) into r of w G_q L_a, with G = 1 at
    the root.  The last letter ends every word, so the level of full
    words is a single state E with E' = sum_q G_q (L @ final)[q], where
    the (letters, last-level states) matrix `final` holds the combined
    last letter of each state.  The element's value is scale * E(1), its
    one output.

    The automaton is computed exactly, with int and Fraction arithmetic,
    from the longest prefixes down.  A prefix's edges (letter, next state,
    weight) are divided by the weight of its first letter, and prefixes
    with equal normalised edges are one state, with that first weight as
    their lam.  Every prefix has one edge per letter, so a state keeps one
    weight per (letter, next state).  States are numbered as their first
    prefix appears in sorted order, so the automaton depends on the
    element alone.  The 720 words of the degree-3 element need 20 and 90
    states at levels 1 and 2 and 360 entries of `final` (the prefix trie
    has 20, 180 and 720 nodes); the 40320 words of degree 4 need 70, 1120
    and 1260 states and 5040 entries.  A level's states are numbered by
    falling in-degree, then as above.
    """

    def __init__(self, t, dim, count):
        if not isinstance(t, MultTensor):
            raise ContractViolation("expected a MultTensor element")
        if t.is_zero():
            raise ContractViolation("cannot integrate the zero element")
        symbols = sorted({sym for slots in t.terms for sym in slots},
                         key=symbol_sort_key)
        column = {sym: a for a, sym in enumerate(symbols)}
        self.letters = _LetterTable([((1, sym),) for sym in symbols], dim,
                                    count)
        # (state, lam) of every prefix, from the full words (all in the
        # state E, lam = coefficient) down to the empty prefix; keys[k]
        # lists the normalised edges of the states of prefix length k
        classes = {tuple(map(column.__getitem__, slots)): (0, c)
                   for slots, c in t.terms.items()}
        keys = []
        for _ in range(t.arity):
            edges = {}
            for word, (state, lam) in classes.items():
                edges.setdefault(word[:-1], []).append(
                    (word[-1], state, lam))
            states = {}
            classes = {}
            for prefix in sorted(edges):
                out = sorted(edges[prefix])
                lead = out[0][2]
                key = tuple((a, r, _ratio(w, lead)) for a, r, w in out)
                classes[prefix] = (states.setdefault(key, len(states)), lead)
            keys.insert(0, list(states))
        self.scale = complex(classes[()][1])

        self.levels = []
        order = [0]  # sweep position of each state of the previous level
        base = 1
        for k in range(1, t.arity):
            incoming = [[] for _ in keys[k]]
            for q, key in enumerate(keys[k - 1]):
                for a, r, w in key:
                    incoming[r].append((order[q], a, w))
            by_degree = sorted(range(len(incoming)),
                               key=lambda r: -len(incoming[r]))
            order = [0] * len(incoming)
            for pos, r in enumerate(by_degree):
                order[r] = pos
            self.levels.append(
                _level(base, [sorted(incoming[r]) for r in by_degree]))
            base += len(by_degree)
        self.final = np.zeros((len(symbols), len(order)))
        for q, key in enumerate(keys[-1]):
            for a, _, w in key:
                self.final[a, order[q]] = float(w)
        self.f0 = np.zeros(base + 1, dtype=complex)
        self.f0[0] = 1.0
        self.first = _first_level(self, len(symbols))
        self.outputs = np.array([[base]])


def _chebvander(x, deg):
    """The Chebyshev-Vandermonde matrix of the float or complex array x,
    T_0..T_deg along a new last axis: numpy's `chebvander` recurrence
    (T_0 = 1, T_1 = x, T_i = T_(i-1) * 2x - T_(i-2)) and memory layout,
    so the values and the products taken with them are bit-identical,
    without its argument conversion and `np.moveaxis` call."""
    v = np.empty((deg + 1,) + x.shape, dtype=x.dtype)
    v[0] = 1.0
    if deg > 0:
        x2 = 2 * x
        v[1] = x
        for i in range(2, deg + 1):
            v[i] = v[i - 1] * x2 - v[i - 2]
    return v.transpose((*range(1, v.ndim), 0))


def _chebder(c):
    """The derivative in s = (x + 1) / 2 of a stack of Chebyshev series
    along their second axis, (stack, terms, brackets): numpy's
    `chebder(c, scl=2.0, axis=1)` recurrence, so the coefficients are
    bit-identical, without its argument handling and `np.moveaxis`
    calls.  Each step acts entry by entry, so a series differentiated in
    a stack is the one differentiated alone."""
    n = c.shape[1] - 1
    if n < 1:
        return c[:, :1] * 0
    c = c * 2.0
    der = np.empty((len(c), n, c.shape[2]), dtype=c.dtype)
    for j in range(n, 2, -1):
        der[:, j - 1] = (2 * j) * c[:, j]
        c[:, j - 2] += (j * c[:, j]) / (j - 2)
    if n > 1:
        der[:, 1] = 4 * c[:, 2]
    der[:, 0] = c[:, 1]
    return der


@lru_cache(maxsize=64)
def _fit_tables(top, deg):
    """The fixed arrays of a fit of degree `top` to a segment of degree
    `deg`: the powers s^0..s^deg at the top + 1 Chebyshev points (as
    s = (x + 1) / 2), (deg + 1, top + 1), and the Chebyshev-Vandermonde
    matrix at the points, (top + 1, top + 1).  Both are real, and stored
    as complex arrays: the einsum and the solve of a fit would cast them
    to complex on every call (exactly, so the fit is the same).  The
    arrays are shared, so they are read-only."""
    x = np.cos(np.pi * (np.arange(top + 1) + 0.5) / (top + 1))
    tables = (((0.5 * (x + 1.0)) ** np.arange(deg + 1)[:, None]).astype(
        complex), _chebvander(x, top).astype(complex))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _fit_brackets(segs, letters):
    """Every bracket of the letter table on a stack of path segments of
    one degree, (segments, deg + 1, count, dim), as a Chebyshev series in
    x = 2s - 1 per segment, and its derivative in s: two (segments,
    terms, brackets) arrays, whose entry k is segment k's fit.

    A bracket is a polynomial in s of degree at most dim * deg, so its
    values at that many plus one Chebyshev points, taken by one batched
    det, fix the series.  (A monomial fit is ill-conditioned at degree 9
    near a zero; the Chebyshev-Vandermonde matrix at Chebyshev points is
    a scaled orthogonal one.)  The einsum, det and solve treat the
    segments of the stack one by one with the same operations, so each
    fit is bit for bit the fit of its segment alone.
    """
    deg = segs.shape[1] - 1
    powers, vander = _fit_tables(segs.shape[3] * deg, deg)
    m = np.einsum("sdcx,du->sucx", segs, powers)
    series = np.linalg.solve(
        vander, np.linalg.det(m.take(letters.brackets, axis=2)))
    return series, _chebder(series)


def _path_fits(segments, letters):
    """`_fit_brackets` of each segment in turn, (series, slopes), with
    the segments of one degree fitted in one stack."""
    stacks = {}
    for seg in segments:
        stacks.setdefault(seg.shape[0], []).append(seg)
    fits = {terms: zip(*_fit_brackets(np.array(stack), letters))
            for terms, stack in stacks.items()}
    return [next(fits[seg.shape[0]]) for seg in segments]


def _letter_values(fit, svals, letters):
    """Values of every letter at the nodes of a run of panels.

    `svals` holds the node positions in s, (panels, nodes), and `fit` is
    the segment's `_fit_brackets`; the d log of a bracket P is P'/P, both
    read off the series at the nodes.  A panel fails when a bracket's
    modulus drops below POLE_THRESHOLD at one of its nodes (PoleError) or
    its value turns by more than PHASE_JUMP_LIMIT = pi/2 between adjacent
    nodes (_PhaseJump).  The turn from v to w exceeds pi/2 exactly when
    Re(w conj(v)) < 0, which is the test made, so no angle is taken
    unless a panel fails; a quarter turn is no jump.  Of several offending
    brackets the first in `letters.symbols` is reported, its modulus
    checked before its phase, and a jump reports the largest
    |angle(w / v)| of that bracket on that panel.  Returns the letter
    values of the panels before the first failing one, (passed, nodes,
    letters), and that panel's index and exception, unraised, or None
    when every panel passes.
    """
    series, slopes = fit
    vander = _chebvander(2.0 * svals - 1.0, len(series) - 1)
    vals = vander @ series
    small = np.abs(vals).min(axis=1)
    turned = (vals[:, 1:] * vals[:, :-1].conj()).real < 0
    passed, failure = len(svals), None
    if small.min(initial=POLE_THRESHOLD) < POLE_THRESHOLD or turned.any():
        bad = (small < POLE_THRESHOLD) | turned.any(axis=1)
        passed, b = divmod(int(bad.argmax()), bad.shape[1])
        sym = letters.symbols[b]
        if small[passed, b] < POLE_THRESHOLD:
            failure = passed, PoleError(
                f"bracket {symbol_to_str(sym)} modulus "
                f"{small[passed, b]:.3e} below {POLE_THRESHOLD:g} on the path")
        else:
            v = vals[passed, :, b]
            failure = passed, _PhaseJump(
                sym, float(np.abs(np.angle(v[1:] / v[:-1])).max()))
    values = vander[:passed, :, :len(slopes)] @ slopes / vals[:passed]
    if letters.coef is not None:
        values = values @ letters.coef
    return values, failure


def _monomials(top):
    """(top+1, top+1) matrix taking Chebyshev coefficients to monomial
    ones: column j holds T_j, from T_j = 2x T_(j-1) - T_(j-2)."""
    out = np.eye(top + 1)
    for j in range(2, top + 1):
        out[:, j] = -out[:, j - 2]
        out[1:, j] += 2.0 * out[:-1, j - 1]
    return out


def _check_segment_roots(fit, letters, index):
    """Raise PoleError when a bracket of the letter table vanishes on the
    segment.

    The segment's fitted series (`_fit_brackets`) give each bracket's
    monomial coefficients in x = 2s - 1; negligible leading coefficients
    are trimmed, and the eigenvalues of the companion matrices are the
    roots.  The bracket vanishes on the segment when its series has
    modulus below POLE_THRESHOLD at a root's projection onto [0, 1].  A
    complex zero off the segment leaves the modulus there well above it,
    so a path that only grazes a zero passes.
    """
    series = fit[0]
    top = len(series) - 1
    if not letters.symbols or top == 0:
        return
    coef = (_monomials(top) @ series).T
    mag = np.abs(coef)
    keep = mag > _ROOT_TRIM * mag.max(axis=1, keepdims=True)
    degree = top - np.argmax(keep[:, ::-1], axis=1)
    # Padding a polynomial of lower degree with factors x adds roots at
    # x = 0; like any other candidate they are only checked, never trusted.
    padded = np.zeros_like(coef)
    for b, d in enumerate(degree):
        padded[b, top - d:] = coef[b, :d + 1]
    live = np.flatnonzero((degree >= 1) & (padded[:, top] != 0))
    if not len(live):
        return
    companion = np.zeros((len(live), top, top), dtype=complex)
    companion[:, 1:, :-1] = np.eye(top - 1)
    companion[:, :, -1] = -padded[live, :top] / padded[live, top, None]
    x = np.clip(np.linalg.eigvals(companion).real, -1.0, 1.0)
    mod = np.abs(np.einsum("lrk,kl->lr", _chebvander(x, top),
                           series[:, live]))
    hit = (mod < POLE_THRESHOLD).any(axis=1)
    if hit.any():
        b = int(hit.argmax())
        r = int(mod[b].argmin())
        sym = letters.symbols[live[b]]
        raise PoleError(
            f"bracket {symbol_to_str(sym)} modulus {mod[b, r]:.3e} below "
            f"{POLE_THRESHOLD:g} at s = {0.5 * (x[b, r] + 1.0):.6f} of path "
            f"segment {index}; the path crosses a zero of the bracket")


def _controls(tol, budget):
    """The tolerance and panel budget as the engine reads them.  A NaN
    tolerance would accept no panel, an infinite one any, and a negative
    one would act as 0 (which asks for the rounding floor), so all three
    are refused, and so is a budget below one panel."""
    tol, budget = float(tol), int(budget)
    if not isfinite(tol):
        raise ContractViolation(f"tolerance {tol!r} is not finite")
    if tol < 0:
        raise ContractViolation(f"tolerance {tol!r} is negative")
    if budget < 1:
        raise ContractViolation(f"panel budget {budget!r} is below one panel")
    return tol, budget


class _Engine:
    """The adaptive panel control of one path for the states of a `_Sweep`:
    their letter table and start states `f0`, how a panel moves them
    (`sweep`), and their outputs' errors and values (`errors`, `ends`)."""

    def __init__(self, states, path, tol, budget):
        self.states = states
        self.path = path
        self.tol, self.budget = _controls(tol, budget)
        self.panels = 0
        self.depth_exceeded = False
        self.err = 0.0
        self.segment = 0
        self.roots_checked = False
        self.refused = 0

    def _letters(self, fit, spans):
        """The letter values of the panels `spans` in one call, up to the
        first whose letters fail, as (values, rises, failure): one
        (nodes, letters) array per panel; what the panel adds to the first
        level's states per unit start state, hh * (weights @ values) @ M
        for `first` = (nodes, M); and the failing panel's exception, or
        None."""
        x, weights, _, _ = _quadrature()
        hh = np.array([0.5 * (b - a) for a, b in spans])[:, None]
        svals = np.array([0.5 * (a + b) for a, b in spans])[:, None] + hh * x
        values, failure = _letter_values(fit, svals, self.states.letters)
        rises = (weights @ values) @ self.states.first[1]
        rises *= hh[:len(values)]
        return values, rises, None if failure is None else failure[1]

    def _doomed(self, f_a, rises, width):
        """Whether the first level's rows of |whole - halves| already fail
        the acceptance test by a factor 2, read off the rises of the whole
        panel and its halves: those rows are
        |f_a[0] * (rise_whole - rise_left - rise_right)|, and the scale
        stands in for the halves' largest state by the start states and
        the first level's end values.  (The sweep could accept such a step
        only if its largest state more than doubled on it.)"""
        whole, left, right = rises
        halves = left + right
        gap = abs(f_a[0]) * float(np.abs(whole - halves).max())
        limit = 2.0 * max(self.tol * width, _ROUNDING_FLOOR)
        if gap <= limit:
            return False
        ends = f_a[self.states.first[0]] + f_a[0] * halves
        return gap > limit * max(1.0, float(np.abs(f_a).max()),
                                 float(np.abs(ends).max()))

    def _advance(self, fit, sa, sb, f_a, depth, whole=None, known=None):
        """Integrate [sa, sb] from f_a, comparing the whole panel with its
        two halves and splitting until they agree.  `whole`, when given,
        is the whole panel already swept (same interval, same start
        states), and `known` the (values, rises, failure) of `_letters`
        for the step's panels (whole, left half, right half) as far as a
        parent evaluated them; the rest are evaluated in one call.

        A step whose letters pass, short of MAX_DEPTH, is first tested
        from its letters (`_doomed`), and a doomed step splits unswept:
        its sweeps would be rejected, and its children sweep from the
        same start states with the same letters as after a swept split,
        so values and errors are those of sweeping every step.  Otherwise
        the panels are swept in order, the right half from the left
        half's end states; each counts against the budget before it is
        swept, and a panel whose letters failed raises in its turn.  A
        split (`_split`) hands its halves' letters down, so no panel's
        letters are evaluated twice."""
        mid = 0.5 * (sa + sb)
        spans = ((sa, sb), (sa, mid), (mid, sb))
        if known is None:
            known = self._letters(fit, spans)
        elif len(known[0]) < 3 and known[2] is None:
            more = self._letters(fit, spans[len(known[0]):])
            known = ([*known[0], *more[0]], [*known[1], *more[1]], more[2])
        lvs, rises, failure = known
        if (failure is None and depth < MAX_DEPTH
                and self._doomed(f_a, rises, sb - sa)):
            self.refused += 1
            return self._split(fit, sa, sb, f_a, depth, lvs, rises)
        swept = [] if whole is None else [whole]
        try:
            for i in range(len(swept), 3):
                self.panels += 1
                if self.panels > self.budget:
                    raise BudgetError(
                        f"panel budget {self.budget} exhausted; the path "
                        "may pass too close to a pole or the tolerance is "
                        "too tight")
                if i == len(lvs):  # the first panel whose letters failed
                    raise failure
                a, b = spans[i]
                start = swept[1] if i == 2 else f_a
                swept.append(self.states.sweep(lvs[i], start, 0.5 * (b - a)))
        except _PhaseJump as exc:
            if depth >= MAX_DEPTH:
                raise PoleError(
                    f"bracket {symbol_to_str(exc.sym)} turns by "
                    f"{exc.jump:.2f} rad between adjacent nodes at full "
                    f"subdivision depth; the path crosses or grazes a "
                    f"zero of the bracket") from None
            if not self.roots_checked:
                self.roots_checked = True
                _check_segment_roots(fit, self.states.letters,
                                     self.segment)
            # the left half, when it was swept before the right one failed
            left, known = None, None
            if len(swept) == 2:
                left, known = swept[1], ([lvs[1]], [rises[1]], None)
            f_mid = self._advance(fit, sa, mid, f_a, depth + 1, left, known)
            return self._advance(fit, mid, sb, f_mid, depth + 1)
        whole, left, halves = swept
        diff = np.abs(whole - halves)
        worst = float(diff.max())
        # the scale is at least 1, so it is read only when it matters
        limit = max(self.tol * (sb - sa), _ROUNDING_FLOOR)
        converged = worst <= limit or worst <= limit * max(
            1.0, float(np.abs(halves).max()))
        if converged or depth >= MAX_DEPTH:
            if not converged:
                self.depth_exceeded = True
            self.err += self.states.errors(diff)
            return halves
        return self._split(fit, sa, sb, f_a, depth, lvs, rises, left)

    def _split(self, fit, sa, sb, f_a, depth, lvs, rises, left=None):
        """Advance the halves of [sa, sb] in turn, given the step's letter
        values and rises and, when it was swept, its left half, which is
        the left child's whole panel.  The children's own halves (the four
        quarter panels) are evaluated in one call, and each child gets its
        whole panel's and halves' letters; a child whose quarters come
        after a failing one evaluates them itself."""
        mid = 0.5 * (sa + sb)
        q1, q3 = 0.5 * (sa + mid), 0.5 * (mid + sb)
        qvs, qrises, failure = self._letters(
            fit, ((sa, q1), (q1, mid), (mid, q3), (q3, sb)))
        right = [lvs[2]], [rises[2]], None
        if len(qvs) >= 2:
            right = [lvs[2], *qvs[2:]], [rises[2], *qrises[2:]], failure
            failure = None
        f_mid = self._advance(
            fit, sa, mid, f_a, depth + 1, left,
            ([lvs[1], *qvs[:2]], [rises[1], *qrises[:2]], failure))
        return self._advance(fit, mid, sb, f_mid, depth + 1, known=right)

    def run(self, start=None):
        """Sweep the whole path from the start states `start` (default:
        the states' own `f0`, whose shape it must have); returns the end
        values of the results.  Each segment's brackets are fitted once,
        before the first panel, in one stack with the other segments of
        its degree (`_path_fits`), and the fit serves all its panels."""
        f = self.states.f0 if start is None else np.array(start, complex)
        if f.shape != self.states.f0.shape:
            raise ContractViolation(
                f"start states of shape {f.shape} do not match the sweep's "
                f"{self.states.f0.shape}")
        fits = _path_fits(self.path.segments, self.states.letters)
        for index, fit in enumerate(fits):
            self.segment, self.roots_checked = index, False
            f = self._advance(fit, 0.0, 1.0, f, 0)
        return self.states.ends(f)


def iterate_words(words, path, tol=1e-12, budget=DEFAULT_BUDGET):
    """Integrate many words along one path in a single shared sweep.

    Returns a list of IterIntResult in the order given; all results carry
    the shared panel count, the number of panel sweeps evaluated.
    """
    layout = _layout(path, words, element=False, name="iterate_words")
    return _iterate_prepared(layout, path, tol, budget)


def iterate_word(word, path, tol=1e-12, budget=DEFAULT_BUDGET,
                 initial=None):
    """Iterated integral of one word; see the module docstring for the
    nesting convention (first letter innermost).  `initial`, when given,
    holds the start values of the word's prefixes of length 0, 1, ...,
    len(word) (default 1, 0, ..., 0)."""
    layout = _layout(path, [word], element=False, name="iterate_word")
    return _iterate_prepared(layout, path, tol, budget, start=initial)[0]


def _iterate_prepared(states, path, tol, budget, start=None):
    """One result per output of prepared states, from one sweep that starts
    at `start` (default: their own `f0`), all with the shared panel count."""
    engine = _Engine(states, path, tol, budget)
    return [IterIntResult(complex(value), float(err), engine.panels,
                          engine.depth_exceeded, path)
            for value, err in zip(engine.run(start), engine.err)]


def iterate_element(t, path, tol=1e-12, budget=DEFAULT_BUDGET):
    """Iterated integral of a tensor element: the coefficient-weighted sum
    of its term words, swept as one minimal weighted automaton.  The
    error is the accumulated |whole - halves| of the element's value, not
    a sum of per-word errors.  Any element but grassmannian_tate's own is
    integrated here."""
    layout = _layout(path, t, element=True, name="iterate_element")
    return _iterate_prepared(layout, path, tol, budget)[0]


def _layout(path, obj, element=None, name=None, loop=False):
    """The sweep layout of `obj` on `path`: an element's `_Automaton` or a
    word list's `_WordBatch`.  The path must be a PathSpec (and closed, for
    a `loop`), or a PathError names the entry point `name`.  With `element`
    None, obj is an element or one word, told apart by whether it is a
    MultTensor, and `name` is the iterate_* function of that kind."""
    if element is None:
        element = isinstance(obj, MultTensor)
        obj = obj if element else [obj]
        name = name or ("iterate_element" if element else "iterate_word")
    if not isinstance(path, PathSpec):
        raise PathError(f"{name} needs a PathSpec")
    if loop and not path.is_closed():
        raise PathError(f"{name} needs a closed loop")
    if element:
        return _Automaton(obj, path.dim, path.count)
    return _WordBatch(obj, path.dim, path.count)


def homotopy_test(obj, path, deformations=5, amplitude=0.1, seed=0,
                  tol=1e-7, quad_tol=1e-12, budget=DEFAULT_BUDGET,
                  resample=20, mask=None):
    """Value spread of an element or word over interior path deformations.

    Deforms the path `deformations` times with endpoint-fixing bumps,
    resampling a deformation (fresh seed) when it collides with a pole,
    and reports the maximal deviation from the undeformed value; one sweep
    layout serves the path and every deformation.  Integrable elements
    must show spread below tol; a generic non-integrable word will not.
    Fewer than one deformation, or a zero amplitude (every deformation is
    the path itself), is refused: such a test compares nothing and would
    pass anything.
    """
    if int(deformations) < 1:
        raise ContractViolation(
            f"homotopy_test needs at least one deformation, not "
            f"{deformations}")
    if amplitude == 0:
        raise ContractViolation("homotopy_test needs a nonzero amplitude")
    layout = _layout(path, obj)
    base = _iterate_prepared(layout, path, quad_tol, budget)[0]

    def trial(i):
        for attempt in range(int(resample)):
            deformed = path.deform(seed=repr(("homotopy", seed, i, attempt)),
                                   amplitude=amplitude, mask=mask)
            try:
                return _iterate_prepared(layout, deformed, quad_tol,
                                         budget)[0]
            except PoleError:
                continue
        raise PathError(
            f"no pole-free deformation found in {resample} attempts "
            f"(trial {i}, amplitude {amplitude})")

    trials = [trial(i) for i in range(int(deformations))]
    values = [base.value] + [r.value for r in trials]
    spread = max(abs(v - base.value) for v in values)
    return {
        "check": "homotopy",
        "status": "pass" if spread < tol else "fail",
        "spread": spread,
        "tol": tol,
        "amplitude": amplitude,
        "deformations": int(deformations),
        "values": [[v.real, v.imag] for v in values],
        "panels": base.panels + sum(r.panels for r in trials),
    }


def shuffle_test(word_a, word_b, path, tol=1e-8, quad_tol=1e-12,
                 budget=DEFAULT_BUDGET):
    """Chen shuffle identity: It(a) * It(b) = sum over shuffles of It.

    All integrals run in one shared sweep; returns a report dict with both
    sides and the discrepancy.
    """
    a = normalize_word(word_a)
    b = normalize_word(word_b)
    mixed = list(shuffles(a, b))
    results = iterate_words([a, b] + mixed, path, tol=quad_tol,
                            budget=budget)
    product = results[0].value * results[1].value
    total = sum(r.value for r in results[2:])
    diff = abs(product - total)
    return {
        "check": "shuffle",
        "status": "pass" if diff < tol else "fail",
        "product": [product.real, product.imag],
        "shuffle_sum": [total.real, total.imag],
        "difference": diff,
        "tol": tol,
        "shuffles": len(mixed),
        "panels": results[0].panels,
    }


def monodromy_probe(obj, loop, tol=1e-12, budget=DEFAULT_BUDGET):
    """Value of an element or word around a closed loop; nonzero values
    witness monodromy of the underlying multivalued function."""
    layout = _layout(loop, obj, name="monodromy probe", loop=True)
    return _iterate_prepared(layout, loop, tol, budget)[0].value
