"""Numerical iterated integrals of d log bracket forms along paths.

A path is a piecewise-polynomial map from [0,1] into the space of
configurations (complex matrices whose rows are the vectors).  A letter is
an integer (or rational, or complex) combination of d log of bracket
symbols; a word is a sequence of letters.  The iterated integral of a word
(w_1, ..., w_n) is F_n(1) where F_0 = 1 and F_k' = F_{k-1} * (pullback of
w_k), so the first letter of a word is the innermost integration.

The quadrature engine advances all prefixes F_1..F_n panel by panel: on
each panel the letter values at the Gauss nodes are combined with a
spectral prefix-antiderivative matrix, so one lower-triangular sweep per
panel yields every F_k at every node.  Many words are integrated in a
single sweep, sharing panels and letter evaluations; this is how elements
with hundreds of terms stay cheap.  Panels split adaptively by comparing a
whole-panel step against two half-panel steps; acceptance is proportional
to the interval so the accumulated estimate stays near the requested
tolerance.

Failure modes are explicit: a bracket modulus below POLE_THRESHOLD at any
node raises PoleError, exceeding the panel budget raises BudgetError, and
malformed or discontinuous paths raise PathError.  Evaluation is
single-threaded and results are deterministic for fixed inputs; the
GRASSPOLY_THREADS environment variable is accepted and ignored.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .configurations import Configuration
from .errors import BudgetError, ContractViolation, PathError, PoleError
from .tensors import BRACKET, SCALAR, MultTensor, symbol_to_str

GAUSS_ORDER = 16
POLE_THRESHOLD = 1e-8
PHASE_JUMP_LIMIT = np.pi / 2
DEFAULT_BUDGET = 16384
MAX_DEPTH = 26
_JOINT_TOL = 1e-9


class _PhaseJump(Exception):
    """Internal signal: a bracket value turned by more than
    PHASE_JUMP_LIMIT between adjacent nodes, so the panel straddles (or
    grazes) a zero that the modulus check alone cannot see.  The engine
    splits the panel; a jump persisting at full depth becomes PoleError."""

    def __init__(self, sym, jump):
        super().__init__(sym, jump)
        self.sym = sym
        self.jump = jump


def _prefix_matrices():
    """Gauss nodes/weights and the node-to-node prefix integration matrix.

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
    return x, w, anti @ coef


_NODES, _WEIGHTS, _QMAT = _prefix_matrices()


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
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


class PathSpec:
    """Piecewise-polynomial path: each segment maps s in [0,1] to a
    (count, dim) complex matrix via coefficient stacks (degree+1, count,
    dim), joined continuously."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        segs = []
        for seg in segments:
            arr = np.asarray(seg, dtype=complex)
            if arr.ndim != 3 or arr.shape[0] < 1:
                raise PathError(
                    "segment coefficients must have shape (degree+1, count, dim)")
            segs.append(_freeze(arr))
        if not segs:
            raise PathError("a path needs at least one segment")
        shape = segs[0].shape[1:]
        for arr in segs[1:]:
            if arr.shape[1:] != shape:
                raise PathError("all segments must share (count, dim)")
        for a, b in zip(segs, segs[1:]):
            end = a.sum(axis=0)
            start = b[0]
            scale = max(1.0, float(np.abs(end).max()))
            if not np.allclose(end, start, rtol=0.0, atol=_JOINT_TOL * scale):
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
        a, b = self.start(), self.end()
        scale = max(1.0, float(np.abs(a).max()))
        return bool(np.allclose(a, b, rtol=0.0, atol=tol * scale))

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
    from .tensors import bracket_symbol

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


@dataclass(frozen=True)
class IterIntResult:
    value: complex
    error: float
    panels: int
    depth_exceeded: bool = False

    def to_json_dict(self):
        return {"value": [self.value.real, self.value.imag],
                "error": self.error,
                "panels": self.panels}


# ---------------------------------------------------------------------------
# the engine


class _WordBatch:
    def __init__(self, words):
        if not words:
            raise ContractViolation("no words to integrate")
        self.words = [normalize_word(w) for w in words]
        letter_cols = {}
        rows = []
        for w in self.words:
            rows.append([letter_cols.setdefault(l, len(letter_cols))
                         for l in w])
        self.letters = list(letter_cols)
        self.lengths = np.array([len(w) for w in self.words], dtype=int)
        self.max_len = int(self.lengths.max())
        self.cols = np.zeros((len(rows), self.max_len), dtype=int)
        for i, row in enumerate(rows):
            self.cols[i, :len(row)] = row
        depth = np.arange(self.max_len + 1)
        self.mask = depth[None, :] <= self.lengths[:, None]


def _letter_values(seg, svals, letters, dim):
    """Values of every letter at the given s positions: (nodes, letters)."""
    deg = seg.shape[0] - 1
    powers = svals[None, :] ** np.arange(deg + 1)[:, None]
    m = np.einsum("dcx,du->ucx", seg, powers)
    if deg >= 1:
        dcoef = seg[1:] * np.arange(1, deg + 1)[:, None, None]
        mp = np.einsum("dcx,du->ucx", dcoef, powers[:deg])
    else:
        mp = np.zeros_like(m)
    cache = {}

    def symbol_value(sym):
        if sym in cache:
            return cache[sym]
        kind, payload = sym
        if kind == SCALAR:
            val = np.zeros(len(svals), dtype=complex)
        else:
            if len(payload) != dim:
                raise ContractViolation(
                    f"bracket {symbol_to_str(sym)} needs {len(payload)} "
                    f"coordinates but the path has dimension {dim}")
            if max(payload) > seg.shape[1] or min(payload) < 1:
                raise ContractViolation(
                    f"bracket {symbol_to_str(sym)} indexes outside the "
                    f"path's {seg.shape[1]} vectors")
            idx = [i - 1 for i in payload]
            a = m[:, idx, :]
            det = np.linalg.det(a)
            small = np.abs(det).min()
            if small < POLE_THRESHOLD:
                raise PoleError(
                    f"bracket {symbol_to_str(sym)} modulus {small:.3e} "
                    f"below {POLE_THRESHOLD:g} on the path")
            turns = np.abs(np.angle(det[1:] / det[:-1]))
            if len(turns) and turns.max() > PHASE_JUMP_LIMIT:
                raise _PhaseJump(sym, float(turns.max()))
            val = np.trace(np.linalg.solve(a, mp[:, idx, :]),
                           axis1=1, axis2=2)
        cache[sym] = val
        return val

    out = np.zeros((len(svals), len(letters)), dtype=complex)
    for g, letter in enumerate(letters):
        acc = np.zeros(len(svals), dtype=complex)
        for coeff, sym in letter:
            acc += complex(coeff) * symbol_value(sym)
        out[:, g] = acc
    return out


class _Engine:
    def __init__(self, batch, path, tol, budget, initial=None):
        self.batch = batch
        self.path = path
        self.tol = float(tol)
        self.budget = int(budget)
        self.panels = 0
        self.depth_exceeded = False
        w = len(batch.words)
        f0 = np.zeros((w, batch.max_len + 1), dtype=complex)
        f0[:, 0] = 1.0
        if initial is not None:
            init = np.asarray(initial, dtype=complex)
            if init.shape != f0.shape:
                raise ContractViolation(
                    f"initial prefix shape {init.shape} does not match "
                    f"(words, max_len + 1) = {f0.shape}")
            f0 = init.copy()
        self.f0 = f0
        self.err = np.zeros(w)

    def _panel(self, seg, sa, sb, f_a):
        self.panels += 1
        if self.panels > self.budget:
            raise BudgetError(
                f"panel budget {self.budget} exhausted; the path may pass "
                "too close to a pole or the tolerance is too tight")
        hh = 0.5 * (sb - sa)
        svals = 0.5 * (sa + sb) + hh * _NODES
        lv = _letter_values(seg, svals, self.batch.letters, self.path.dim)
        cols = self.batch.cols
        f_b = f_a.copy()
        prev = np.broadcast_to(f_a[:, 0][:, None],
                               (cols.shape[0], GAUSS_ORDER))
        for k in range(1, self.batch.max_len + 1):
            g = lv[:, cols[:, k - 1]].T * prev
            prev = f_a[:, k][:, None] + hh * (g @ _QMAT.T)
            f_b[:, k] = f_a[:, k] + hh * (g @ _WEIGHTS)
        return f_b

    def _advance(self, seg, sa, sb, f_a, depth):
        mid = 0.5 * (sa + sb)
        try:
            whole = self._panel(seg, sa, sb, f_a)
            left = self._panel(seg, sa, mid, f_a)
            halves = self._panel(seg, mid, sb, left)
        except _PhaseJump as exc:
            if depth >= MAX_DEPTH:
                raise PoleError(
                    f"bracket {symbol_to_str(exc.sym)} turns by "
                    f"{exc.jump:.2f} rad between adjacent nodes at full "
                    f"subdivision depth; the path crosses or grazes a "
                    f"zero of the bracket") from None
            f_mid = self._advance(seg, sa, mid, f_a, depth + 1)
            return self._advance(seg, mid, sb, f_mid, depth + 1)
        diff = np.where(self.batch.mask, np.abs(whole - halves), 0.0)
        per_word = diff.max(axis=1)
        scale = max(1.0, float(np.abs(np.where(self.batch.mask, halves,
                                               0.0)).max()))
        converged = bool((per_word <= self.tol * (sb - sa) * scale).all())
        if converged or depth >= MAX_DEPTH:
            if not converged:
                self.depth_exceeded = True
            self.err += per_word
            return halves
        f_mid = self._advance(seg, sa, mid, f_a, depth + 1)
        return self._advance(seg, mid, sb, f_mid, depth + 1)

    def run(self):
        f = self.f0
        for seg in self.path.segments:
            f = self._advance(seg, 0.0, 1.0, f, 0)
        return f


def iterate_words(words, path, tol=1e-12, budget=DEFAULT_BUDGET,
                  initial=None):
    """Integrate many words along one path in a single shared sweep.

    Returns a list of IterIntResult in the order given; all results carry
    the shared panel count.
    """
    if not isinstance(path, PathSpec):
        raise PathError("iterate_words needs a PathSpec")
    batch = _WordBatch(words)
    engine = _Engine(batch, path, tol, budget, initial=initial)
    f_end = engine.run()
    out = []
    for i, length in enumerate(batch.lengths):
        out.append(IterIntResult(
            value=complex(f_end[i, length]),
            error=float(engine.err[i]),
            panels=engine.panels,
            depth_exceeded=engine.depth_exceeded))
    return out


def iterate_word(word, path, tol=1e-12, budget=DEFAULT_BUDGET,
                 initial=None):
    """Iterated integral of one word; see the module docstring for the
    nesting convention (first letter innermost)."""
    init = None
    if initial is not None:
        init = np.asarray(initial, dtype=complex)[None, :]
    return iterate_words([word], path, tol=tol, budget=budget,
                         initial=init)[0]


def _element_words(t):
    if not isinstance(t, MultTensor):
        raise ContractViolation("expected a MultTensor element")
    if t.is_zero():
        raise ContractViolation("cannot integrate the zero element")
    coeffs = []
    words = []
    for slots, coeff in t.items_sorted():
        words.append(tuple(((1, sym),) for sym in slots))
        coeffs.append(complex(coeff))
    return coeffs, words


def iterate_element(t, path, tol=1e-12, budget=DEFAULT_BUDGET):
    """Iterated integral of a tensor element: the coefficient-weighted sum
    of its term words, all sharing one quadrature sweep."""
    coeffs, words = _element_words(t)
    results = iterate_words(words, path, tol=tol, budget=budget)
    value = sum(c * r.value for c, r in zip(coeffs, results))
    error = sum(abs(c) * r.error for c, r in zip(coeffs, results))
    return IterIntResult(value=complex(value), error=float(error),
                         panels=results[0].panels,
                         depth_exceeded=any(r.depth_exceeded
                                            for r in results))


def _integrate_any(obj, path, tol, budget):
    if isinstance(obj, MultTensor):
        return iterate_element(obj, path, tol=tol, budget=budget)
    return iterate_word(obj, path, tol=tol, budget=budget)


def homotopy_test(obj, path, deformations=5, amplitude=0.1, seed=0,
                  tol=1e-7, quad_tol=1e-12, budget=DEFAULT_BUDGET,
                  resample=20, mask=None):
    """Value spread of an element or word over interior path deformations.

    Deforms the path `deformations` times with endpoint-fixing bumps,
    resampling a deformation (fresh seed) when it collides with a pole,
    and reports the maximal deviation from the undeformed value.  Integrable
    elements must show spread below tol; a generic non-integrable word will
    not.
    """
    base = _integrate_any(obj, path, tol=quad_tol, budget=budget)

    def trial(i):
        for attempt in range(int(resample)):
            deformed = path.deform(seed=repr(("homotopy", seed, i, attempt)),
                                   amplitude=amplitude, mask=mask)
            try:
                return _integrate_any(obj, deformed, tol=quad_tol,
                                      budget=budget)
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
    if not isinstance(loop, PathSpec):
        raise PathError("monodromy probe needs a PathSpec")
    if not loop.is_closed():
        raise PathError("monodromy probe needs a closed loop")
    return _integrate_any(obj, loop, tol=tol, budget=budget).value
