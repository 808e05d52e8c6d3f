"""Exact configurations of vectors and their determinant brackets.

Conventions used throughout the package:

* A configuration is an ordered list of m vectors in an n-dimensional
  coordinate space over an exact field: rationals, or Gaussian rationals
  when complex test points are wanted.  Vectors are indexed 1..m and every
  stored vector is nonzero.
* The volume form is the standard one, so the bracket of an index subset
  S = (i_1 < ... < i_n) is the determinant of the n x n matrix whose rows
  are the selected vectors in increasing index order.  An explicit row
  order may be passed to pick up the sign of a permutation.
* A configuration is generic when every subset of at most n of its vectors
  is linearly independent.  Genericity checks return a certificate naming
  a smallest failing subset, so a proportional pair is reported as a pair.
* project(center) realizes the quotient by one vector in coordinates
  normalized so that every bracket of the projected configuration equals
  the corresponding center-prepended bracket of the original, exactly and
  including sign.

All arithmetic is exact.  Determinants and the genericity test scale
each row to integers (Gaussian integers for GaussianRational entries)
and run fraction-free Bareiss elimination, so no Fraction arithmetic
happens inside the elimination.  A matrix entry is an int, a Fraction or
a GaussianRational; a float or complex entry is refused.
"""

import random
import re
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .errors import BudgetError, ContractViolation, DegeneracyError


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Arithmetic interoperates with int and Fraction.  Results with zero
    imaginary part are collapsed back to Fraction by as_scalar and by all
    arithmetic, so equality and hashing stay consistent across the two
    scalar kinds.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def _wrap(re, im):
        if im == 0:
            return Fraction(re)
        return GaussianRational(re, im)

    _wrap = staticmethod(_wrap)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self._wrap((self.re * o.re + self.im * o.im) / d,
                          (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    # -- comparison and misc ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return self._wrap(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_to_str(self)


def as_scalar(x):
    """Coerce x to an exact scalar: Fraction, or GaussianRational when the
    imaginary part is nonzero.  Strings are parsed; floats and bools (the
    ints 1 and 0 to Python, but never meant as numbers here) are
    rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return x.re
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    raise ContractViolation(f"not an exact scalar: {x!r}")


_GAUSS_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)(?P<im>[+-]\d+(?:/\d+)?)i$")
_IMAG_RE = re.compile(r"^(?P<im>[+-]?\d+(?:/\d+)?)i$")


def parse_scalar(s):
    """Parse 'p', 'p/q', 'a+bi', 'a/b-c/di' or 'bi' into an exact scalar."""
    s = s.strip().replace(" ", "")
    m = _GAUSS_RE.match(s)
    if m:
        return as_scalar(GaussianRational(Fraction(m.group("re")),
                                          Fraction(m.group("im"))))
    m = _IMAG_RE.match(s)
    if m:
        return as_scalar(GaussianRational(0, Fraction(m.group("im"))))
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"unparseable scalar {s!r}") from exc


def scalar_to_str(x):
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return str(x)
    im = str(x.im)
    if not im.startswith("-"):
        im = "+" + im
    return f"{x.re}{im}i"


def scalar_to_complex(x):
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return complex(float(x), 0.0)
    return complex(x)


class _GaussInt:
    """Gaussian integer re + im*i: the entry type of the fraction-free
    kernel when a matrix has GaussianRational entries.  + and * also take
    a plain int on either side and // takes one on the right (the
    kernel's zero sums and its first Bareiss divisor are ints); // is
    exact division."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, o):
        if type(o) is int:
            return _GaussInt(self.re + o, self.im)
        return _GaussInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        return _GaussInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        if type(o) is int:
            return _GaussInt(self.re * o, self.im * o)
        return _GaussInt(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __floordiv__(self, o):
        if type(o) is int:
            return _GaussInt(self.re // o, self.im // o)
        n = o.re * o.re + o.im * o.im
        return _GaussInt((self.re * o.re + self.im * o.im) // n,
                         (self.im * o.re - self.re * o.im) // n)

    def __bool__(self):
        return bool(self.re or self.im)


def _reciprocal(d):
    """(u, N) with 1/d = u/N and N a positive int: u = sign(d), N = |d| for
    an int, u = conj(d), N = |d|^2 for a Gaussian integer."""
    if type(d) is int:
        return (1, d) if d > 0 else (-1, -d)
    return _GaussInt(d.re, -d.im), d.re * d.re + d.im * d.im


def _quotient(x, den):
    """x / den for an exact integer x and a positive int den: a Fraction,
    or a GaussianRational when x has a nonzero imaginary part."""
    if type(x) is int:
        return Fraction(x, den)
    if not x.im:
        return Fraction(x.re, den)
    return GaussianRational(Fraction(x.re, den), Fraction(x.im, den))


def _parts(x):
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x, 0
    if isinstance(x, GaussianRational):
        return x.re, x.im
    raise ContractViolation(f"not a matrix entry: {x!r}")


def _integer_rows(rows):
    """Each row times the lcm of its entries' denominators.

    Returns (int_rows, scales).  The entries are ints, or _GaussInt for
    every entry when any entry has a nonzero imaginary part.
    """
    parts = [[_parts(x) for x in row] for row in rows]
    gaussian = any(im for row in parts for _, im in row)
    int_rows, scales = [], []
    for row in parts:
        scale = lcm(*[p.denominator for pair in row for p in pair])
        if gaussian:
            int_rows.append([
                _GaussInt(re.numerator * (scale // re.denominator),
                          im.numerator * (scale // im.denominator))
                for re, im in row])
        else:
            int_rows.append([re.numerator * (scale // re.denominator)
                             for re, _ in row])
        scales.append(scale)
    return int_rows, scales


def _bareiss(m):
    """Fraction-free (Bareiss) elimination of an integer or Gaussian
    integer matrix, in place.

    Returns (rank, det); det is the determinant when m is square and 0
    when its rank is short.  Every division is exact because each entry
    after step k is a (k+1)-minor of the input (Bareiss 1968), so the
    entries never leave the integers.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    sign, prev, row = 1, 1, 0
    for col in range(nc):
        if row == nr:
            break
        piv = row
        while piv < nr and not m[piv][col]:
            piv += 1
        if piv == nr:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        prow = m[row]
        p = prow[col]
        for r in range(row + 1, nr):
            cur = m[r]
            f = cur[col]
            for j in range(col + 1, nc):
                cur[j] = (cur[j] * p - f * prow[j]) // prev
        prev = p
        row += 1
    return row, (sign * prev if row == nr == nc else 0)


def exact_det(rows):
    """Determinant of a square matrix of exact scalars.

    Each row is scaled to integers (Gaussian integers for
    GaussianRational entries), the integer determinant comes from
    fraction-free Bareiss elimination, and the result is divided by the
    product of the row scales: a Fraction, or a GaussianRational when it
    has an imaginary part.  A float or complex entry is refused.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ContractViolation("determinant of a non-square matrix")
    int_rows, scales = _integer_rows(rows)
    return _quotient(_bareiss(int_rows)[1], prod(scales))


def validate_subset(subset, count=None):
    """Check that subset is a strictly increasing tuple of 1-based indices,
    optionally bounded by the number of available vectors."""
    ix = tuple(int(i) for i in subset)
    if any(i < 1 for i in ix):
        raise ContractViolation(f"indices are 1-based, got {ix}")
    if any(b <= a for a, b in zip(ix, ix[1:])):
        raise ContractViolation(f"subset must be strictly increasing, got {ix}")
    if count is not None and any(i > count for i in ix):
        raise ContractViolation(f"index out of range in {ix} (have {count})")
    return ix


class GenericityCertificate(NamedTuple):
    generic: bool
    failing_subset: tuple | None

    def __bool__(self):
        return self.generic


class Configuration:
    """An ordered tuple of nonzero exact vectors in a fixed dimension."""

    __slots__ = ("dim", "vectors")

    def __init__(self, dim, vectors):
        if isinstance(dim, bool):
            raise ContractViolation(f"dimension {dim!r} is not an integer")
        dim = int(dim)
        if dim < 1:
            raise ContractViolation("dimension must be >= 1")
        vecs = []
        for pos, v in enumerate(vectors, start=1):
            row = tuple(as_scalar(x) for x in v)
            if len(row) != dim:
                raise ContractViolation(
                    f"vector {pos} has length {len(row)}, expected {dim}")
            if all(x == 0 for x in row):
                raise DegeneracyError(f"vector {pos} is zero")
            vecs.append(row)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vectors", tuple(vecs))

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __len__(self):
        return len(self.vectors)

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.dim == other.dim and self.vectors == other.vectors

    def __hash__(self):
        return hash((self.dim, self.vectors))

    def __repr__(self):
        return f"Configuration(dim={self.dim}, {len(self.vectors)} vectors)"

    def vector(self, i):
        """1-based access to a stored vector."""
        if not 1 <= i <= len(self.vectors):
            raise ContractViolation(f"vector index {i} out of range")
        return self.vectors[i - 1]

    # -- brackets ---------------------------------------------------------

    def bracket(self, subset, order=None):
        """Determinant of the rows selected by a sorted 1-based subset.

        order, when given, must be a permutation of subset; the rows are
        then taken in that order, so the usual alternating sign appears.
        """
        ix = validate_subset(subset, count=len(self.vectors))
        if len(ix) != self.dim:
            raise ContractViolation(
                f"bracket needs {self.dim} indices, got {len(ix)}")
        rows_ix = ix
        if order is not None:
            rows_ix = tuple(int(i) for i in order)
            if tuple(sorted(rows_ix)) != ix:
                raise ContractViolation(
                    f"order {rows_ix} is not a permutation of {ix}")
        return exact_det([self.vectors[i - 1] for i in rows_ix])

    # -- genericity --------------------------------------------------------

    def is_generic(self):
        """Certificate that every subset of <= dim vectors is independent.

        Scans subset sizes in increasing order so the certificate names a
        smallest failing subset (a proportional pair is reported as a
        pair, not buried inside a larger degenerate set).
        """
        from itertools import combinations

        m = len(self.vectors)
        top = min(m, self.dim)
        # scaling a vector does not change any rank: scale once, to integers
        ints = _integer_rows(self.vectors)[0]
        for k in range(1, top + 1):
            for sub in combinations(range(1, m + 1), k):
                if _bareiss([list(ints[i - 1]) for i in sub])[0] < k:
                    return GenericityCertificate(False, sub)
        return GenericityCertificate(True, None)

    # -- projection --------------------------------------------------------

    def project(self, center):
        """Project along the vector with 1-based index `center`.

        The remaining vectors are mapped to dim-1 coordinates on the
        quotient, normalized so that for every sorted subset S of surviving
        indices the projected bracket equals the original bracket of the
        center-prepended tuple:

            projected.bracket(S') == self.bracket with rows (center, *S)

        where S' is S relabelled to the projected configuration.  The
        normalization completes the center to a basis at the coordinate of
        its first nonzero entry and rescales one quotient coordinate so the
        completed basis has determinant one.
        """
        if self.dim < 2:
            raise ContractViolation("projection needs dimension >= 2")
        if not 1 <= center <= len(self.vectors):
            raise ContractViolation(f"center index {center} out of range")
        c = self.vectors[center - 1]
        p = next(j for j in range(self.dim) if c[j] != 0)
        scale = c[p] if p % 2 == 0 else -c[p]
        out = []
        for i, v in enumerate(self.vectors, start=1):
            if i == center:
                continue
            lam = v[p] / c[p]
            w = [v[j] - lam * c[j] for j in range(self.dim)]
            coords = [w[j] for j in range(self.dim) if j != p]
            if all(x == 0 for x in coords):
                raise DegeneracyError(
                    f"vector {i} is proportional to the center {center}")
            coords[0] = coords[0] * scale
            out.append(coords)
        return Configuration(self.dim - 1, out)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "vectors": [[scalar_to_str(x) for x in v] for v in self.vectors],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            dim = data["dim"]
            vectors = data["vectors"]
        except (KeyError, TypeError) as exc:
            raise ContractViolation(f"bad configuration payload: {exc}") from exc
        return cls(dim, vectors)

    def to_floats(self):
        """The configuration as a list of rows of Python complex numbers."""
        return [[scalar_to_complex(x) for x in v] for v in self.vectors]


def _pair_det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _as_point(x):
    """Coerce a cross-ratio argument to a 2-vector of exact scalars. Affine
    scalars x become (x, 1)."""
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ContractViolation(
                f"cross-ratio points must be scalars or 2-vectors, got {x!r}")
        return (as_scalar(x[0]), as_scalar(x[1]))
    return (as_scalar(x), Fraction(1))


def cross_ratio(x1, x2, x3, x4):
    """Cross-ratio r(x1, x2, x3, x4) = (x3-x1)(x4-x2) / ((x3-x2)(x4-x1)).

    Arguments are affine exact scalars or projective 2-vectors (mixing is
    allowed; scalars are homogenized as (x, 1)).  In bracket terms this is
    D(x1,x3) D(x2,x4) / (D(x2,x3) D(x1,x4)), which agrees with the affine
    formula since the four sign flips cancel.  A vanishing denominator is a
    degeneracy error; a vanishing numerator simply gives 0 or an exact 1.
    """
    p1, p2, p3, p4 = (_as_point(x) for x in (x1, x2, x3, x4))
    num = _pair_det(p1, p3) * _pair_det(p2, p4)
    den = _pair_det(p2, p3) * _pair_det(p1, p4)
    if den == 0:
        raise DegeneracyError("cross-ratio denominator vanishes")
    return num / den


def random_generic(dim, count, seed, bound=10, gaussian=False,
                   max_tries=1000):
    """Deterministically sample a generic configuration with integer (or
    Gaussian integer) entries in [-bound, bound].

    The same (dim, count, seed, bound, gaussian) always returns the same
    configuration.  Raises BudgetError after max_tries rejections, which
    for sane bounds indicates the bound is too small for the requested
    count.
    """
    dim = int(dim)
    count = int(count)
    if count < dim:
        raise ContractViolation("need at least dim vectors")
    if bound < 1:
        raise ContractViolation("bound must be >= 1")
    rng = random.Random((seed, dim, count, bound, gaussian).__repr__())

    def entry():
        if gaussian:
            return GaussianRational(rng.randint(-bound, bound),
                                    rng.randint(-bound, bound))
        return Fraction(rng.randint(-bound, bound))

    for _ in range(max_tries):
        vecs = []
        for _ in range(count):
            v = [entry() for _ in range(dim)]
            while all(x == 0 for x in v):
                v = [entry() for _ in range(dim)]
            vecs.append(v)
        cfg = Configuration(dim, vecs)
        if cfg.is_generic():
            return cfg
    raise BudgetError(
        f"no generic configuration found in {max_tries} tries; "
        f"increase the coefficient bound (currently {bound})")
