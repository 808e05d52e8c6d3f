"""Seeded inputs for the benchmark workloads.

    python3 perfbench/gen.py --workload NAME --seed N --out FILE

writes the workload's inputs as JSON.  Everything is drawn from the
workload seed with the benchmark's own samplers, genericity test and
pole-distance test, so the inputs do not change when the program's own
samplers (`random_generic`, `PathSpec.deform`) change; the program only
ever receives the generated numbers.

Configurations are integer matrices whose rows are the vectors.  A path is
a list of segments, each a list of polynomial coefficient matrices
(constant term first), i.e. the `(degree+1, count, dim)` layout that
`PathSpec` takes; complex entries are stored as [re, im] pairs.
"""

import argparse
import cmath
import json
import math
import random
from itertools import combinations

import numpy as np

import ref

# The Tate paths are detours into complex configurations whose bracket
# zeros (in the path parameter s) lie between TATE_BAND[0] and
# TATE_BAND[1] from the real interval [0, 1]: close enough that the
# adaptive quadrature has to work, far enough that tol 1e-12 converges.
# Fixing the band keeps the cost of one path within a narrow range, so a
# pass of many paths costs about the same for every seed.
TATE_BAND = (0.02, 0.08)
TATE_PAIRS = {3: 16, 2: 4}
DETOUR_HEIGHT = 3.0
DEFORM_AMPLITUDE = 0.3


def rng_for(seed, *tags):
    return random.Random(repr(("perfbench", int(seed)) + tags))


def det(rows):
    """Determinant by cofactor expansion; exact on ints and Fractions."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def is_generic(cfg, dim):
    """Every dim-subset of the vectors is a basis (exact test)."""
    return all(det([list(cfg[i]) for i in sub]) != 0
               for sub in combinations(range(len(cfg)), dim))


def generic_config(rng, dim, count, bound):
    while True:
        cfg = [[rng.randint(-bound, bound) for _ in range(dim)]
               for _ in range(count)]
        if is_generic(cfg, dim):
            return cfg


# ---------------------------------------------------------------------------
# paths and their distance from bracket zeros


def line(a, b):
    """Straight segment from matrix a to matrix b."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a, np.asarray(b, dtype=complex) - a])


def bracket_polys(seg, dim):
    """Every dim x dim bracket along a segment as a polynomial in s
    (numpy.polynomial coefficient order, constant term first)."""
    deg = seg.shape[0] - 1
    # A bracket along the segment is a polynomial of degree deg*dim, so
    # interpolating it at deg*dim+1 Chebyshev points recovers it.
    k = deg * dim + 1
    s = np.cos(np.pi * (np.arange(k) + 0.5) / k) * 0.5 + 0.5
    pts = np.einsum("dcx,du->ucx", seg,
                    s[None, :] ** np.arange(deg + 1)[:, None])
    return [np.polynomial.polynomial.polyfit(
                s, np.linalg.det(pts[:, list(sub), :]), k - 1)
            for sub in combinations(range(seg.shape[1]), dim)]


def root_distance(path, dim):
    """Smallest distance, in the segment parameter, from any zero of any
    bracket to the real interval [0, 1] that the segment runs over."""
    low = np.inf
    for seg in path:
        for poly in bracket_polys(seg, dim):
            scale = np.abs(poly).max()
            poly = poly.copy()
            poly[np.abs(poly) < 1e-12 * scale] = 0
            poly = np.trim_zeros(poly, "b")
            for r in np.polynomial.polynomial.polyroots(poly):
                low = min(low, abs(r - min(max(r.real, 0.0), 1.0)))
    return float(low)


def detour(a, b, rng, height):
    """Two straight segments a -> w -> b through w = (a+b)/2 + i c, with a
    seeded real matrix c of entries in [-height, height]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.array([[rng.uniform(-height, height) for _ in row] for row in a])
    w = (a + b) / 2 + 1j * c
    return [line(a, w), line(w, b)]


def bumps(path, rng, amplitude):
    """Seeded complex matrices (A, B) per segment for `deform`."""
    count, dim = path[0].shape[1:]

    def one():
        return amplitude * np.array(
            [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(dim)] for _ in range(count)])

    return [(one(), one()) for _ in path]


def deform(path, draws, t=1.0):
    """Adds t s(1-s)(A + B s) to every segment: the ends of every segment
    stay fixed, so the result is homotopic to the path with the same ends."""
    out = []
    for seg, (a, b) in zip(path, draws):
        new = np.zeros((max(seg.shape[0], 4),) + seg.shape[1:], dtype=complex)
        new[:seg.shape[0]] += seg
        new[1] += t * a
        new[2] += t * (b - a)
        new[3] -= t * b
        out.append(new)
    return out


def tate_pair(seed, tag, n, band=TATE_BAND, steps=4):
    """A seeded complex detour between two generic integer configurations
    of 2n vectors in dimension n, whose bracket zeros lie within `band`
    of the parameter interval, and an endpoint-fixing deformation of it
    reached by a straight homotopy that keeps every zero at least band[0]
    away (checked at `steps` stages).  No zero crosses the path during the
    homotopy, so both paths have the same Tate integral."""
    attempt = 0
    while True:
        rng = rng_for(seed, "tate", n, tag, attempt)
        attempt += 1
        a = generic_config(rng, n, 2 * n, 4)
        b = generic_config(rng, n, 2 * n, 4)
        path = detour(a, b, rng, DETOUR_HEIGHT)
        if not band[0] <= root_distance(path, n) <= band[1]:
            continue
        draws = bumps(path, rng, DEFORM_AMPLITUDE)
        if all(root_distance(deform(path, draws, k / steps), n) >= band[0]
               for k in range(1, steps + 1)):
            return path, deform(path, draws)


def path_json(path):
    """Raw coefficients as nested [re, im] lists."""
    return [[[[[float(z.real), float(z.imag)] for z in row] for row in level]
             for level in seg] for seg in path]


# ---------------------------------------------------------------------------
# inputs of each workload


def safe_real_segment(rng, dim, count):
    """A short real segment between integer configurations along which no
    bracket comes within 0.25 (in s) of a zero: every bracket keeps one
    sign, so its logarithm is real along the segment."""
    while True:
        a = generic_config(rng, dim, count, 5)
        b = [[x + rng.randint(-2, 2) for x in row] for row in a]
        if root_distance([line(a, b)], dim) >= 0.25:
            return a, b


def cli_inputs(seed):
    rng = rng_for(seed, "cli")
    a, b = safe_real_segment(rng, 2, 4)
    return {
        "segment": [a, b],
        "word": [rng.choice(list(combinations(range(1, 5), 2)))
                 for _ in range(2)],
        "li2_grid": [rng.uniform(-0.95, -0.5), rng.uniform(0.3, 0.95), 9],
        "bw_grid": [[rng.uniform(-2, -0.5), rng.uniform(0.5, 2), 5],
                    [rng.uniform(-2, -0.5), rng.uniform(0.5, 2), 4]],
        "l2g_grid": [rng.uniform(0.1, 0.4), rng.uniform(0.6, 0.9), 6],
        "verify_seed": int(seed),
    }


def exact_inputs(seed):
    # 40 rational and 10 Gaussian points make the certificate half (forms,
    # configurations) about as long as the algebra half (tensors, aomoto,
    # elements) of a pass.
    return {"integrability_seed": int(seed), "rational_points": 40,
            "gaussian_points": 10, "steinberg_points": 10}


def tate_inputs(seed):
    out = []
    for n, count in sorted(TATE_PAIRS.items(), reverse=True):
        for tag in range(count):
            path, deformed = tate_pair(seed, tag, n)
            out.append({"n": n, "path": path_json(path),
                        "deformed": path_json(deformed)})
    return {"pairs": out}


def li_points(rng, rings=10, sectors=15):
    """Complex points with 0.2 <= |z| <= 3, inside and outside the unit
    disc, kept 0.15 away from the branch cut [1, oo): one point drawn
    uniformly (by area) in each cell of a grid of rings and sectors, so
    every seed covers the annulus alike and the cost of a pass, which
    grows with |z|, varies little from seed to seed."""
    out = []
    for i in range(rings):
        lo, hi = (0.2 + 2.8 * k / rings for k in (i, i + 1))
        for j in range(sectors):
            while True:
                r = math.sqrt(rng.uniform(lo * lo, hi * hi))
                z = cmath.rect(r, 2 * math.pi * (j + rng.random()) / sectors)
                if not (z.real > 0.85 and abs(z.imag) < 0.15):
                    break
            out.append([z.real, z.imag])
    return out


def _seg_dist(p, q, c):
    d = q - p
    t = max(0.0, min(1.0, ((c - p) * d.conjugate()).real / abs(d) ** 2))
    return abs(p + t * d - c)


def a1_cases(rng, count):
    """(l1, l2, m1, m2, via): distinct integers l1, l2, m1, m2 and one
    complex waypoint, with every straight piece 0.5 away from l1 and l2."""
    out = []
    while len(out) < count:
        l1, l2, m1, m2 = rng.sample(range(-6, 7), 4)
        via = complex(rng.uniform(-6, 6),
                      rng.choice((-1, 1)) * rng.uniform(1, 4))
        pts = [complex(m1), via, complex(m2)]
        if all(_seg_dist(p, q, pole) >= 0.5
               for p, q in zip(pts, pts[1:]) for pole in (l1, l2)):
            out.append([l1, l2, m1, m2, [via.real, via.imag]])
    return out


def shuffle_cases(rng, count):
    """A straight complex segment of three vectors in dimension 2 whose
    bracket zeros stay 0.1 (in s) from the segment, and two words of one
    or two d log letters on its brackets."""
    brackets = [[1, 2], [1, 3], [2, 3]]
    out = []
    while len(out) < count:
        a, b = ([[complex(rng.randint(-4, 4), rng.randint(-4, 4))
                  for _ in range(2)] for _ in range(3)] for _ in range(2))
        seg = line(a, b)
        if root_distance([seg], 2) < 0.1:
            continue
        out.append({"path": path_json([seg]),
                    "a": [rng.choice(brackets)
                          for _ in range(rng.randint(1, 2))],
                    "b": [rng.choice(brackets)
                          for _ in range(rng.randint(1, 2))]})
    return out


def loops(rng, count):
    """(center re, center im, radius, vertices, orientation) of polygons
    around one point; the vertex counts 3..7 come in equal shares."""
    return [[rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 2.0),
             3 + k % 5, rng.choice((1, -1))] for k in range(count)]


def five_tuples(rng, count, real):
    """Distinct integers, or distinct Gaussian integers in [-9, 9]^2."""
    out = []
    while len(out) < count:
        if real:
            out.append(rng.sample(range(-20, 21), 5))
            continue
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(5)}
        if len(pts) == 5:
            out.append(sorted(pts))
    return out


POLYLOG_SIZES = {"a1": 150, "shuffle": 60, "loop": 150,
                 "bw": 250, "rogers": 250}


def polylog_inputs(seed):
    rng = rng_for(seed, "polylog")
    sizes = POLYLOG_SIZES
    li = li_points(rng)
    # mpmath references, computed once per run instead of once per pass.
    li_ref = [[[w.real, w.imag] for w in
               (ref.li_ref(n, complex(*z)) for n in (1, 2, 3))] for z in li]
    return {
        "li": li,
        "li_ref": li_ref,
        "a1": a1_cases(rng, sizes["a1"]),
        "shuffle": shuffle_cases(rng, sizes["shuffle"]),
        "loop": loops(rng, sizes["loop"]),
        "bw": five_tuples(rng, sizes["bw"], real=False),
        "rogers": five_tuples(rng, sizes["rogers"], real=True),
    }


GENERATORS = {
    "cli_cold": cli_inputs,
    "exact_identities": exact_inputs,
    "tate_integrals": tate_inputs,
    "polylog_values": polylog_inputs,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    data = GENERATORS[args.workload](args.seed)
    data["seed"] = args.seed
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main()
