"""Exact configuration layer: scalars, determinants, brackets, genericity,
projection, and cross-ratios.

Oracles used here:
- Python complex arithmetic for GaussianRational operations.
- a Leibniz-formula determinant (independent of the library's Gaussian
  elimination) for exact_det.
- the affine cross-ratio formula for the projective one.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from grasspoly.configurations import (Configuration, GaussianRational,
                                      as_scalar, cross_ratio, exact_det,
                                      parse_scalar,
                                      random_generic, scalar_to_complex,
                                      scalar_to_str, validate_subset)
from grasspoly.errors import (BudgetError, ContractViolation,
                              DegeneracyError)


def leibniz_det(rows):
    """Independent determinant oracle: explicit permutation sum."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        term = Fraction(1) if inv % 2 == 0 else Fraction(-1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def rand_scalar(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_gauss(rng, bound=9):
    return GaussianRational(rand_scalar(rng, bound), rand_scalar(rng, bound))


# ---------------------------------------------------------------------------
# GaussianRational


def test_gaussian_rational_matches_complex_arithmetic():
    rng = random.Random(101)
    for _ in range(200):
        a = rand_gauss(rng)
        b = rand_gauss(rng)
        for op in ("add", "sub", "mul"):
            exact = getattr(a, f"__{op}__")(b)
            approx = getattr(complex(a), f"__{op}__")(complex(b))
            assert abs(complex(exact) - approx) < 1e-9
        if bool(b):
            q = a / b
            assert abs(complex(q) - complex(a) / complex(b)) < 1e-9
            assert q * b == a


def test_gaussian_rational_collapses_to_fraction():
    z = GaussianRational(3, 2) - GaussianRational(1, 1)
    assert isinstance(z, GaussianRational)
    w = GaussianRational(3, 2) - GaussianRational(0, 2)
    assert isinstance(w, Fraction) and w == 3
    assert GaussianRational(Fraction(5, 7), 0) == Fraction(5, 7)
    assert hash(GaussianRational(Fraction(5, 7), 0)) == hash(Fraction(5, 7))


def test_gaussian_rational_misc():
    z = GaussianRational(2, -3)
    assert z.conjugate() == GaussianRational(2, 3)
    assert -z == GaussianRational(-2, 3)
    assert 1 - z == GaussianRational(-1, 3)
    assert (6 / GaussianRational(0, 2)) == GaussianRational(0, -3)
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)
    with pytest.raises(AttributeError):
        z.re = 0


def test_scalar_parse_and_str_round_trip():
    rng = random.Random(102)
    samples = [Fraction(0), Fraction(-7, 3), GaussianRational(1, -2),
               GaussianRational(Fraction(-2, 5), Fraction(7, 11))]
    samples += [rand_scalar(rng) for _ in range(20)]
    samples += [rand_gauss(rng) for _ in range(20)]
    for x in samples:
        x = as_scalar(x)
        assert as_scalar(parse_scalar(scalar_to_str(x))) == x
    assert parse_scalar("3i") == GaussianRational(0, 3)
    assert parse_scalar("-2/3i") == GaussianRational(0, Fraction(-2, 3))
    assert parse_scalar("1/2-1/3i") == GaussianRational(Fraction(1, 2),
                                                        Fraction(-1, 3))
    with pytest.raises(ContractViolation):
        parse_scalar("zzz")
    with pytest.raises(ContractViolation):
        as_scalar(0.5)


def test_scalar_to_complex():
    assert scalar_to_complex(Fraction(1, 4)) == 0.25 + 0j
    assert scalar_to_complex(GaussianRational(1, -2)) == 1 - 2j


# ---------------------------------------------------------------------------
# determinants


def test_exact_det_matches_leibniz_oracle():
    rng = random.Random(103)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            rows = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            assert exact_det(rows) == leibniz_det(rows)


def test_exact_det_gaussian_entries():
    rng = random.Random(104)
    for _ in range(25):
        rows = [[rand_gauss(rng, 5) for _ in range(3)] for _ in range(3)]
        assert exact_det(rows) == leibniz_det(rows)


def test_exact_det_contracts_and_edge_cases():
    assert exact_det([]) == 1
    assert exact_det([[Fraction(7)]]) == 7
    sing = [[1, 2], [2, 4]]
    assert exact_det([[Fraction(x) for x in r] for r in sing]) == 0
    with pytest.raises(ContractViolation):
        exact_det([[1, 2], [3]])
    # inexact entries are refused; they were taken at their binary values
    # and the determinant came back as a Fraction
    for bad in ([[1.5, 2], [3, 4]], [[1, 2], [3, 4 + 1j]]):
        with pytest.raises(ContractViolation, match="not a matrix entry"):
            exact_det(bad)


def test_exact_det_singular_matrices():
    rng = random.Random(108)
    for entry in (rand_scalar, rand_gauss):
        for n in (2, 3, 4):
            for _ in range(10):
                rows = [[entry(rng) for _ in range(n)] for _ in range(n - 1)]
                a, b = entry(rng), entry(rng)
                rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
                rng.shuffle(rows)
                assert leibniz_det(rows) == 0
                assert exact_det(rows) == 0
        # a zero first column offers no pivot at all
        rows = [[Fraction(0)] + [entry(rng) for _ in range(2)]
                for _ in range(3)]
        assert exact_det(rows) == leibniz_det(rows) == 0


def test_exact_det_row_swap_sign():
    rng = random.Random(105)
    for _ in range(20):
        rows = [[rand_scalar(rng) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        assert exact_det(swapped) == -exact_det(rows)


def test_validate_subset():
    assert validate_subset((1, 3, 5)) == (1, 3, 5)
    with pytest.raises(ContractViolation):
        validate_subset((0, 1))
    with pytest.raises(ContractViolation):
        validate_subset((2, 2))
    with pytest.raises(ContractViolation):
        validate_subset((3, 1))
    with pytest.raises(ContractViolation):
        validate_subset((1, 9), count=4)


# ---------------------------------------------------------------------------
# Configuration


def test_configuration_contracts():
    with pytest.raises(ContractViolation):
        Configuration(0, [])
    with pytest.raises(ContractViolation):
        Configuration(2, [[1, 2, 3]])
    with pytest.raises(DegeneracyError):
        Configuration(2, [[0, 0]])
    cfg = Configuration(2, [[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        cfg.dim = 3
    with pytest.raises(ContractViolation):
        cfg.vector(3)
    assert cfg.vector(1) == (Fraction(1), Fraction(0))


def test_bracket_and_order_sign():
    cfg = random_generic(3, 6, seed=1)
    base = cfg.bracket((1, 3, 5))
    assert cfg.bracket((1, 3, 5), order=(3, 1, 5)) == -base
    assert cfg.bracket((1, 3, 5), order=(5, 1, 3)) == base
    with pytest.raises(ContractViolation):
        cfg.bracket((1, 3, 5), order=(1, 3, 6))
    with pytest.raises(ContractViolation):
        cfg.bracket((1, 2))


def test_bracket_matches_leibniz_on_random_configs():
    rng = random.Random(107)
    for _ in range(10):
        cfg = random_generic(2, 5, seed=rng.randint(0, 10 ** 6))
        for i in range(1, 5):
            rows = [list(cfg.vector(i)), list(cfg.vector(i + 1))]
            assert cfg.bracket((i, i + 1)) == leibniz_det(rows)


def test_genericity_certificate_names_smallest_failure():
    cfg = Configuration(3, [[1, 0, 0], [0, 1, 0], [2, 0, 0], [0, 0, 1]])
    cert = cfg.is_generic()
    assert not cert
    assert cert.failing_subset == (1, 3)
    good = random_generic(3, 6, seed=2)
    assert good.is_generic()
    assert good.is_generic().failing_subset is None


def test_exact_rank():
    """Exact rank of rank-deficient rational triples, as the genericity
    test computes it: no two of v1, v2, v1 + lam v2 are proportional, so
    the failing subset is the dependent triple, found at rank 2 of 3."""
    rng = random.Random(106)
    for _ in range(20):
        v1 = [rand_scalar(rng) for _ in range(4)]
        v2 = [rand_scalar(rng) for _ in range(4)]
        lam = rand_scalar(rng) or Fraction(1, 2)
        cfg = Configuration(4, [v1, v2, [a + lam * b
                                         for a, b in zip(v1, v2)]])
        assert cfg.is_generic().failing_subset == (1, 2, 3)


def test_projection_bracket_identity():
    """The defining invariant: projected brackets equal center-prepended
    originals, exactly and with sign."""
    from itertools import combinations

    rng = random.Random(108)
    for dim in (2, 3, 4):
        for trial in range(6):
            cfg = random_generic(dim, dim + 3,
                                 seed=repr(("proj", dim, trial)))
            for center in (1, dim + 3):
                proj = cfg.project(center)
                assert proj.dim == dim - 1
                survivors = [i for i in range(1, dim + 4) if i != center]
                for sub in combinations(range(len(survivors)), dim - 1):
                    new_ix = tuple(j + 1 for j in sub)
                    old = tuple(survivors[j] for j in sub)
                    order = (center,) + old
                    rows = [cfg.vector(i) for i in order]
                    assert proj.bracket(new_ix) == exact_det(rows)


def test_projection_degeneracy_and_contracts():
    cfg = Configuration(2, [[1, 1], [2, 2], [0, 1]])
    with pytest.raises(DegeneracyError):
        cfg.project(1)
    with pytest.raises(ContractViolation):
        cfg.project(9)
    line = Configuration(1, [[1], [2]])
    with pytest.raises(ContractViolation):
        line.project(1)


def test_configuration_json_round_trip():
    rng = random.Random(109)
    for trial in range(5):
        cfg = random_generic(2, 4, seed=trial, gaussian=(trial % 2 == 0))
        again = Configuration.from_json_dict(cfg.to_json_dict())
        assert again == cfg
    with pytest.raises(ContractViolation):
        Configuration.from_json_dict({"dim": 2})


def test_to_floats():
    cfg = Configuration(2, [["1/2", "3"], ["1+2i", "1"]])
    rows = cfg.to_floats()
    assert rows[0] == [0.5 + 0j, 3 + 0j]
    assert rows[1] == [1 + 2j, 1 + 0j]


# ---------------------------------------------------------------------------
# cross-ratio


def affine_cross_ratio(x1, x2, x3, x4):
    return ((x3 - x1) * (x4 - x2)) / ((x3 - x2) * (x4 - x1))


def test_cross_ratio_matches_affine_oracle():
    rng = random.Random(110)
    done = 0
    while done < 50:
        xs = [rand_scalar(rng) for _ in range(4)]
        if len(set(xs)) < 4:
            continue
        assert cross_ratio(*xs) == affine_cross_ratio(*xs)
        done += 1


def test_cross_ratio_projective_invariance():
    """r is invariant under exact fractional-linear maps of the line."""
    rng = random.Random(111)
    done = 0
    while done < 30:
        xs = [rand_scalar(rng) for _ in range(4)]
        if len(set(xs)) < 4:
            continue
        a, b, c, d = (rand_scalar(rng) for _ in range(4))
        if a * d - b * c == 0:
            continue
        moved = [(a * x + b, c * x + d) for x in xs]
        if any(p == (0, 0) for p in moved):
            continue
        try:
            r2 = cross_ratio(*moved)
        except DegeneracyError:
            continue
        assert r2 == cross_ratio(*xs)
        done += 1


def test_cross_ratio_swap_identities():
    rng = random.Random(112)
    done = 0
    while done < 30:
        xs = [rand_scalar(rng) for _ in range(4)]
        if len(set(xs)) < 4:
            continue
        r = cross_ratio(*xs)
        if r == 0:
            continue
        assert cross_ratio(xs[1], xs[0], xs[2], xs[3]) == 1 / r
        assert cross_ratio(xs[0], xs[1], xs[3], xs[2]) == 1 / r
        done += 1


def test_cross_ratio_mixed_and_degenerate_inputs():
    assert cross_ratio(0, 1, (2, 1), 3) == cross_ratio(0, 1, 2, 3)
    infinity = (1, 0)
    assert cross_ratio(0, 1, 2, infinity) == Fraction(2, 1)
    with pytest.raises(DegeneracyError):
        cross_ratio(0, 1, 1, 2)
    with pytest.raises(ContractViolation):
        cross_ratio(0, 1, (1, 2, 3), 2)


def test_cross_ratio_gaussian_points():
    i = GaussianRational(0, 1)
    r = cross_ratio(i, 0, 1, -i)
    assert r == affine_cross_ratio(i, as_scalar(0), as_scalar(1), -i)


# ---------------------------------------------------------------------------
# random_generic


def test_random_generic_deterministic_and_generic():
    for seed in range(5):
        a = random_generic(3, 6, seed=seed)
        b = random_generic(3, 6, seed=seed)
        assert a == b
        assert a.is_generic()
    assert random_generic(3, 6, seed=0) != random_generic(3, 6, seed=1)


def test_random_generic_gaussian_mode():
    cfg = random_generic(2, 4, seed=5, gaussian=True)
    assert cfg.is_generic()
    kinds = {type(x) for v in cfg.vectors for x in v}
    assert GaussianRational in kinds


def test_random_generic_contracts():
    with pytest.raises(ContractViolation):
        random_generic(3, 2, seed=0)
    with pytest.raises(ContractViolation):
        random_generic(2, 4, seed=0, bound=0)
    with pytest.raises(BudgetError):
        random_generic(2, 40, seed=0, bound=1, max_tries=3)
