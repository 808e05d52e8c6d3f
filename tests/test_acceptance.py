"""Acceptance checklist for the whole package.

Thirteen numbered criteria, one test each, run in order.  Every test
prints a single PASS or FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so the checklist
doubles as a regression gate.  Numeric tolerances are stated inline;
symbolic criteria demand exact zeros in rational arithmetic.

Criteria 1, 2 and 3 include a degree-4 leg of exact tensor algebra over
40320 terms: about 0.3 s, 3 s and 0.6 s on a 2-core machine with
Python 3.11.
"""

import cmath
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from grasspoly.aomoto import additivity_residue
from grasspoly.elements import (build_element, check_comparison,
                                check_integrability,
                                check_omission_relations,
                                check_scale_invariance,
                                check_steinberg_wedge, flip_first_term)
from grasspoly.iterint import (PathSpec, homotopy_test, monodromy_probe,
                               shuffle_test)
from grasspoly.polylogs import (bloch_wigner_five_term, epsilon_sign,
                                l2g_family_values, li_n, li_series,
                                rogers_five_term, rogers_l2,
                                rogers_l2_slope)

SAFE_BASE = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]]
SAFE_TARGET = [[1.1, 0.02], [0.03, 1.05], [0.95, 1.1], [2.1, 3.2]]


def conclude(number, label, ok):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def run_cli(*args, threads=None):
    env = dict(os.environ)
    env.pop("GRASSPOLY_THREADS", None)
    if threads is not None:
        env["GRASSPOLY_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "grasspoly.cli", *args],
        capture_output=True, text=True, env=env)


def test_criterion_01_comparison_constants():
    t0 = time.perf_counter()
    rep2 = check_comparison(2)
    t2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep3 = check_comparison(3)
    t3 = time.perf_counter() - t0
    ok = (rep2.passed and rep2.details["matched_constant"] == "4"
          and t2 < 5.0
          and rep3.passed and rep3.details["matched_constant"] == "-36"
          and t3 < 60.0)
    t0 = time.perf_counter()
    rep4 = check_comparison(4)
    t4 = time.perf_counter() - t0
    ok = (ok and rep4.passed
          and rep4.details["matched_constant"] == "576" and t4 < 600.0)
    stamp = f"{t2:.2f}s / {t3:.2f}s / {t4:.2f}s"
    conclude(1, "expansion of the window element matches the alternated "
                "pairing up to the degree constant (+4 at degree 2, -36 at "
                f"degree 3, +576 at degree 4; {stamp})", ok)


def test_criterion_02_omission_relations_vanish():
    degrees = [2, 3, 4]
    ok = True
    times = []
    for n in degrees:
        t0 = time.perf_counter()
        rep = check_omission_relations(n)
        dt = time.perf_counter() - t0
        times.append(dt)
        budget = 600.0 if n == 4 else 60.0
        ok = ok and rep.passed and dt < budget
        ok = ok and rep.details["plain_residue_terms"] == 0
        ok = ok and rep.details["projected_residue_terms"] == 0
    stamp = "/".join(f"{dt:.2f}s" for dt in times)
    conclude(2, "both label-omission relations cancel exactly at degrees "
                f"{degrees} ({stamp})", ok)


def test_criterion_03_scale_invariance():
    ok = True
    times = []
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        rep = check_scale_invariance(n)
        times.append(time.perf_counter() - t0)
        ok = (ok and rep.passed
              and rep.details["labels_checked"] == list(range(1, 2 * n + 1))
              and rep.details["failing_labels"] == [])
    ok = ok and times[-1] < 60.0
    stamp = "/".join(f"{dt:.2f}s" for dt in times)
    conclude(3, "rescaling any one of the 2n vectors leaves the element "
                f"fixed mod 2-torsion at degrees 2, 3 and 4 ({stamp})", ok)


def test_criterion_04_integrability_certificate():
    rep2 = check_integrability(2, num_points=20, seed=0)
    rep3 = check_integrability(3, num_points=20, seed=0)
    ok = (rep2.passed and rep2.details["positions"] == [1]
          and rep2.details["points"] == 20
          and rep3.passed and rep3.details["positions"] == [1, 2]
          and rep3.details["points"] == 20)
    conclude(4, "every adjacent wedge projection evaluates to exact "
                "rational zero at 20 seeded configurations (degree 2: "
                "position 1; degree 3: positions 1 and 2)", ok)


def test_criterion_05_cross_ratio_wedge_identity():
    rep = check_steinberg_wedge()
    bad = check_steinberg_wedge(half_coefficient=False)
    ok = (rep.passed and rep.details["symbolic_equal"]
          and rep.details["lhs_terms"] == rep.details["rhs_terms"]
          and not bad.passed)
    conclude(5, "(1 - r) wedge r equals half the alternation of "
                "D(x1,x2) wedge D(x1,x3) canonically, and not without "
                "the half", ok)


def test_criterion_06_coproduct_kills_additivity():
    ok = True
    for weight in (2, 3):
        for dual in (False, True):
            for side in ("left", "right"):
                residue = additivity_residue(weight, dual=dual, side=side)
                ok = ok and residue.is_zero()
    conclude(6, "the iterated coproduct maps the additivity and dual "
                "additivity sums to the exact zero tensor at weights "
                "2 and 3", ok)


def test_criterion_07_polylog_integral_vs_series():
    rng = random.Random(99)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            radius = rng.uniform(0.05, 0.8)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            z = radius * cmath.exp(1j * angle)
            worst = max(worst, abs(li_n(n, z).value - li_series(n, z)))
    half = abs(li_n(2, 0.5).value - li_series(2, 0.5))
    ok = worst < 1e-9 and half < 1e-10
    conclude(7, "the iterated-integral Li_n agrees with the series at 20 "
                "seeded points per weight 1..3 within 1e-9 "
                f"(worst {worst:.2e}) and at Li_2(1/2) within 1e-10", ok)


def test_criterion_08_bloch_wigner_five_term():
    t0 = time.perf_counter()
    rng = random.Random(5150)
    worst = 0.0
    done = 0
    while done < 100:
        pts = []
        while len(pts) < 5:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - w) > 0.2 for w in pts):
                pts.append(z)
        try:
            total = bloch_wigner_five_term(pts)
        except Exception:
            continue
        done += 1
        worst = max(worst, abs(total))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0
    conclude(8, "the Bloch-Wigner five-term sum vanishes below 1e-10 at "
                f"100 seeded complex 5-tuples (worst {worst:.2e}, "
                f"{dt:.2f}s)", ok)


def test_criterion_09_rogers_normalization():
    zeros_ok = all(abs(rogers_l2(x)) < 1e-12 for x in (-1.0, 0.5, 2.0))
    step = 1e-6
    slope_ok = True
    for x in (-0.7, 0.2, 0.4, 0.8, 1.7, 3.0):
        fd = (rogers_l2(x + step) - rogers_l2(x - step)) / (2 * step)
        slope_ok = slope_ok and abs(fd - rogers_l2_slope(x)) < 1e-6
    rng = random.Random(77)
    worst = 0.0
    done = 0
    while done < 50:
        pts = []
        while len(pts) < 5:
            c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if c not in pts:
                pts.append(c)
        try:
            rep = rogers_five_term(tuple(pts))
        except Exception:
            continue
        done += 1
        worst = max(worst, rep["difference"])
        if rep["epsilon"] not in ("1/2", "-1/2"):
            worst = math.inf
    ok = zeros_ok and slope_ok and worst < 1e-9
    conclude(9, "Rogers L2 vanishes at -1, 1/2, 2 to 1e-12, satisfies its "
                "differential equation to 1e-6 by central differences, and "
                "sums to -epsilon pi^2/6 over 50 seeded real five-term "
                f"configurations (worst {worst:.2e})", ok)


def test_criterion_10_homotopy_invariance_and_necessity():
    path = PathSpec.line(SAFE_BASE, SAFE_TARGET)
    good = homotopy_test(build_element(2).tensor, path, deformations=5,
                         amplitude=0.02, seed=5)
    word_a = ((1, ("D", (1, 2))),)
    word_b = ((1, ("D", (3, 4))),)
    bad = homotopy_test((word_a, word_b), path, deformations=5,
                        amplitude=0.02, seed=5)
    ok = good["spread"] < 1e-7 and bad["spread"] > 1e-3
    conclude(10, "the degree-2 iterated integral is homotopy invariant "
                 f"(spread {good['spread']:.2e} over 5 deformations) while "
                 "a non-integrable word is not "
                 f"(spread {bad['spread']:.2e})", ok)


def test_criterion_11_five_term_family_is_constant():
    base = (Fraction(0), Fraction(1), Fraction(3), Fraction(7, 2),
            Fraction(5))
    velocity = (Fraction(1, 3), Fraction(-1, 4), Fraction(0),
                Fraction(2, 5), Fraction(-1, 3))
    values = l2g_family_values(base, velocity, samples=11)
    spread = max(values) - min(values)
    predicted = -float(epsilon_sign(base)) * math.pi ** 2 / 6
    anchored = abs(values[0] - predicted) < 1e-9
    ok = spread < 1e-7 and anchored
    conclude(11, "the alternating five-term sum of the degree-2 "
                 "Grassmannian function is constant along a seeded "
                 f"crossing-free family (spread {spread:.2e})", ok)


def test_criterion_12_shuffle_and_monodromy():
    rng = random.Random(12)
    worst = 0.0
    for _ in range(10):
        start = [[rng.uniform(0.5, 1.5)], [rng.uniform(2.0, 3.0)]]
        end = [[start[0][0] + rng.uniform(0.5, 2.0)],
               [start[1][0] + rng.uniform(0.5, 2.0)]]
        path = PathSpec.line(start, end)
        pool = [((1, ("D", (1,))),), ((1, ("D", (2,))),),
                ((1, ("D", (1,))), (-1, ("D", (2,))))]
        word_a = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        word_b = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        rep = shuffle_test(word_a, word_b, path)
        worst = max(worst, rep["difference"])
    loop = PathSpec.polygon([[[1.0]], [[1j]], [[-1.0]], [[-1j]]])
    winding = monodromy_probe([((1, ("D", (1,))),)], loop)
    loop_err = abs(winding - 2j * math.pi)
    ok = worst < 1e-8 and loop_err < 1e-10
    conclude(12, "the shuffle identity holds to 1e-8 on 10 seeded "
                 f"word/path pairs (worst {worst:.2e}) and the d log "
                 f"unit loop returns 2 pi i (error {loop_err:.2e})", ok)


def test_criterion_13_byte_identical_determinism():
    outputs = {}
    for threads in (1, 2, 4):
        verify = run_cli("verify", "--suite", "all", "--n", "2",
                         "--seed", "0", threads=threads)
        element = run_cli("element", "--n", "2", threads=threads)
        assert verify.returncode == 0 and element.returncode == 0
        outputs[threads] = (verify.stdout, element.stdout)
    ok = (outputs[1] == outputs[2] == outputs[4]
          and json.loads(outputs[1][0])["status"] == "pass")
    conclude(13, "verify-all and element emit byte-identical JSON under "
                 "1, 2, and 4 worker threads with equal seeds", ok)
