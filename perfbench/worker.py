"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --inputs FILE --spawned T
                                [--setup-only] [--trace-out FILE]

Set-up is everything from the process start (monotonic time T, taken by
the caller just before spawning) to the first timed operation: interpreter
start, importing the library and building the workload's operations from
the generated inputs.  The pass then runs every operation once, timing
each, records the peak resident memory, and only then checks every result
against ref.py.  The last line of output is one JSON object.

With --trace-out the library's layers are wrapped (spans.py) after set-up,
the spans are written to that file, and per-layer metrics are added.
"""

import argparse
import cmath
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ref  # noqa: E402

TOL = 1e-12
FAULT_B = os.path.join(HERE, "inputs", "fault_b.json")


class Op:
    """A timed call; `check(value)` lists problems with its result."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def complex_rows(raw):
    return [[[complex(re, im) for re, im in row] for row in level]
            for level in raw]


def to_path(gp, raw):
    return gp.PathSpec([complex_rows(seg) for seg in raw])


def zero_report(report):
    return ref.check_zero_report(report.to_json_dict())


def exact_ops(gp, inp):
    kept = {}

    def keep(key, fn):
        def run():
            kept[key] = fn()
            return kept[key]
        return run

    seed = inp["integrability_seed"]
    c4 = ref.comparison_constant(4)

    def compare_4():
        """The degree-4 comparison, as check_comparison does it at n <= 3:
        expand the pairing element and compare with c4 x the element."""
        expansion = gp.expand_to_tensor(kept["pair"], 4)
        return expansion, expansion == c4 * kept["e4"].tensor

    ops = [
        Op("check_comparison_3", lambda: gp.check_comparison(3),
           lambda v: ref.check_comparison_report(v.to_json_dict(), 3)),
        Op("omission_relations_3", lambda: gp.check_omission_relations(3),
           zero_report),
        Op("scale_invariance_3", lambda: gp.check_scale_invariance(3),
           zero_report),
        Op("integrability_3_rational",
           lambda: gp.check_integrability(
               3, num_points=inp["rational_points"], seed=seed),
           zero_report),
        Op("integrability_3_gaussian",
           lambda: gp.check_integrability(
               3, num_points=inp["gaussian_points"], seed=seed,
               gaussian=True),
           zero_report),
    ]
    for weight in (2, 3):
        for dual in (False, True):
            for side in ("left", "right"):
                kind = "dual" if dual else "plain"
                ops.append(Op(
                    f"additivity_{weight}_{kind}_{side}",
                    lambda w=weight, d=dual, s=side:
                        gp.additivity_residue(w, dual=d, side=s),
                    lambda v: [] if not v.terms else
                        [f"additivity residue has {len(v.terms)} terms"]))
    ops.append(Op("steinberg_wedge",
                  lambda: gp.check_steinberg_wedge(
                      num_points=inp["steinberg_points"], seed=seed),
                  zero_report))
    # The degree-4 stores come last: kept alive to the end of the pass, they
    # would make every later garbage collection, and so the timing of the
    # small operations above, depend on where a collection happens to fall.
    ops += [
        Op("build_element_4", keep("e4", lambda: gp.build_element(4)),
           lambda v: ref.check_tensor_terms(v.tensor.terms, 4)),
        Op("pairing_element_labels_4",
           keep("pair", lambda: gp.pairing_element_labels(4)),
           lambda v: [] if v.term_count else ["empty pairing element"]),
        Op("comparison_4", compare_4,
           lambda v: ref.check_tensor_terms(v[0].terms, 4, scale=c4)
           + ([] if v[1] is True else [f"expansion != {c4} x element"])),
    ]
    return ops


def tate_ops(gp, inp):
    with open(FAULT_B, encoding="utf-8") as fh:
        fault = json.load(fh)
    pairs = [(p["n"], p["path"], p["deformed"], TOL, None)
             for p in inp["pairs"]]
    pairs.append((3, fault["path"], fault["deformed"], fault["tol"],
                  fault["budget"]))
    values = {}
    ops = []
    for k, (n, path, deformed, tol, budget) in enumerate(pairs):
        name = f"tate_{n}_{k}" if budget is None else "tate_3_fault_b"
        p, q = to_path(gp, path), to_path(gp, deformed)
        kwargs = {} if budget is None else {"budget": budget}

        def run_path(n=n, p=p, name=name):
            values[name] = gp.grassmannian_tate(n, p, tol=TOL).value
            return values[name]

        def run_deformed(n=n, q=q, tol=tol, kwargs=kwargs):
            return gp.grassmannian_tate(n, q, tol=tol, **kwargs).value

        def agree(v, name=name):
            base = values.get(name)
            if base is None or abs(v - base) <= 1e-9:
                return []
            return [f"{name}: deformed path gives {v!r}, path {base!r}"]

        ops.append(Op(name, run_path, lambda v: []))
        ops.append(Op(name + "_deformed", run_deformed, agree))
    return ops


def polylog_ops(gp, inp):
    polylogs = sys.modules["grasspoly.polylogs"]
    ops = []
    for (re_, im), expected in zip(inp["li"], inp["li_ref"]):
        z = complex(re_, im)
        for n, want in zip((1, 2, 3), expected):
            ops.append(Op(f"li_{n}", lambda n=n, z=z: gp.li_n(n, z).value,
                          lambda v, n=n, z=z, want=complex(*want):
                              ref.check_value(f"li_{n}({z})", v, want,
                                              1e-10)))
    for l1, l2, m1, m2, (vre, vim) in inp["a1"]:
        via = complex(vre, vim)
        pts = [complex(m1), via, complex(m2)]
        ops.append(Op("aomoto_a1",
                      lambda a=(l1, l2, m1, m2), via=via:
                          polylogs.aomoto_a1(*a, via=[via]).value,
                      lambda v, l1=l1, l2=l2, pts=pts: ref.check_value(
                          f"aomoto_a1 {l1},{l2},{pts}", v,
                          ref.a1_ref(l1, l2, pts), 1e-10)))
    for case in inp["shuffle"]:
        path = to_path(gp, case["path"])
        wa = [("D", tuple(b)) for b in case["a"]]
        wb = [("D", tuple(b)) for b in case["b"]]
        ops.append(Op("shuffle_test",
                      lambda wa=wa, wb=wb, path=path:
                          gp.shuffle_test(wa, wb, path),
                      lambda v, wa=wa, wb=wb: [] if v["difference"] <= 1e-8
                          else [f"shuffle {wa} {wb}: {v['difference']}"]))
    for cre, cim, radius, count, turn in inp["loop"]:
        c = complex(cre, cim)
        verts = [c + radius * cmath.exp(turn * 2j * math.pi * k / count)
                 for k in range(count)]
        verts.append(verts[0])
        loop = gp.PathSpec([[[[a, 1], [c, 1]], [[b - a, 0], [0, 0]]]
                            for a, b in zip(verts, verts[1:])])
        ops.append(Op("monodromy_probe",
                      lambda loop=loop: gp.monodromy_probe(
                          [("D", (1, 2))], loop),
                      lambda v, turn=turn: ref.check_value(
                          "unit loop", v, turn * 2j * math.pi, 1e-10)))
    for pts in inp["bw"]:
        zs = [complex(x, y) for x, y in pts]
        ops.append(Op("bloch_wigner_five_term",
                      lambda zs=zs: gp.bloch_wigner_five_term(zs),
                      lambda v, zs=zs: [] if abs(v) <= 1e-10 else
                          [f"Bloch-Wigner five-term sum {v!r} at {zs}"]))
    for xs in inp["rogers"]:
        eps = ref.epsilon_ref(xs)
        want = -float(eps) * math.pi ** 2 / 6
        ops.append(Op("rogers_five_term",
                      lambda xs=xs: gp.rogers_five_term(xs),
                      lambda v, xs=xs, eps=eps, want=want:
                          ([] if v["epsilon"] == str(eps) else
                           [f"Rogers epsilon {v['epsilon']} at {xs}, "
                            f"expected {eps}"])
                          + ref.check_value(f"Rogers five-term at {xs}",
                                            v["sum"], want, 1e-9)))
    return ops


WORKLOADS = {
    "exact_identities": exact_ops,
    "tate_integrals": tate_ops,
    "polylog_values": polylog_ops,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import grasspoly as gp
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    ops = WORKLOADS[args.workload](gp, inputs)
    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    values, times, failures = [], [], {}
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            values.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            values.append(None)
            failures[op.name] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = tracer.summarize()
        tracer.dump(args.trace_out)

    problems = []
    for op, value in zip(ops, values):
        if op.name not in failures:
            problems += op.check(value)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "op_s": times,
        "attempted": len(ops), "failed": len(failures),
        "failures": failures, "problems": problems[:20],
        "peak_rss_mb": rss_mb, "layers": layers,
    }))


if __name__ == "__main__":
    main()
