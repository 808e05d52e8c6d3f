"""Shows that every output check of the benchmark rejects a corrupted output.

    python3 perfbench/selfcheck.py      (from the root of a checkout)

For each check it feeds a correct output, which must pass, and a corrupted
one, which must be rejected: the library's own corruptions (`element
--mutate`, `verify --mutate`, `flip_first_term`, a mutated element builder,
the Steinberg identity without its one half) and perturbed values.  The
in-process checks are the ones the workloads use (worker.py), applied to
results of a small pass.  Prints one line per check; exits 1 if any check
accepts a corruption or rejects a correct output.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import ref  # noqa: E402
import worker  # noqa: E402
from run import ENV, CliWorkload  # noqa: E402

import grasspoly as gp  # noqa: E402

def verdict(name, good, bad):
    """Prints and returns whether the check passed the correct output
    (`good` lists no problem) and rejected the corrupted one."""
    ok = not good and bool(bad)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: correct output "
          f"{'passes' if not good else 'rejected: ' + good[0]}; corrupted "
          f"output {'rejected: ' + bad[0] if bad else 'ACCEPTED'}")
    return ok


def cli(*args):
    proc = subprocess.run([sys.executable, "-m", "grasspoly.cli", *args],
                          env=ENV, cwd=ROOT, capture_output=True, text=True)
    return proc.stdout


def mutated_builder(k, labels=None, prefix=()):
    el = gp.build_element(k, labels=labels, prefix=prefix)
    return gp.GrassElement(el.n, el.labels, el.prefix,
                           gp.flip_first_term(el.tensor))


def corrupt(name, value):
    """A wrong result of the same kind as the operation's result."""
    flipped3 = gp.flip_first_term(gp.build_element(3).tensor)
    if name == "build_element_4":
        return gp.GrassElement(value.n, value.labels, value.prefix,
                               gp.flip_first_term(value.tensor))
    if name == "pairing_element_labels_4":
        return gp.AomotoExpr.zero()
    if name == "comparison_4":
        return [(gp.flip_first_term(value[0]), value[1]),
                (value[0], False)]
    if name == "check_comparison_3":
        return gp.check_comparison(3, element=gp.GrassElement(
            3, tuple(range(1, 7)), (), flipped3))
    if name == "omission_relations_3":
        return gp.check_omission_relations(3, element_builder=mutated_builder)
    if name == "scale_invariance_3":
        return gp.check_scale_invariance(3, tensor=flipped3)
    if name.startswith("integrability_3"):
        return gp.check_integrability(3, tensor=flipped3, num_points=2,
                                      gaussian=name.endswith("gaussian"))
    if name.startswith("additivity"):
        return gp.flip_first_term(gp.build_element(2).tensor)
    if name == "steinberg_wedge":
        return gp.check_steinberg_wedge(num_points=2, half_coefficient=False)
    if name.startswith("tate"):
        return value + 1e-8
    if name.startswith(("li_", "aomoto_a1", "monodromy_probe")):
        return value + 1e-9 * max(1.0, abs(value))
    if name == "bloch_wigner_five_term":
        return value + 1e-9
    if name == "shuffle_test":
        return dict(value, difference=1e-7)
    if name == "rogers_five_term":
        flip = "-1/2" if value["epsilon"] == "1/2" else "1/2"
        return [dict(value, sum=value["sum"] + 1e-8),
                dict(value, epsilon=flip)]
    raise KeyError(name)


def in_process(workload, inputs, judge, run=lambda name: True):
    """Runs the workload's operations selected by `run` and checks the
    correct and the corrupted result of each one selected by `judge` (the
    first of each name) with the operation's own check."""
    seen, results = set(), []
    for op in getattr(worker, workload)(gp, inputs):
        if not run(op.name):
            continue
        value = op.run()
        if not judge(op.name) or op.name in seen:
            continue
        seen.add(op.name)
        bads = corrupt(op.name, value)
        rejected = [op.check(b) for b in
                    (bads if isinstance(bads, list) else [bads])]
        results.append(verdict(f"{workload}:{op.name}", op.check(value),
                               [p[0] for p in rejected] if all(rejected)
                               else []))
    return results


def main():
    results = in_process("exact_ops", gen.exact_inputs(0), lambda name: True)

    tate = gen.tate_inputs(0)
    tate["pairs"] = [p for p in tate["pairs"] if p["n"] == 2][:1]
    # The path's own value has no reference; its deformation's check
    # compares the two.
    results += in_process("tate_ops", tate,
                          lambda name: name == "tate_2_0_deformed",
                          run=lambda name: name.startswith("tate_2"))

    poly = gen.polylog_inputs(0)
    for key in poly:
        if isinstance(poly[key], list):
            poly[key] = poly[key][:2]
    results += in_process("polylog_ops", poly, lambda name: True)

    work = os.path.join(HERE, ".work", "selfcheck")
    os.makedirs(work, exist_ok=True)
    script = CliWorkload(work, gen.cli_inputs(0))
    for name, args, _ in script.script:
        if name == "integrate_fault_a":
            continue  # judged by its exit code alone
        text = cli(*args)
        if name.startswith(("element", "verify")):
            bad = cli(*args, "--mutate")
        elif name.startswith("integrate"):
            data = json.loads(text)
            data["value"][0] += 1e-8
            bad = json.dumps(data)
        else:
            rows = text.splitlines()
            cells = rows[2].split(",")
            col = {"table_l2g": 4, "table_rogers": 1}.get(name, 2)
            cells[col] = repr(float(cells[col]) + 1e-8)
            bad = "\n".join(rows[:2] + [",".join(cells)] + rows[3:]) + "\n"
        results.append(verdict(f"cli:{name}", script.check_output(name, text),
                               script.check_output(name, bad)))
    results.append(verdict("cli:exit 0 where a pole error is due", [],
                           script.check_output("integrate_fault_a", None)))

    print(f"{sum(results)}/{len(results)} checks pass on correct output "
          "and reject the corrupted one")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
