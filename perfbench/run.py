"""grasspoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME may be `all`, which runs every workload in turn.
Run from the root of a checkout; the library is imported from ./src.  The
workload's inputs are generated from the seed (gen.py), then whole passes
over the workload's operations run, each in fresh processes, until the
measured time reaches S seconds.  Every output is checked against an
independent reference (ref.py).  The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics (passes then alternate untraced and traced).  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

PASS_TIMEOUT = 120
SETUP_SAMPLES = 5
IMPORT_PROBES = 3


class BenchError(RuntimeError):
    pass


def child_env():
    """Environment of every measured process: the library from ./src,
    GRASSPOLY_THREADS unset, and one BLAS/OpenMP thread.  The library's
    numpy calls are on small matrices; a multi-threaded BLAS only spins
    against whatever else runs on the machine, which made the same n=3
    Tate integral 2-3x slower under load."""
    env = dict(os.environ)
    env.pop("GRASSPOLY_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


def spawn(argv, out_path, err_path):
    """Run argv to completion with output to files; returns
    (seconds, exit code, peak RSS in MB) of that process alone.  A process
    still running after PASS_TIMEOUT seconds is killed."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV,
                                cwd=ROOT)
        watchdog = threading.Timer(PASS_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.monotonic() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    if elapsed >= PASS_TIMEOUT:
        raise BenchError(f"{argv[1:3]} ran over {PASS_TIMEOUT} s")
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def last_json(text, what):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{what} printed no result") from exc


# ---------------------------------------------------------------------------
# in-process workloads: one worker process per pass


class WorkerWorkload:
    def __init__(self, name, work, inputs_path):
        self.name, self.work, self.inputs = name, work, inputs_path

    def _run(self, extra, tag):
        out = os.path.join(self.work, f"{tag}.out")
        err = os.path.join(self.work, f"{tag}.err")
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.name, "--inputs", self.inputs,
                "--spawned", repr(time.monotonic())] + extra
        spawn(argv, out, err)
        text = read(out)
        if not text.strip():
            raise BenchError(f"worker failed: {read(err)[-2000:]}")
        return last_json(text, "worker")

    def one_pass(self, traced, index):
        extra = []
        if traced:
            extra = ["--trace-out",
                     os.path.join(self.work, f"spans-{self.name}.bin")]
        res = self._run(extra, f"pass{index}")
        return {"setup_s": [res["setup_s"]], "wall_s": res["wall_s"],
                "op_s": res["op_s"], "peak_rss_mb": res["peak_rss_mb"],
                "attempted": res["attempted"], "failed": res["failed"],
                "failures": res["failures"], "problems": res["problems"],
                "layers": res["layers"], "output_bytes": 0}

    def setup_sample(self, index):
        return self._run(["--setup-only"], f"setup{index}")["setup_s"]

    def check(self):
        return []


# ---------------------------------------------------------------------------
# cli_cold: a fixed script of fresh-process command lines


def path_payload(segments):
    """PathSpec JSON for real segments given as coefficient matrices."""
    return {"segments": [
        {"degree": len(seg) - 1,
         "coeffs": [[[[float(x), 0.0] for x in row] for row in level]
                    for level in seg]} for seg in segments]}


def line(a, b):
    return [a, [[y - x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]]


class CliWorkload:
    def __init__(self, work, inputs):
        import ref
        self.work, self.inp = work, inputs
        a, b = inputs["segment"]
        with open(os.path.join(HERE, "inputs", "fault_a.json"),
                  encoding="utf-8") as fh:
            fault = json.load(fh)
        files = {
            "segment.json": path_payload([line(a, b)]),
            "fault_a.json": path_payload([line(fault["start"],
                                               fault["end"])]),
            "element2.json": {"arity": 2, "terms": [
                {"coeff": c, "slots": [[ref.slot_str(s)] for s in slots]}
                for slots, c in sorted(ref.window_element(2).items())]},
        }
        for fname, data in files.items():
            with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        seg = os.path.join(work, "segment.json")
        word = json.dumps([[[1, ref.slot_str(lab)]] for lab in inputs["word"]])

        def grid(g):
            return ":".join(repr(float(x)) for x in g[:2]) + f":{g[2]}"

        seed = str(inputs["verify_seed"])
        # (name, arguments, expected exit code)
        self.script = [
            ("element_2", ["element", "--n", "2"], 0),
            ("element_3", ["element", "--n", "3"], 0),
            ("verify_all_2", ["verify", "--suite", "all", "--n", "2",
                              "--seed", seed], 0),
            ("verify_comparison_3", ["verify", "--suite", "comparison",
                                     "--n", "3"], 0),
            ("integrate_word",
             ["integrate", "--word", word, "--path", seg], 0),
            ("integrate_element_2",
             ["integrate", "--element", os.path.join(work, "element2.json"),
              "--path", seg], 0),
            ("integrate_fault_a",
             ["integrate", "--element", os.path.join(work, "element2.json"),
              "--path", os.path.join(work, "fault_a.json")], 3),
            ("table_li2", ["table", "--function", "li2",
                           f"--grid={grid(inputs['li2_grid'])}"], 0),
            ("table_bloch_wigner",
             ["table", "--function", "bloch_wigner",
              "--grid=" + ",".join(grid(g) for g in inputs["bw_grid"])], 0),
            ("table_rogers", ["table", "--function", "rogers",
                              "--grid=-1:2:7"], 0),
            ("table_l2g", ["table", "--function", "l2g",
                           f"--grid={grid(inputs['l2g_grid'])}"], 0),
        ]
        self.outputs = []
        self._refs = None

    def one_pass(self, traced, index):
        times, failures, peak, layers, nbytes = [], {}, 0.0, None, 0
        outputs = {}
        start = time.monotonic()
        for name, args, expected in self.script:
            out = os.path.join(self.work, "cli.out")
            err = os.path.join(self.work, "cli.err")
            if traced:
                summary = os.path.join(self.work, "summary.json")
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        summary, os.path.join(self.work, f"spans-{name}.bin")]
            else:
                argv = [sys.executable, "-m", "grasspoly.cli"]
            elapsed, code, rss = spawn(argv + args, out, err)
            times.append(elapsed)
            peak = max(peak, rss)
            text = read(out)
            nbytes += len(text.encode())
            if code == expected:
                outputs[name] = text
            elif code == 0:
                outputs[name] = None  # a result where an error was due
            else:
                failures[name] = (f"exit {code} (expected {expected}): "
                                  + read(err).strip()[-300:])
            if traced:
                with open(summary, encoding="utf-8") as fh:
                    layers = add_layers(layers, json.load(fh))
        wall = time.monotonic() - start
        self.outputs.append(outputs)
        return {"setup_s": [], "wall_s": wall, "op_s": times,
                "peak_rss_mb": peak, "attempted": len(self.script),
                "failed": len(failures), "failures": failures,
                "problems": [], "layers": layers, "output_bytes": nbytes}

    def setup_sample(self, index):
        """A cold `import grasspoly.cli` in a fresh interpreter: from just
        before the spawn to the end of the import."""
        out = os.path.join(self.work, "import.out")
        code = "import time, grasspoly.cli; print(time.monotonic())"
        t = time.monotonic()
        _, rc, _ = spawn([sys.executable, "-c", code], out,
                         os.path.join(self.work, "import.err"))
        if rc != 0:
            raise BenchError("import grasspoly.cli failed")
        return float(read(out).strip()) - t

    def check_output(self, name, text):
        """Problems with the standard output of one command of the script;
        None stands for an exit code 0 where an error was due."""
        import ref
        if text is None:
            return [f"{name}: exit 0 where an error was due"]
        if self._refs is None:
            a, b = self.inp["segment"]
            self._refs = (ref.depth2_ref(a, b, *self.inp["word"]),
                          ref.element2_ref(a, b))
        word_ref, element_ref = self._refs
        try:
            if name in ("element_2", "element_3"):
                return ref.check_element_json(json.loads(text), int(name[-1]))
            if name == "verify_all_2":
                return ref.check_verify_json(
                    json.loads(text), 2, ["comparison", "relations", "scale",
                                          "integrability", "deltar"])
            if name == "verify_comparison_3":
                return ref.check_verify_json(json.loads(text), 3,
                                             ["comparison"])
            if name == "integrate_word":
                return ref.check_integrate_json(name, json.loads(text),
                                                word_ref, 1e-10)
            if name == "integrate_element_2":
                return ref.check_integrate_json(name, json.loads(text),
                                                element_ref, 1e-9)
            if name == "integrate_fault_a":
                return []  # the exit code is the whole result
            if name.startswith("table_"):
                fn = name[len("table_"):]
                spec = {"li2": self.inp["li2_grid"],
                        "bloch_wigner": self.inp["bw_grid"],
                        "rogers": [-1.0, 2.0, 7],
                        "l2g": self.inp["l2g_grid"]}[fn]
                return ref.check_table(fn, text, spec)
        except ValueError as exc:
            return [f"{name}: unreadable output ({exc})"]
        raise KeyError(name)

    def check(self):
        return [p for outputs in self.outputs
                for name, text in outputs.items()
                for p in self.check_output(name, text)]


def add_layers(total, part):
    if total is None:
        return dict(part)
    return {k: total.get(k, 0) + v for k, v in part.items()}


# ---------------------------------------------------------------------------
# metrics


def import_times():
    """cli.import_*_ms: cumulative import times from python -X importtime,
    median of IMPORT_PROBES cold imports of grasspoly.cli."""
    wanted = {"numpy": "cli.import_numpy_ms", "mpmath": "cli.import_mpmath_ms",
              "grasspoly.cli": "cli.import_grasspoly_ms"}
    samples = {v: [] for v in wanted.values()}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import grasspoly.cli"], env=ENV, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        seen = {}
        for row in proc.stderr.splitlines():
            parts = row.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen[wanted[parts[2].strip()]] = int(parts[1]) / 1000.0
        for key in samples:
            samples[key].append(seen.get(key, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def layer_metrics(untraced, traced):
    """Per-layer metrics: times are medians over traced passes, counts come
    from the first traced pass (they repeat exactly)."""
    layers = [p["layers"] for p in traced]
    out = {}
    for key in layers[0]:
        vals = [lay[key] for lay in layers]
        out[key] = (vals[0] if isinstance(vals[0], int)
                    else statistics.median(vals))
        if isinstance(vals[0], int) and len(set(vals)) > 1:
            print(f"note: count {key} differs between traced passes: {vals}")
    out["cli.output_bytes"] = traced[0]["output_bytes"]
    # Panels are known only for calls that return, so the time per panel
    # leaves out calls that raised (a budget error, say).
    returned_s = out.pop("iterint.returned_s")
    out["iterint.us_per_panel"] = (returned_s / out["iterint.panels"] * 1e6
                                   if out["iterint.panels"] else 0.0)
    out["iterint.us_per_call"] = (out["iterint.s"] / out["iterint.calls"]
                                  * 1e6 if out["iterint.calls"] else 0.0)
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced))
    out.update(import_times())
    return out


def run_all(names, args):
    """Every workload in turn, each in its own run; the last line maps each
    workload to its result."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = last_json(proc.stdout, name)
    print(json.dumps(results))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "grasspoly", "__init__.py")):
        sys.stderr.write(f"no library sources under {SRC}: run from the root "
                         "of a grasspoly checkout\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(names, args)
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of "
                         f"{names}\n")
        return 2

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs_path = os.path.join(work, "inputs.json")
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--out", inputs_path], env=ENV, cwd=ROOT, check=True,
                   timeout=PASS_TIMEOUT)
    if args.workload == "cli_cold":
        with open(inputs_path, encoding="utf-8") as fh:
            workload = CliWorkload(work, json.load(fh))
    else:
        workload = WorkerWorkload(args.workload, work, inputs_path)

    untraced, traced = [], []
    start = time.monotonic()
    while True:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        res = workload.one_pass(trace_this, len(untraced) + len(traced))
        (traced if trace_this else untraced).append(res)
        if time.monotonic() - start >= args.seconds and (
                not args.trace or traced):
            break
    passes = untraced + traced

    problems = workload.check()
    for p in passes:
        problems += p["problems"]
    failures = {}
    for p in passes:
        failures.update(p["failures"])
    for name, reason in sorted(failures.items()):
        print(f"failed: {name}: {reason}")
    for line_ in problems[:20]:
        print(f"incorrect: {line_}")

    if args.trace:
        metrics = layer_metrics(untraced, traced)
        wanted = spec["per_layer"]
    else:
        setup = [s for p in untraced for s in p["setup_s"]]
        while len(setup) < SETUP_SAMPLES:
            setup.append(workload.setup_sample(len(setup)))
        ops = [t for p in untraced for t in p["op_s"]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "op_ms_p50": statistics.median(ops) * 1000.0,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in untraced),
        }
        print(f"samples: setup_s {len(setup)} set-ups, wall_s and "
              f"peak_rss_mb {len(untraced)} passes, op_ms_p50 "
              f"{len(ops)} operations")
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
