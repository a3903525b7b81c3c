"""The dgb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `dgb` is loaded from ``src/``.
Every workload is a closed loop with one caller and one process at a time.

cycle8-symmetric  fresh `dgb symmetric --classical --stats --json` processes
                  on tests/data/twisted_cubic_cycle8.dgb, checked against
                  tests/golden_cycle8.py.  Pinned input: the seed is unused.
cycle8-verify     fresh `dgb verify --json` processes on the pinned basis
                  perfbench/data/cycle8_basis.dgb (the 32 golden elements
                  plus x(8) - x(0)); must print `verified`.  Seed unused.
                  Not listed in BENCHMARK.json: three workloads do not fit
                  the run budget at a run length that is steady on a noisy
                  host, and its layers are measured on the other two.
flow-membership   fresh processes that each set up the flow system over
                  Q(H) (import, parse, adaptive completion, interreduce,
                  checked against tests/golden_navier.py) and then answer a
                  batch of seeded membership items (see flowstream.py).

With --trace 0 the last line carries the end-to-end metrics.  Their times
are scaled to a reference machine speed by each child's own speed samples
(see speed.py), which takes out most of the drift of the host's speed;
the second line prints them and the wall seconds of each operation with its
set-up probes.  With --trace 1
the per-layer metrics of one traced operation (see tracer.py) plus the
tracing overhead against the same operation untraced.  The names and units
come from BENCHMARK.json.  A failed check is counted in `failed`, printed,
and makes the exit code 1.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
SYMMETRIC_INPUT = "tests/data/twisted_cubic_cycle8.dgb"
VERIFY_INPUT = "perfbench/data/cycle8_basis.dgb"
REQUIRED = ("src/dgb/__init__.py", "src/dgb/cli.py", SYMMETRIC_INPUT,
            "tests/data/navier_stokes.dgb", "tests/golden_cycle8.py",
            "tests/golden_navier.py", VERIFY_INPUT, "BENCHMARK.json")

HARD_LIMIT_S = 170    # the whole run, traced or not, ends before this
FLOW_ITEMS = 100      # membership items per flow process
MIN_OPS = {"cycle8-symmetric": 4, "cycle8-verify": 5, "flow-membership": 3}
PROBES_PER_OP = {"cycle8-symmetric": 5, "cycle8-verify": 2}  # set-up probes

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402


class Run:
    """Process launching, failure accounting and the time budget of a run."""

    def __init__(self, seconds):
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.hard_deadline = self.started + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv):
        """Run one child to completion: (launch time, returncode, stdout,
        stderr).  A child still running at the hard deadline is killed."""
        launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.hard_deadline - launch))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\nkilled at the benchmark's time limit"
        return launch, proc.returncode, out, err

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def more(self, done, min_ops, samples):
        """Whether to start another operation: the minimum count first, then
        only while the median operation still fits before the deadline."""
        now = time.monotonic()
        if now + 1.5 * max(samples, default=0) > self.hard_deadline:
            return False
        if done < min_ops:
            return True
        return now + statistics.median(samples) <= self.deadline


def child_result(run, what, launch_code_out_err):
    """The JSON line a child printed last, or None with the failure recorded."""
    _, code, out, err = launch_code_out_err
    lines = out.strip().splitlines()
    try:
        if code == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    tail = (err.strip().splitlines() or ["no output"])[-1]
    run.record(what, [f"child exit {code}: {tail}"])
    return None


def scale(res):
    """Factor from a child's wall seconds to seconds at the reference speed."""
    return speed.REFERENCE_S / res["calib_s"]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- operations --------------------------------------------------------------


def setup_probe(run, path, expected_polys):
    """Seconds from launch until a fresh process has imported dgb.cli and
    parsed path, at the reference speed, or None when it failed."""
    spawned = run.spawn([sys.executable, CHILD, "setup", "--input", path])
    res = child_result(run, "setup", spawned)
    if res is None:
        return None
    run.record("setup", [] if res["polynomials"] == expected_polys else
               [f"parsed {res['polynomials']} polynomials, expected {expected_polys}"])
    return (res["done"] - spawned[0]) * scale(res)


def cli_args(workload):
    if workload == "cycle8-symmetric":
        return ["symmetric", "--gens", SYMMETRIC_INPUT, "--classical", "--stats", "--json"]
    return ["verify", "--input", VERIFY_INPUT, "--json"]


def cli_check(workload):
    if workload == "cycle8-symmetric":
        golden = checks.load_golden(ROOT, "golden_cycle8")
        return lambda out, code: checks.check_symmetric(out, code, golden)
    return checks.check_verify


def cli_op(run, workload, check):
    """One fresh process running the `dgb` command line: seconds from launch
    to result at the reference speed, or None when the process failed."""
    spawned = run.spawn([sys.executable, CHILD, "cli", *cli_args(workload)])
    res = child_result(run, workload, spawned)
    if res is None:
        return None
    run.record(workload, check(res["stdout"], res["exit_code"]))
    return (res["done"] - spawned[0]) * scale(res)


def flow_op(run, seed, batch, plant=-1, trace=None):
    """One fresh flow process: set-up plus FLOW_ITEMS items.  Returns
    (set-up seconds, seconds to the last checked item, item seconds, child
    JSON), or None when the process failed.  The seconds are scaled to the
    reference speed, except under a trace."""
    argv = [sys.executable, CHILD, "flow", "--seed", str(seed), "--batch", str(batch),
            "--items", str(FLOW_ITEMS), "--plant", str(plant)]
    if trace:
        argv += ["--trace", trace]
    spawned = run.spawn(argv)
    res = child_result(run, "flow process", spawned)
    if res is None:
        return None
    launch = spawned[0]
    factor = 1.0 if trace else scale(res)
    run.record("flow set-up", res["setup_problems"])
    item_times = []
    for elapsed, problem in res["items"]:
        run.record("flow item", [problem] if problem else [])
        item_times.append(elapsed * factor)
    return ((res["setup_done"] - launch) * factor, (res["done"] - launch) * factor,
            item_times, res)


# --- end-to-end run ------------------------------------------------------------


def measure(run, workload, seed):
    # times at the reference speed, and the wall seconds of each operation
    # (with its set-up probes), by which the run keeps to its deadline
    op_times, setup_times, item_times, cycles = [], [], [], []
    if workload == "flow-membership":
        batch = 0
        while run.more(batch, MIN_OPS[workload], cycles):
            started = time.monotonic()
            got = flow_op(run, seed, batch)
            cycles.append(time.monotonic() - started)
            batch += 1
            if got is None:
                break
            setup_s, op_s, items, _ = got
            setup_times.append(setup_s)
            op_times.append(op_s)
            item_times.extend(items)
    else:
        path, polys = ((SYMMETRIC_INPUT, 2) if workload == "cycle8-symmetric"
                       else (VERIFY_INPUT, 33))
        check = cli_check(workload)
        setup_probe(run, path, polys)  # compiles bytecode; not timed
        while run.more(len(op_times), MIN_OPS[workload], cycles):
            started = time.monotonic()
            for _ in range(PROBES_PER_OP[workload]):
                setup_times.append(setup_probe(run, path, polys))
            op_s = cli_op(run, workload, check)
            cycles.append(time.monotonic() - started)
            if op_s is None:
                break
            op_times.append(op_s)
        setup_times = [t for t in setup_times if t is not None]
        item_times = op_times
    if not (op_times and setup_times and item_times):
        return None
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "run_s": statistics.median(op_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kb / 1024,
        "items_per_s": len(item_times) / sum(item_times),
        "item_p50_s": statistics.median(item_times),
        "item_p90_s": percentile(item_times, 90),
        "ops": op_times,
        "cycles": cycles,
        "items": len(item_times),
    }


# --- traced run -------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def derived_layer_metrics(m):
    """Ratios and renamed counters computed from a tracer summary."""
    for name in ("generated", "killed_chain", "killed_sigma", "reduced_to_zero",
                 "new_elements"):
        key = "pairs_" + name if name != "new_elements" else name
        m[f"completion.{key}"] = m.get(f"completion.pairs.{name}", 0)
    gen, chain = m["completion.pairs_generated"], m["completion.pairs_killed_chain"]
    m["completion.chain_kill_ratio"] = _ratio(chain, gen)
    m["completion.useful_pair_ratio"] = _ratio(m["completion.new_elements"], gen - chain)
    m.setdefault("completion.checked_pairs", 0)
    hits = m.setdefault("reduction.ReducerBasis.find_divisor.hits", 0)
    m.setdefault("reduction.ReducerBasis.iter_divisors.hits", 0)
    m.setdefault("ring.terms_merged", 0)
    m["reduction.probes_per_step"] = _ratio(
        m.get("reduction.ReducerBasis.candidate_shifts.calls", 0), hits)
    m["reduction.divisor_hit_ratio"] = _ratio(
        hits, m.get("reduction.ReducerBasis.find_divisor.calls", 0))
    return m


def measure_traced(run, workload, seed):
    """One untraced and one traced run of the same operation, both in the
    benchmark's child so that they differ only by the tracer."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = str(out_dir / f"trace-{workload}-seed{seed}.jsonl")
    if workload == "flow-membership":
        untraced = flow_op(run, seed, 0)
        traced = flow_op(run, seed, 0, trace=spans)
        if untraced is None or traced is None:
            return None
        untraced_s, traced_s, res = untraced[1], traced[1], traced[3]
    else:
        check = cli_check(workload)
        walls = []
        res = None
        for trace in (None, spans):
            argv = [sys.executable, CHILD, "cli"] + (["--trace", trace] if trace else [])
            spawned = run.spawn(argv + cli_args(workload))
            res = child_result(run, workload, spawned)
            if res is None:
                return None
            run.record(workload, check(res["stdout"], res["exit_code"]))
            walls.append(res["done"] - spawned[0])
        untraced_s, traced_s = walls
    m = derived_layer_metrics(dict(res["trace"]))
    m["cli.import_s"] = res["import_s"]
    m["trace.untraced_run_s"] = untraced_s
    m["trace.run_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    return m


# --- entry point -----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a dgb source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = Run(args.seconds)
    if args.trace:
        values, wanted = measure_traced(run, args.workload, args.seed), spec["per_layer"]
    else:
        values, wanted = measure(run, args.workload, args.seed), spec["end_to_end"]
    if values is None:
        for problem in run.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        print("run.py: no operation completed", file=sys.stderr)
        return 1

    not_measured = [w["name"] for w in wanted if w["name"] not in values]
    metrics = {w["name"]: {"value": values.get(w["name"], 0), "unit": w["unit"]}
               for w in wanted}
    summary = " ".join(f"{name}={m['value']:.6g}{m['unit']}" for name, m in metrics.items())
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"error_rate={error_rate:.6g} ({run.failed}/{run.attempted}) {summary}")
    if not args.trace:
        print(f"items={values['items']} operation seconds at the reference speed: "
              + " ".join(f"{t:.3f}" for t in values["ops"])
              + "; wall seconds with set-up probes: "
              + " ".join(f"{t:.3f}" for t in values["cycles"]))
    if not_measured:
        print("not measured (reported as 0): " + ", ".join(not_measured))
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
