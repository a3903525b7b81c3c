"""Child processes of the benchmark, one fresh interpreter each.

    child.py setup --input FILE           import dgb.cli and parse FILE
    child.py cli [--trace OUT] ARGS...    run the dgb command line in-process
    child.py flow --seed N --batch K --items M [--plant I] [--trace OUT]
                                          flow set-up, then M membership items

Each prints one JSON object as its last line of standard output.  Times
marked ``*_done`` are ``time.monotonic()`` readings, which on Linux share
one clock across processes, so the parent subtracts its own reading taken
before launch.  Without ``--trace`` the child samples the machine's speed
as it works (see speed.py): the readings exclude the sampling, and
``calib_s`` is the median sample.  With ``--trace OUT`` nothing is sampled;
the tracer is installed right after ``import dgb.cli``, spans go to OUT and
the per-label summary into the JSON.
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from speed import Sampler

ROOT = Path(__file__).resolve().parent.parent
FLOW_INPUT = ROOT / "tests" / "data" / "navier_stokes.dgb"


def _import_dgb():
    started = time.perf_counter()
    import dgb.cli  # noqa: F401
    return time.perf_counter() - started


def _tracer(path):
    if not path:
        return None
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(out, sampler, tracer, path):
    out["calib_s"] = sampler.stop()
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write_spans(path)
    print(json.dumps(out))


def cmd_setup(args, sampler):
    import_s = _import_dgb()
    from dgb import cli
    with open(args.input, encoding="utf-8") as handle:
        problem = cli.parse_problem(handle.read())
    _finish({"done": sampler.now(), "import_s": import_s,
             "polynomials": len(problem.polynomials)}, sampler, None, None)


def cmd_cli(args, sampler):
    import_s = _import_dgb()
    tracer = _tracer(args.trace)
    from dgb import cli
    captured = io.StringIO()
    if tracer is not None:
        tracer.item = 0
    with contextlib.redirect_stdout(captured):
        code = cli.run(args.argv)
    out = {"done": sampler.now(), "import_s": import_s, "exit_code": code,
           "stdout": captured.getvalue()}
    _finish(out, sampler, tracer, args.trace)


def _flow_setup_problems(cli, ring_module, basis, ring, golden):
    problems = []
    if basis.status.kind != "complete":
        problems.append(f"status {basis.status}")
    lms = {ring_module.format_monomial(g.lm, ring) for g in basis.elements}
    if len(basis.elements) != len(golden.LEADING_MONOMIALS) or lms != golden.LEADING_MONOMIALS:
        problems.append(f"leading monomials {sorted(lms)}")
    for text in (golden.REDUCED_SECOND, golden.PRESSURE_ELEMENT):
        if cli.parse_polynomial(ring, text) not in basis.elements:
            problems.append("a pinned element differs term for term")
    return problems


def cmd_flow(args, sampler):
    import_s = _import_dgb()
    tracer = _tracer(args.trace)
    from dgb import cli, completion, reduction
    from dgb import ring as ring_module
    import checks
    import flowstream

    text = FLOW_INPUT.read_text(encoding="utf-8")
    problem = cli.parse_problem(text)
    ring = problem.ring
    basis = completion.interreduce(completion.sigma_gbasis_adaptive(problem.polynomials))
    golden = checks.load_golden(ROOT, "golden_navier")
    setup_problems = _flow_setup_problems(cli, ring_module, basis, ring, golden)
    setup_done = sampler.now()

    G = list(basis.elements)
    stream = flowstream.ItemStream(flowstream.ideal_equations(text), ring.signature.symbols,
                                   ring.signature.shift_rank, args.seed, args.batch)
    clock = time.perf_counter
    items = []
    for index in range(args.items):
        f_text, r_text = stream.next_item()
        if tracer is not None:
            tracer.item = index
        started, spent = clock(), sampler.spent
        problem_text = None
        try:
            f = cli.parse_polynomial(ring, f_text)
            r = cli.parse_polynomial(ring, r_text)
            head, steps = reduction.reduce(f, G, certificate=True)
            replayed = reduction.replay_certificate(head, steps, G)
            nf_f = reduction.reduce_full(f, G)
            nf_r = reduction.reduce_full(r, G)
            if index == args.plant:  # self-test: a deliberately wrong expectation
                nf_r = nf_r + ring.var(0, (0,) * ring.signature.shift_rank)
            if replayed != f:
                problem_text = "certificate does not replay to f"
            elif nf_f != nf_r:
                problem_text = "NF(f) != NF(r)"
        except Exception as exc:  # an item that raises is a counted failure
            problem_text = f"raised {exc!r}"
        elapsed = clock() - started - (sampler.spent - spent)
        items.append([elapsed, problem_text and f"item {index} [{f_text}]: {problem_text}"])
    if tracer is not None:
        tracer.item = -1
    out = {"setup_done": setup_done, "done": sampler.now(), "import_s": import_s,
           "setup_problems": setup_problems, "items": items}
    _finish(out, sampler, tracer, args.trace)


def main(argv):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--input", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", default=None)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("flow")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--plant", type=int, default=-1)
    p.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    sampler = Sampler()
    if not getattr(args, "trace", None):
        sampler.start()
    {"setup": cmd_setup, "cli": cmd_cli, "flow": cmd_flow}[args.mode](args, sampler)


if __name__ == "__main__":
    main(sys.argv[1:])
