"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each case feeds a known-bad result through the same checking and counting
code the benchmark uses, and requires it to come back as exactly one
counted failure:

* `dgb verify` on the pinned cycle8 basis with x(7)^2 - x(0)*x(6) removed
  (the unbroken file must still pass);
* a flow batch with a planted wrong normal form at one item;
* a cycle8 symmetric report with one basis element altered (built from the
  golden file, so no 11 s completion is needed).
"""

import json
import sys

import checks
import run as bench


def verify_case():
    r = bench.Run(bench.HARD_LIMIT_S)
    lines = (bench.ROOT / bench.VERIFY_INPUT).read_text(encoding="utf-8").splitlines()
    dropped = checks.frozen("x(7)^2 - x(0)*x(6)")
    kept = [ln for ln in lines
            if not (ln.strip().endswith(";") and ":" not in ln
                    and checks.frozen(ln.strip()[:-1]) == dropped)]
    if len(kept) != len(lines) - 1:
        raise SystemExit("the element to drop is not in the pinned basis")
    out_dir = bench.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    broken = out_dir / "selftest_broken_basis.dgb"
    broken.write_text("\n".join(kept) + "\n", encoding="utf-8")
    for path in (bench.VERIFY_INPUT, str(broken)):
        _, code, out, _ = r.spawn([sys.executable, "-m", "dgb.cli", "verify",
                                   "--input", path, "--json"])
        r.record(path, checks.check_verify(out, code))
    return r, str(broken)


def flow_case():
    r = bench.Run(bench.HARD_LIMIT_S)
    bench.flow_op(r, seed=1, batch=0, plant=7)
    return r, "item 7 "


def symmetric_case():
    golden = checks.load_golden(bench.ROOT, "golden_cycle8")
    report = {
        "status": "complete",
        "basis": list(golden.GAMMA_BASIS),
        "leading_monomials": list(golden.GAMMA_LEADING_MONOMIALS),
        "classical_basis": list(golden.CLASSICAL_LEADING_MONOMIALS),
        "classical_count": len(golden.CLASSICAL_LEADING_MONOMIALS),
        "stats": {},
    }
    r = bench.Run(bench.HARD_LIMIT_S)
    r.record("golden report", checks.check_symmetric(json.dumps(report), 0, golden))
    report["basis"][5] = "x(1)*x(7) - 2*x(0)^2"
    r.record("altered report", checks.check_symmetric(json.dumps(report), 0, golden))
    return r, "altered report"


def main():
    ok = True
    for name, case in (("verify", verify_case), ("flow", flow_case),
                       ("symmetric", symmetric_case)):
        r, marker = case()
        good = r.failed == 1 and len(r.problems) == 1 and marker in r.problems[0]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: {r.failed}/{r.attempted} failed"
              + "".join(f"\n     {p[:160]}" for p in r.problems))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
