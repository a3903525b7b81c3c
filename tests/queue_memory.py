"""The pair queue's memory gates, also runnable without pytest:

    PYTHONPATH=src python tests/queue_memory.py

completes the generator of tests/data/cli/grow.dgb, x(0)*x(2) - x(1)^2
(rank 1), at pair budget 1,000, from a collected heap under tracemalloc,
and prints its traced peak per generated pair on this interpreter against
the bound of each gate in tests/test_completion.py.  The exit status is 1
when a gate fails."""

import gc
import sys
import tracemalloc

from dgb import DifferenceRing, Signature
from dgb.completion import PairStats, sigma_gbasis

# the traced peak per generated pair that each gate allows, before its 25%
GATES = {
    "test_pair_queue_memory_per_generated_pair": 250,
    "test_pair_queue_memory_of_bare_keys": 165,
}
SLACK = 1.25
STATS = PairStats(generated=3185, killed_sigma=805, killed_chain=827,
                  reduced_to_zero=140, new_elements=33)


def traced_bytes_per_pair(budget=1000):
    """(basis, bytes): the grow.dgb completion at the pair budget and its
    traced peak per generated pair.  The peak depends on when cyclic
    garbage is collected, so the run starts from a collected heap."""
    ring = DifferenceRing(Signature(1, ("x",), ()))
    x = [ring.var("x", (k,)) for k in range(3)]
    g = x[0] * x[2] - x[1] * x[1]
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        basis = sigma_gbasis([g], max_pair_budget=budget)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return basis, peak / basis.stats.generated


def main():
    basis, per_pair = traced_bytes_per_pair()
    version = ".".join(map(str, sys.version_info[:3]))
    ok = basis.status.kind == "budget_exhausted" and basis.stats == STATS
    print(f"Python {version}: {per_pair:.1f} B per generated pair, "
          f"PairStats {'as pinned' if ok else basis.stats}")
    for name, bound in GATES.items():
        passed = ok and per_pair < bound * SLACK
        ok = ok and passed
        print(f"  {name}: bound {bound * SLACK:.1f} B, {'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
