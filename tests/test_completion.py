import dataclasses
import gc
import hashlib
import random
import tracemalloc
from math import isqrt
from operator import add
from pathlib import Path

import pytest

import classical
from dgb import Monomial, OrderingSpec, RingMismatchError, completion, spoly
from dgb.cli import parse_polynomial, parse_problem
from dgb.completion import (CompletionOptions, PairStats, _minimalize_elements, _Run,
                            interreduce, minimalize, shift_pair_candidates,
                            sigma_gbasis, sigma_gbasis_adaptive,
                            sigma_gbasis_truncated, verify_sigma_gbasis)
from dgb.orderings import DEGLEX, DEGREVLEX, LEX
from dgb.quotient import (PermutationAction, groebner_gamma_basis, normal_variables,
                          pure_power_table, symmetric_setup)
from dgb.reduction import ReducerBasis, reduce, reduce_full

from helpers import (ReferenceRun, divisor_hits, enumerate_up_to_degree, instance_id,
                     is_order_homogeneous, make_ring, monomial_gcd, mono_to_oracle, num_den,
                     oracle_key, random_monomial, random_polynomial, to_oracle)
from queue_memory import GATES, SLACK, STATS as QUEUE_STATS, traced_bytes_per_pair


def R1():
    return make_ring(1, ("x",))


def x(ring, k, e=1):
    return ring.var("x", (k,), e)


# --- critical pairs ---------------------------------------------------------


def test_critical_pairs_distinct_operators():
    ring = make_ring(2, ("x",))
    f = ring.var("x", (1, 0))
    g = ring.var("x", (0, 1))
    pairs, raw = shift_pair_candidates(f.lm, g.lm, False, {})
    assert (pairs, raw) == ([((0, 1), (1, 0))], 1)
    (sigma, tau), = pairs
    overlap = f.lm.shift(sigma).lcm(g.lm.shift(tau))
    assert overlap == ring.monomial([("x", (1, 1), 1)])
    assert overlap.order == 2


def test_critical_pairs_disjoint_symbols_empty():
    ring = make_ring(1, ("x", "y"))
    f = ring.var("x", (2,))
    g = ring.var("y", (1,))
    assert shift_pair_candidates(f.lm, g.lm, False, {}) == ([], 0)


def test_critical_pairs_self_pair():
    ring = R1()
    f = x(ring, 1) * x(ring, 0) - x(ring, 0)
    pairs, raw = shift_pair_candidates(f.lm, f.lm, True, {})
    # x(1)*x(0) against itself: four factor matches, of which the two
    # identity overlaps and one mirror image collapse
    assert (pairs, raw) == ([((0,), (1,))], 4)
    (sigma, tau), = pairs
    # invariants: coprime shifts, overlapping shifted leading monomials
    assert not any(map(min, sigma, tau))
    assert not monomial_gcd(f.lm.shift(sigma), f.lm.shift(tau)).is_one


def test_shift_pair_candidates_complete():
    # every coprime pair with overlapping shifted lms arises from a factor match
    rng = random.Random(11)
    ring = make_ring(2, ("x", "y"))
    for _ in range(60):
        a = random_monomial(rng, ring, max_factors=2)
        b = random_monomial(rng, ring, max_factors=2)
        pairs, _ = shift_pair_candidates(a, b, False, {})
        listed = set(pairs)
        for s in enumerate_up_to_degree(3, 2):
            for t in enumerate_up_to_degree(3, 2):
                if any(map(min, s, t)):
                    continue
                if monomial_gcd(a.shift(s), b.shift(t)).is_one:
                    continue
                assert (s, t) in listed


# --- plain completion --------------------------------------------------------


def test_single_monomial_is_complete():
    ring = make_ring(2, ("x",))
    basis = sigma_gbasis([ring.var("x", (1, 0))])
    assert basis.status.kind == "complete"
    assert list(basis) == [ring.var("x", (1, 0))]


def test_linear_family_already_complete():
    ring = make_ring(2, ("x",))
    f11 = ring.var("x", (2, 0)) - ring.var("x", (0, 0))
    f12 = ring.var("x", (0, 1)) + ring.var("x", (0, 0))
    basis = sigma_gbasis([f11, f12])
    assert basis.status.kind == "complete"
    assert set(basis.elements) == {f11, f12}
    assert basis.stats.new_elements == 0


def test_flow_system_plain_mode_and_minimalize():
    from dgb.cli import parse_problem

    text = (Path(__file__).parent / "data" / "navier_stokes.dgb").read_text()
    problem = parse_problem(text)
    basis = sigma_gbasis(problem.polynomials)
    assert basis.status.kind == "complete"
    assert len(basis.elements) == 5  # the redundant second input still present
    minimal = minimalize(basis)
    lms = {str(g.ring.polynomial([(1, g.lm)])) for g in minimal}
    assert lms == {"u(1,0,0)", "v(1,1,0)", "v(2,0,0)", "p(2,0,0)"}


def test_ordinary_binomial_example():
    ring = R1()
    f = x(ring, 1, 2) - x(ring, 0)
    g = x(ring, 1) * x(ring, 0) - x(ring, 0)
    basis = sigma_gbasis([f, g])
    assert basis.status.kind == "complete"
    assert verify_sigma_gbasis(basis.elements).ok
    # the new element x(0)^2 - x(0) must appear
    assert any(h == x(ring, 0, 2) - x(ring, 0) for h in basis)


def test_constant_collapses_to_unit():
    ring = R1()
    basis = sigma_gbasis([x(ring, 0) + ring.one, x(ring, 0)])
    assert [str(g) for g in basis] == ["1"]
    assert basis.status.kind == "complete"


def test_zero_generators():
    ring = R1()
    basis = sigma_gbasis([ring.zero])
    assert basis.elements == ()
    assert basis.status.kind == "complete"


def test_budget_exhaustion_is_a_status():
    ring = R1()
    # the shifted twisted-cubic binomial keeps producing new elements
    f = x(ring, 0) * x(ring, 2) - x(ring, 1, 2)
    basis = sigma_gbasis([f], max_pair_budget=30)
    assert basis.status.kind == "budget_exhausted"
    assert len(basis.elements) > 1


def test_chain_criterion_preserves_result():
    rng = random.Random(21)
    ring = make_ring(1, ("x", "y"))
    compared = 0
    for _ in range(10):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1)
                for _ in range(2)]
        gens = [g for g in gens if g]
        # the other five cases exhaust any budget up to at least 3000 pairs
        with_chain = sigma_gbasis(gens, max_pair_budget=200)
        without = sigma_gbasis(gens, use_chain_criterion=False, max_pair_budget=200)
        if with_chain.status.kind == "complete" and without.status.kind == "complete":
            assert set(minimalize(interreduce(with_chain)).elements) \
                == set(minimalize(interreduce(without)).elements)
            compared += 1
    assert compared == 5


def test_discarded_shift_pairs_are_multiples():
    # a pair with a common shift factor is the shift of the reduced pair
    rng = random.Random(31)
    ring = make_ring(2, ("x",))
    for _ in range(40):
        f = random_polynomial(rng, ring, max_terms=2)
        g = random_polynomial(rng, ring, max_terms=2)
        if not f or not g:
            continue
        pairs, _ = shift_pair_candidates(f.lm, g.lm, False, {})
        for sigma, tau in pairs:
            delta = tuple(rng.randint(0, 2) for _ in range(2))
            big = spoly(f.shift(tuple(map(add, sigma, delta))),
                        g.shift(tuple(map(add, tau, delta))))
            small = spoly(f.shift(sigma), g.shift(tau))
            assert big == small.shift(delta)


def _reference_shifted_overlap(lm_a, sa, lm_b, sb):
    """Whether the two shifted leading monomials share a variable: the
    product criterion as the chain test used to apply it per query."""
    moved = {(sym, tuple(map(add, alpha, sa))) for (sym, alpha), _ in lm_a.decoded()}
    return any((sym, tuple(map(add, beta, sb))) in moved
               for (sym, beta), _ in lm_b.decoded())


def _seeded_run(seed, budget, modes=("plain", "truncated", "adaptive"), order=None):
    """One seeded completion over rank 1-2, cycling through the three
    shift orderings and the given drivers: plain, no-chain, truncated,
    adaptive, and budget (plain completion cut after three pairs).  The
    symbol ordering is drawn at random; order, a (shift, symbol) pair of
    ordering names, replaces both."""
    rng = random.Random(seed)
    rank = rng.choice([1, 2])
    shift_order = (LEX, DEGLEX, DEGREVLEX)[seed % 3]
    symbols = ("x", "y")[: rng.choice([1, 2])]
    symbol_order = rng.choice([LEX, DEGLEX, DEGREVLEX])
    if order is not None:
        shift_order, symbol_order = order
    spec = OrderingSpec(shift_order, None, symbol_order, None)
    ring = make_ring(rank, symbols, spec=spec)
    gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1) for _ in range(2)]
    gens = [g for g in gens if g]
    mode = modes[seed // 3 % len(modes)]
    if mode == "plain":
        basis = sigma_gbasis(gens, max_pair_budget=budget)
    elif mode == "no-chain":
        basis = sigma_gbasis(gens, max_pair_budget=budget, use_chain_criterion=False)
    elif mode == "budget":
        basis = sigma_gbasis(gens, max_pair_budget=3)
    elif mode == "truncated" or shift_order == LEX:  # adaptive needs a graded order
        mode = "truncated"
        basis = sigma_gbasis_truncated(gens, rng.choice([1, 2, 3]), max_pair_budget=budget)
    else:
        basis = sigma_gbasis_adaptive(gens, max_pair_budget=budget, max_order_cap=8)
    return gens, mode, basis


def _decoded(run, pair):
    """The flat (i, sigma, j, tau), (i, sigma) <= (j, tau), of a pair id of
    a _Run: the codes h > l of its shifted elements packed as h*h + l."""
    high = isqrt(pair)
    low = pair - high * high
    assert low < high
    a, b = sorted((run.elements[low], run.elements[high]))
    return a + b


def _ids(entry):
    """The pair ids waiting in an entry of a _Run's waiting map, in push
    order: a lone id, or a group's ids; none for the group None that a
    chain query of a lone pair gets."""
    if entry is None:
        return []
    if isinstance(entry, int):
        return [entry]
    return list(entry)


def _queued(run):
    """(overlap factors, pair id) for each pair waiting in the grouped queue
    of a _Run, in no particular order."""
    return [(overlap, pair) for overlap, entry in run.waiting.items() for pair in _ids(entry)]


def _waits(run, group, a, b):
    """Whether the pair of shifted elements a, b is in the group's ids, the
    chain test's reading of a pair that is not certified (see _Run)."""
    return (a + b if a <= b else b + a) in {_decoded(run, pair) for pair in _ids(group)}


def test_chain_test_open_set_matches_processed_set_reference(monkeypatch):
    # The reference certifies a shifted pair when the product criterion
    # holds or when its id was treated earlier in the run; every query the
    # chain test could make is compared, and so is every chain decision.
    # Queries answered "not certified" find the pair waiting in the group of
    # the popped overlap, and the seeded runs meet such answers.
    push, skippable = _Run._push_pairs, _Run._chain_skippable
    counts = {"pushed": 0, "queries": 0, "waiting": 0}

    def checked_push(run, i, j):
        before = [pair_id for _, pair_id in _queued(run)]
        push(run, i, j)
        after = [pair_id for _, pair_id in _queued(run)]
        added = set(after) - set(before)
        assert len(added) == len(after) - len(before)
        for pair in added:
            pair_id = _decoded(run, pair)
            a, sigma, b, tau = pair_id
            assert (a, b) == (i, j) and instance_id(a, sigma, b, tau) == pair_id
        counts["pushed"] += len(added)

    def checked_skippable(run, p, q, factors, group):
        (i, si), (j, sj) = p, q
        overlap = Monomial(factors, run.reducer.ring.ordering)
        # every popped pair reaches the chain test and is treated before the
        # next pop, so the ids seen before this one are the treated ones
        ref = run.__dict__.setdefault("reference", {"treated": set(), "last": None})
        if ref["last"] is not None:
            ref["treated"].add(ref["last"])
        ref["last"] = instance_id(i, si, j, sj)

        def certified(a, sa, b, sb):
            if not _reference_shifted_overlap(run.reducer.polys[a].lm, sa,
                                              run.reducer.polys[b].lm, sb):
                return True
            return instance_id(a, sa, b, sb) in ref["treated"]

        expected = False
        for k, nu in divisor_hits(run.reducer, overlap):
            if (k, nu) == (i, si) or (k, nu) == (j, sj):
                continue
            left, right = certified(i, si, k, nu), certified(k, nu, j, sj)
            assert _waits(run, group, (i, si), (k, nu)) != left
            assert _waits(run, group, (k, nu), (j, sj)) != right
            counts["queries"] += 2
            counts["waiting"] += (not left) + (not right)
            expected = expected or (left and right)
        got = skippable(run, p, q, factors, group)
        assert got == expected
        return got

    monkeypatch.setattr(_Run, "_push_pairs", checked_push)
    monkeypatch.setattr(_Run, "_chain_skippable", checked_skippable)
    outcomes = set()
    for seed in range(36):
        _, mode, basis = _seeded_run(seed, budget=150)
        outcomes.add((mode, basis.status.kind))
    assert outcomes >= {("plain", "complete"), ("plain", "budget_exhausted"),
                        ("truncated", "complete_up_to_order"),
                        ("adaptive", "complete"), ("adaptive", "budget_exhausted")}
    assert counts["pushed"] > 1000 and counts["queries"] > 1000 and counts["waiting"] > 0


def test_open_ids_dividing_the_popped_overlap_have_that_overlap(monkeypatch):
    # The lemma behind the chain test's lookup without canonical ids (see
    # _Run): when a pair is popped, a queued id whose overlap divides the
    # popped overlap m has overlap m itself.  Each queued overlap (a factor
    # tuple) is checked against the lcm of the shifted leading monomials
    # when it is pushed, and the waiting map against the heap at each pop.
    push, skippable = _Run._push_pairs, _Run._chain_skippable
    counts = {"pops": 0, "dividing": 0}

    def checked_push(run, i, j):
        before = {pair for _, pair in _queued(run)}
        keys = {id(k) for k in run.queue}
        push(run, i, j)
        for overlap, pair in _queued(run):
            if pair not in before:
                a, sa, b, sb = _decoded(run, pair)
                lm_a, lm_b = run.reducer.polys[a].lm, run.reducer.polys[b].lm
                assert overlap == lm_a.shift(sa).lcm(lm_b.shift(sb)).factors
        # a heap entry is the queue key of its overlap, which compares with
        # the top as [order, key] lists do (orderings.py has the proof), so
        # the heap pops as a heap of [order, key] lists would
        ordering = run.reducer.ring.ordering
        spec, factors_of = ordering.spec, ordering.queue_factors

        def order_and_key(k):
            overlap = factors_of(k)
            return [ordering.order(overlap), ordering.monomial_key(overlap)]

        new = [k for k in run.queue if id(k) not in keys]
        held = {id(f) for f in run.waiting} if new else ()
        for k in new:
            overlap = run.__dict__.setdefault("overlaps", {})[id(k)] = factors_of(k)
            assert k == ordering.queue_key(overlap, ordering.order(overlap))
            top = run.queue[0]
            assert (k > top) == (order_and_key(k) > order_and_key(top))
            if spec.shift_order != LEX and spec.symbol_order == LEX:
                assert id(k) in held  # the tuple waiting holds, not a copy

    def checked_skippable(run, a, b, factors, group):
        queued = _queued(run)
        ids = [_decoded(run, pair) for _, pair in queued]
        assert len(set(ids)) == len(ids) and a + b not in ids
        # the overlap of each heap key, as checked when it was pushed
        assert {run.overlaps[id(k)] for k in run.queue} == set(run.waiting)
        assert len(run.waiting) == len(run.queue)
        assert all(_ids(entry) for entry in run.waiting.values())
        assert group is None or isinstance(group, list)
        exps = dict(factors)
        for other, _ in queued:
            if all(exps.get(var, 0) >= e for var, e in other):
                assert other == factors
                counts["dividing"] += 1
        counts["pops"] += 1
        return skippable(run, a, b, factors, group)

    monkeypatch.setattr(_Run, "_push_pairs", checked_push)
    monkeypatch.setattr(_Run, "_chain_skippable", checked_skippable)
    outcomes = set()
    for seed in range(36):
        _, mode, basis = _seeded_run(seed, budget=150,
                                     modes=("plain", "truncated", "adaptive", "budget"))
        outcomes.add((mode, basis.status.kind, basis.ring.ordering.spec.shift_order))
    assert {(mode, kind) for mode, kind, _ in outcomes} >= {
        ("plain", "complete"), ("plain", "budget_exhausted"),
        ("truncated", "complete_up_to_order"), ("adaptive", "complete"),
        ("budget", "budget_exhausted")}
    assert {order for *_, order in outcomes} == {LEX, DEGLEX, DEGREVLEX}
    assert counts["pops"] > 500 and counts["dividing"] > 50


_PINNED_MODES = ("plain", "no-chain", "truncated", "adaptive", "budget")


def _logged_runs(monkeypatch, run_class, stale):
    """Make run_class the drivers' pair loop and log each of its runs.  Per
    popped pair, in pop order: its id, the pair counts and the basis size
    before it, and its chain decision (None with the chain test off).  A
    ReferenceRun logs a pair when its id leaves the open set, a _Run when
    its id leaves its group's ids or, for a lone pair, when its overlap
    leaves waiting; the log keeps the group, None for a lone pair, as the
    pop's source.  Chain queries of a _Run's groups whose previous query
    of the same group saw a smaller basis count as stale: a divisor list
    kept per group would be stale there.  They count as stale after an own
    pair when the pair popped just before was of the same group, and as
    decided by a new element when the elements of that smaller basis
    alone decide otherwise."""
    runs = []
    init, skippable = run_class.__init__, run_class._chain_skippable

    def log_pop(pair_id, source):
        run = runs[-1]
        run.pops.append([pair_id, tuple(run.stats.as_dict().values()), len(run.reducer), None])
        run.sources.append(source)

    class OpenLog(set):  # the open set of a ReferenceRun
        def remove(self, pair_id):
            super().remove(pair_id)
            log_pop(pair_id, None)

    class LoggedGroup(list):  # a group of a _Run
        __slots__ = ("size",)  # the basis size at the group's last chain query

        def pop(self, index):  # a _Run pops a group's ids only to take them
            pair = super().pop(index)
            log_pop(_decoded(runs[-1], pair), self)
            return pair

    class LoggedWaiting(dict):  # the waiting map of a _Run
        def __setitem__(self, overlap, entry):
            if entry.__class__ is list:  # a new group
                entry = LoggedGroup(entry)
            super().__setitem__(overlap, entry)

        def __delitem__(self, overlap):
            entry = self[overlap]
            if isinstance(entry, int):  # a lone pair leaves with its overlap
                log_pop(_decoded(runs[-1], entry), None)
            super().__delitem__(overlap)

    def logged_init(run, *args):
        init(run, *args)
        run.pops, run.sources = [], []
        if run_class is ReferenceRun:
            run.open = OpenLog()
        else:
            run.waiting = LoggedWaiting()
        runs.append(run)

    def logged_skippable(run, a, b, *where):  # the overlap, and for a _Run its group
        pops = run.pops
        old_only = None
        group = where[1] if run_class is _Run else None
        size = getattr(group, "size", None)
        if size is not None and size != len(run.reducer):
            stale["lists"] += 1
            if len(pops) > 1 and run.sources[-2] is group and pops[-2][2] < pops[-1][2]:
                stale["after an own pair"] += 1
            overlap = Monomial(where[0], run.reducer.ring.ordering)
            old_only = any(c[0] < size and c != a and c != b
                           and not _waits(run, group, a, c) and not _waits(run, group, c, b)
                           for c in divisor_hits(run.reducer, overlap))
        got = skippable(run, a, b, *where)
        if group is not None:
            group.size = len(run.reducer)
        if old_only is not None and old_only != got:
            stale["decided by a new element"] += 1
        assert pops[-1][0] == a + b and pops[-1][3] is None
        pops[-1][3] = got
        return got

    monkeypatch.setattr(completion, "_Run", run_class)
    monkeypatch.setattr(run_class, "__init__", logged_init)
    monkeypatch.setattr(run_class, "_chain_skippable", logged_skippable)
    return runs


def _pops_and_budget_pair(run):
    """The logged pops of a run, and the pair popped when the pair budget
    ran out, or none.  A ReferenceRun leaves that pair out of the queue
    and in the open set; a _Run takes it from its group, and so logs it,
    before it checks the budget."""
    if isinstance(run, ReferenceRun):
        queued = {entry[3] for entry in run.queue}
        return run.pops, sorted(run.open - queued)
    if len(run.pops) > run.options.max_pair_budget:
        return run.pops[:-1], [run.pops[-1][0]]
    return run.pops, []


def test_grouped_queue_matches_the_per_pair_reference(monkeypatch):
    # Differential gate for the grouped queue of _Run against ReferenceRun
    # (helpers.py), the loop with one heap entry per pair and one divisor
    # search per chain query: over the 36 seeded runs in all five modes and
    # cycle5's lifted generators, both pop the same pairs in the same order,
    # with the same pair counts, basis size and chain decision at each pop,
    # run out of budget at the same pair and return the same basis.  The
    # seeded runs meet groups whose basis grew between two of their
    # queries, also over an own pair; in the hand-built set below an
    # element added in between kills the pair, so a divisor list kept per
    # group and not rebuilt would change a decision.
    problem = parse_problem((Path(__file__).parent / "data/cli/cycle5.dgb").read_text())
    action = PermutationAction(problem.permutation, problem.ring)
    lifted = symmetric_setup(action, problem.polynomials)
    ring = make_ring(1, ("x",), spec=OrderingSpec(DEGLEX, None, DEGREVLEX, None))
    hand_built = [parse_polynomial(ring, text) for text in
                  ("3*x(2)^2", "x(2)*x(1)^2*x(0)^2 + x(2)*x(0)", "-1/2*x(1)^2*x(0) - 2*x(1)")]
    computations = [lambda seed=seed: _seeded_run(seed, budget=150, modes=_PINNED_MODES)[2]
                    for seed in range(36)]
    computations += [lambda: sigma_gbasis(lifted), lambda: sigma_gbasis(hand_built)]
    stale = {"lists": 0, "after an own pair": 0, "decided by a new element": 0}
    outcomes, modes = {}, set()
    for run_class in (ReferenceRun, _Run):
        outcomes[run_class] = []
        for compute in computations:
            with monkeypatch.context() as patch:
                runs = _logged_runs(patch, run_class, stale)
                basis = compute()
            outcomes[run_class].append(
                (str(basis.status), tuple(basis.stats.as_dict().values()),
                 [str(g) for g in basis], [_pops_and_budget_pair(run) for run in runs]))
            modes.add((str(basis.status), bool(runs and runs[0].options.use_chain_criterion)))
    for expected, got in zip(outcomes[ReferenceRun], outcomes[_Run]):
        assert got == expected
    pops = [pop for *_, logs in outcomes[_Run] for log, _ in logs for pop in log]
    assert len(pops) > 1000 and sum(pop[3] is True for pop in pops) > 100
    assert sum(bool(budget) for *_, logs in outcomes[_Run] for _, budget in logs) >= 5
    assert {("complete", False), ("complete", True), ("budget_exhausted", True)} <= modes
    assert stale["after an own pair"] > 0 and stale["lists"] > stale["after an own pair"]
    assert stale["decided by a new element"] > 0


_ORDERS = [(shift, symbol) for shift in (LEX, DEGLEX, DEGREVLEX)
           for symbol in (LEX, DEGLEX, DEGREVLEX)]
_ORDERED_SEEDS = (*range(15), 31)


def _ordered_computations(shift_order, symbol_order):
    """Completions under one shift x symbol order: grow.dgb's generator cut
    by three pair budgets, the first stopping inside a group, the hand-built
    set of
    test_grouped_queue_matches_the_per_pair_reference, and _seeded_run
    over _ORDERED_SEEDS: seeds 0-14 take each of the five modes three times,
    and seed 31 pops a pair whose group's basis grew at the group's
    previous pair.
    """
    spec = OrderingSpec(shift_order, None, symbol_order, None)
    ring = make_ring(1, ("x",), spec=spec)
    grow = parse_polynomial(ring, "x(0)*x(2) - x(1)^2")
    hand_built = [parse_polynomial(ring, text) for text in
                  ("3*x(2)^2", "x(2)*x(1)^2*x(0)^2 + x(2)*x(0)", "-1/2*x(1)^2*x(0) - 2*x(1)")]
    computations = [lambda budget=budget: sigma_gbasis([grow], max_pair_budget=budget)
                    for budget in (8, 40, 150)]
    computations.append(lambda: sigma_gbasis(hand_built, max_pair_budget=150))
    computations += [lambda seed=seed: _seeded_run(seed, 150, _PINNED_MODES,
                                                   (shift_order, symbol_order))[2]
                     for seed in _ORDERED_SEEDS]
    return computations


def test_queue_of_bare_keys_matches_the_reference_under_every_order(monkeypatch):
    # Differential gate for the queue of bare keys (see _Run and
    # Ordering.queue_key) over all nine shift x symbol orders, where
    # _seeded_run draws the symbol order at random: per order, _Run and
    # ReferenceRun pop the same pairs in the same order with the same chain
    # decisions, run out of budget at the same pair and return the same
    # basis.  Every order pops lone pairs and pairs of groups of two or
    # more; the runs meet a group whose reducer grew between two of its
    # queries (also where an element added in between decides), and
    # budget stops inside a group that still holds ids.
    stale = {"lists": 0, "after an own pair": 0, "decided by a new element": 0}
    sources = {}  # order -> {"lone": pops, "group": pops}
    stops = {"lone": 0, "group": 0, "inside a group": 0}
    for order in _ORDERS:
        outcomes = {}
        counts = sources[order] = {"lone": 0, "group": 0}
        for run_class in (ReferenceRun, _Run):
            outcomes[run_class] = []
            for compute in _ordered_computations(*order):
                with monkeypatch.context() as patch:
                    runs = _logged_runs(patch, run_class, stale)
                    basis = compute()
                outcomes[run_class].append(
                    (str(basis.status), tuple(basis.stats.as_dict().values()),
                     [str(g) for g in basis], [_pops_and_budget_pair(run) for run in runs]))
                if run_class is not _Run:
                    continue
                for run in runs:
                    for source in run.sources:
                        counts["lone" if source is None else "group"] += 1
                    if len(run.pops) > run.options.max_pair_budget:
                        last = run.sources[-1]
                        stops["lone" if last is None else "group"] += 1
                        stops["inside a group"] += last is not None and len(last) > 0
        assert outcomes[_Run] == outcomes[ReferenceRun], order
    assert all(counts["lone"] > 0 and counts["group"] > 0 for counts in sources.values())
    assert stale["after an own pair"] > 0 and stale["decided by a new element"] > 0
    assert stops["lone"] > 0 and stops["inside a group"] > 0


def test_divisor_list_is_the_killer_first_search_over_its_size(monkeypatch):
    # Differential test for the divisor list of a chain query (see _Run):
    # before and after every chain query of the seeded completions, the
    # list read so far followed by the unread remainder of the search is
    # divisor_hits on the overlap over the reducer's first size elements,
    # in the killer-first order of the query that started the search; the
    # search yields one index's hits at a time, and the list ends between
    # two indices.  The list is the run's search slot, whose remainder is
    # read out for the check and put back as an iterator over the same
    # runs.  A query starts a search, trying the killers of its halves
    # first, exactly when the query before had another overlap or a smaller
    # reducer.  Every chain decision matches ReferenceRun, which makes a
    # fresh search per query, and the seeded runs meet lone queries that
    # stop early and that read to the end, lists read by a later query,
    # searches resumed after such a list and searches read to the end.
    skippable = _Run._chain_skippable
    divisor_runs = ReducerBasis.divisor_runs
    # each run keeps, for the check, started: (killer-first indices, size)
    # of its current search, and previous: (overlap factors, size) of its
    # previous query
    counts = {"queries": 0, "started": 0, "lone": 0, "lone stopped early": 0,
              "read a list": 0, "resumed": 0, "read to the end": 0}

    def killers_first(run, a, b):
        return tuple(dict.fromkeys(run.killer[n] for n in (a[0], b[0]) if n in run.killer))

    def check(run, factors, first, size, read, runs):
        overlap = Monomial(factors, run.reducer.ring.ordering)
        expected = [c for c in divisor_hits(run.reducer, overlap, first) if c[0] < size]
        assert read + [c for hits in runs for c in hits] == expected
        assert all(hits and {k for k, _ in hits} == {hits[0][0]} for hits in runs)
        assert not (read and runs) or runs[0][0][0] != read[-1][0]

    def check_search(run, factors):
        size, overlap, listed, rest = run.search
        assert overlap == factors
        runs = list(rest)
        run.search = size, overlap, listed, iter(runs)
        first, started = run.started
        assert size == started
        check(run, factors, first, size, listed, runs)
        return len(listed), len(runs)

    def checked(run, a, b, factors, group):
        counts["queries"] += 1
        size = len(run.reducer)
        previous = getattr(run, "previous", None)
        run.previous = factors, size
        fresh = previous is None or previous[0] != factors or previous[1] < size
        assert fresh or group is not None  # a lone pair's query is its overlap's only one
        before = 0
        if fresh:
            run.started = killers_first(run, a, b), size
        else:
            before, _ = check_search(run, factors)
            counts["read a list"] += before > 0
        searches = []

        def recorded(basis, factors, first=()):
            searches.append(first)
            return divisor_runs(basis, factors, first)

        with monkeypatch.context() as patch:
            patch.setattr(ReducerBasis, "divisor_runs", recorded)
            got = skippable(run, a, b, factors, group)
        # a search starts exactly at a fresh query, killers first
        assert searches == ([run.started[0]] if fresh else [])
        counts["started"] += fresh
        after, unread = check_search(run, factors)
        assert got or unread == 0  # no certifying divisor: the whole search was read
        counts["resumed"] += before > 0 and after > before
        counts["read to the end"] += unread == 0
        counts["lone"] += group is None
        counts["lone stopped early"] += group is None and unread > 0
        return got

    stale = {"lists": 0, "after an own pair": 0, "decided by a new element": 0}
    outcomes = {}
    for run_class in (ReferenceRun, _Run):
        outcomes[run_class] = []
        for seed in range(36):
            with monkeypatch.context() as patch:
                if run_class is _Run:
                    patch.setattr(_Run, "_chain_skippable", checked)
                runs = _logged_runs(patch, run_class, stale)
                _seeded_run(seed, budget=150, modes=_PINNED_MODES)
            outcomes[run_class].append([_pops_and_budget_pair(run) for run in runs])
    assert outcomes[_Run] == outcomes[ReferenceRun]
    decisions = [pop[3] for logs in outcomes[_Run] for log, _ in logs for pop in log]
    assert decisions.count(True) > 100 and decisions.count(False) > 100
    assert counts["queries"] == decisions.count(True) + decisions.count(False)
    assert counts["read a list"] > 0 and counts["resumed"] > 0
    assert counts["read to the end"] > 0 and 0 < counts["lone"] < counts["queries"]
    assert counts["lone stopped early"] > 0 and counts["started"] < counts["queries"]


def _pinned_outcome(seed):
    """Status, pair counts and sha256 prefixes of the printed basis and of
    its interreduce for one seeded run over all five modes."""
    _, mode, basis = _seeded_run(seed, budget=150, modes=_PINNED_MODES)

    def digest(elements):
        text = "\n".join(str(g) for g in elements)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    stats = tuple(basis.stats.as_dict().values())
    return mode, str(basis.status), stats, digest(basis), digest(interreduce(basis))


PINNED_SEEDED_OUTCOMES = {
    0: ("plain", "budget_exhausted", (971, 0, 346, 93, 0, 39, 18, 1),
         "f3c57946cc19163e", "60534d20f0399ab0"),
    1: ("plain", "complete", (5, 0, 7, 3, 0, 2, 0, 1),
         "1292ff3319d5061b", "79048bcd765d2ead"),
    2: ("plain", "complete", (15, 0, 7, 10, 0, 2, 3, 1),
         "28f0a1d6785cb0a8", "68e66ec7572c82c8"),
    3: ("no-chain", "complete", (5, 0, 7, 0, 0, 5, 0, 1),
         "395800d10d33ffbb", "cb9315ba1abf90d7"),
    4: ("no-chain", "budget_exhausted", (211, 0, 325, 0, 0, 143, 7, 1),
         "e48dd75655e6d813", "e48dd75655e6d813"),
    5: ("no-chain", "complete", (3, 0, 5, 0, 0, 3, 0, 1),
         "3b67fef84c17c71f", "3b67fef84c17c71f"),
    6: ("truncated", "complete_up_to_order(1)", (1, 0, 2, 0, 0, 1, 0, 1),
         "4a0852fd38ee3720", "40c8b928ddcfeab8"),
    7: ("truncated", "complete_up_to_order(1)", (1, 0, 2, 0, 0, 1, 0, 1),
         "0676e63cfa351035", "078c1abecfa75b98"),
    8: ("truncated", "complete_up_to_order(2)", (4, 1, 6, 2, 0, 1, 1, 1),
         "5722a1625e09f76a", "53dc9b1e1c43e39c"),
    9: ("truncated", "complete_up_to_order(1)", (4, 0, 8, 2, 3, 1, 1, 1),
         "c993048272d14972", "76b0d6fa3e3fee9d"),
    10: ("adaptive", "complete", (3, 0, 4, 1, 0, 1, 1, 1),
         "7f0a4b2ab9ce4fd5", "7a3ae09c596fcf5b"),
    11: ("adaptive", "complete", (1, 0, 3, 0, 0, 1, 0, 1),
         "e40895232d3da898", "e40895232d3da898"),
    12: ("budget", "budget_exhausted", (23, 1, 17, 0, 0, 1, 2, 1),
         "e127af385dfd74d2", "e127af385dfd74d2"),
    13: ("budget", "complete", (3, 0, 5, 0, 0, 3, 0, 1),
         "35c91a2e25f74e39", "35c91a2e25f74e39"),
    14: ("budget", "budget_exhausted", (12, 0, 12, 1, 0, 1, 1, 1),
         "d88a14a09b221b95", "b85100541b306c8a"),
    15: ("plain", "complete", (3, 0, 4, 2, 0, 1, 0, 1),
         "e0d304e4fb5f3d82", "ad82c13732ef0fcb"),
    16: ("plain", "budget_exhausted", (817, 0, 417, 70, 0, 63, 17, 1),
         "793f44b052d18b8c", "225f675499111a6e"),
    17: ("plain", "budget_exhausted", (639, 0, 616, 88, 0, 51, 11, 1),
         "890f744970d7e4d2", "f47a8a3c0166daa7"),
    18: ("no-chain", "complete", (3, 0, 4, 0, 0, 3, 0, 1),
         "f9e2cbddc321ceb1", "b64a243787a6eb02"),
    19: ("no-chain", "complete", (5, 0, 7, 0, 0, 5, 0, 1),
         "cbb629853d9bb941", "81d77f970d776168"),
    20: ("no-chain", "complete", (3, 0, 5, 0, 0, 3, 0, 1),
         "3719d02c2477bdc3", "3719d02c2477bdc3"),
    21: ("truncated", "complete_up_to_order(1)", (5, 0, 16, 2, 12, 1, 2, 1),
         "b9b8c24ed05b6a32", "b9b8c24ed05b6a32"),
    22: ("truncated", "complete_up_to_order(2)", (6, 0, 5, 4, 0, 1, 1, 1),
         "330f2fe114fbe6b7", "95c91989633f8958"),
    23: ("truncated", "budget_exhausted", (260, 0, 80, 89, 146, 49, 12, 1),
         "a0a1addf8ba6c400", "9bbea230d1840c68"),
    24: ("truncated", "complete_up_to_order(3)", (3, 0, 4, 2, 0, 1, 0, 1),
         "41d7eaabbec50a11", "078c1abecfa75b98"),
    25: ("adaptive", "complete", (184, 0, 278, 96, 112, 84, 4, 2),
         "3ad0d9b4812b852b", "1049093a884f7be0"),
    26: ("adaptive", "complete", (3, 0, 4, 1, 0, 2, 0, 1),
         "72c4b9abf8d3c6d4", "72c4b9abf8d3c6d4"),
    27: ("budget", "budget_exhausted", (4, 1, 6, 2, 0, 0, 1, 1),
         "7390c87e3fdc8ec2", "1bd9d5b5cdd128c1"),
    28: ("budget", "complete", (1, 0, 2, 0, 0, 1, 0, 1),
         "2b29a9fa8d76f5f5", "5c4ef5aef0b67858"),
    29: ("budget", "budget_exhausted", (10, 0, 7, 0, 0, 2, 1, 1),
         "5a83b0bed68de33b", "5a83b0bed68de33b"),
    30: ("plain", "complete", (1, 0, 2, 0, 0, 1, 0, 1),
         "d12cbcea4118bf03", "0fd9f84dc43a3453"),
    31: ("plain", "complete", (25, 0, 14, 19, 0, 3, 3, 1),
         "b0b9807e15c24c3b", "ad82c13732ef0fcb"),
    32: ("plain", "complete", (3, 0, 4, 2, 0, 1, 0, 1),
         "3644473a9beb4b02", "5c4ef5aef0b67858"),
    33: ("no-chain", "complete", (9, 0, 8, 0, 0, 8, 1, 1),
         "aec730ad207b1171", "d33c0c83f310c3c3"),
    34: ("no-chain", "complete", (1, 0, 2, 0, 0, 1, 0, 1),
         "b77bff5d586320c2", "0fd9f84dc43a3453"),
    35: ("no-chain", "complete", (77, 0, 19, 0, 0, 71, 6, 1),
         "9aa23f8967eb24ba", "9aa23f8967eb24ba"),
    36: ("truncated", "complete_up_to_order(1)", (16, 0, 12, 7, 11, 6, 3, 1),
         "c5e4ecc977abadf1", "078c1abecfa75b98"),
    37: ("truncated", "complete_up_to_order(1)", (2, 0, 4, 1, 1, 1, 0, 1),
         "91ad3be6050ba4bd", "ad82c13732ef0fcb"),
    38: ("truncated", "complete_up_to_order(2)", (6, 0, 7, 3, 0, 2, 1, 1),
         "4c3dc14728d06cdf", "af8a12af9ea07c97"),
    39: ("truncated", "complete_up_to_order(3)", (1, 0, 3, 0, 0, 1, 0, 1),
         "2518b2d26dc2c132", "7a3ae09c596fcf5b"),
    40: ("adaptive", "budget_exhausted", (158, 0, 117, 92, 618, 43, 15, 1),
         "7ce1b426f93bc091", "b25dbe94eb15411e"),
    41: ("adaptive", "budget_exhausted", (254, 0, 66, 56, 50, 165, 11, 3),
         "c1cca2bdcf719b80", "c1cca2bdcf719b80"),
    42: ("budget", "budget_exhausted", (6, 0, 5, 1, 0, 1, 1, 1),
         "4611637ea399099a", "ad82c13732ef0fcb"),
    43: ("budget", "complete", (1, 1, 4, 0, 0, 1, 0, 1),
         "dbfedf3ca63012a9", "dbfedf3ca63012a9"),
    44: ("budget", "budget_exhausted", (21, 0, 10, 1, 0, 0, 2, 1),
         "002e801431002ec7", "44e91eab77f9c908"),
}


def test_seeded_completions_match_pinned_outcomes():
    # recorded before the reduction core kept one element list and one
    # divisor loop; every basis, status and pair count must stay the same
    for seed, expected in PINNED_SEEDED_OUTCOMES.items():
        assert _pinned_outcome(seed) == expected, seed
    modes = {(mode, status) for mode, status, *_ in PINNED_SEEDED_OUTCOMES.values()}
    assert {mode for mode, _ in modes} == set(_PINNED_MODES)
    assert ("plain", "budget_exhausted") in modes and ("adaptive", "complete") in modes


def test_ordering_holds_no_growing_state():
    # keys are computed from the packed factors each time: nothing in a
    # ring's ordering is a container a completion run could fill
    ring = make_ring(2, ("x", "y"), spec=OrderingSpec(DEGLEX, None, DEGREVLEX, None))
    ordering = ring.ordering
    slots = {name: getattr(ordering, name) for name in type(ordering).__slots__}
    assert not any(isinstance(v, (dict, list, set, bytearray)) for v in slots.values())
    gens = [parse_polynomial(ring, "x(1,0)*y(0,1) - x(0,0)^2"),
            parse_polynomial(ring, "y(1,1) - x(0,1)*y(0,0)")]
    basis = sigma_gbasis(gens, max_pair_budget=300)
    assert basis.stats.generated > 10
    assert {name: getattr(ordering, name) for name in slots} == slots


@pytest.mark.parametrize("budget, stats, elements, digest", [
    (54, PairStats(generated=310, killed_sigma=101, killed_chain=31, killed_truncation=132,
                   reduced_to_zero=6, new_elements=17), 19,
     "7e7236b5ed1769049f90ce6afe95cd675c07e5187991ffdf157687377e169337"),
    (58, PairStats(generated=444, killed_sigma=105, killed_chain=31, killed_truncation=132,
                   reduced_to_zero=6, new_elements=21), 23,
     "e8bfcd8d28ba65ccb8151e1e3bdcd5007216ec201ea5efea15705a4e51b58407"),
], ids=["54", "58"])
def test_parameter_coefficient_swell_case_is_pinned(budget, stats, elements, digest):
    # Q(H) coefficients with non-constant denominators: each further pair
    # of budget multiplies the cost (the swell case of ROADMAP item 3).
    # Budget 54 was recorded with the sympy-based field of earlier versions,
    # 58 with the GCDHEU field.
    problem = parse_problem((Path(__file__).parent / "data" / "qh_swell.dgb").read_text())
    ring = problem.ring
    assert ring == make_ring(1, ("x",), ("H",),
                             spec=OrderingSpec(DEGREVLEX, None, DEGREVLEX, None))
    assert problem.polynomials == [
        parse_polynomial(ring, "x(1)^2*x(0)^3 - x(1)^2 + H*x(0)^3"),
        parse_polynomial(ring, "-x(2)*x(0)^4 + 3*x(1)^2")]
    basis = sigma_gbasis_truncated(problem.polynomials, 2, max_pair_budget=budget)
    assert str(basis.status) == "budget_exhausted"
    assert basis.stats == stats and len(basis.elements) == elements
    text = "\n".join(str(g) for g in basis)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert any(len(num_den(ring.field, c)[1]) > 1 for g in basis for _, c in g.terms)


def test_no_chain_case_with_long_remainders_is_pinned():
    # Without the chain test the completion meets one reduction whose
    # remainder grows to thousands of terms against reducers of about seven
    # terms, so it measures what a reduction step costs against a long
    # remainder.  The budget-116 run took about 50 s of CPU when each step
    # copied the remainder, and takes a few seconds with steps that cost
    # their reducer; the digest was recorded with the copying steps.
    ring = make_ring(1, ("x", "y", "z"), spec=OrderingSpec(DEGREVLEX, None, DEGLEX, None))
    G = [parse_polynomial(ring, text) for text in (
        "-x(1)^2 - 3*y(0)^2 + z(0)^2", "-1/3*y(1)^2*x(0) + 1/3*y(0)^4",
        "3*x(1)^3 + y(1)^3*x(0)^2 - 2*y(0)^2")]
    basis = sigma_gbasis(G, max_pair_budget=116, use_chain_criterion=False)
    assert str(basis.status) == "budget_exhausted"
    assert basis.stats == PairStats(generated=327, killed_product=14, killed_sigma=171,
                                    reduced_to_zero=100, new_elements=16)
    assert len(basis.elements) == 19
    text = "\n".join(str(g) for g in basis)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3b1d7e90b023f53c49fa2578dbaab3ca420eb8970bc0422a98a5320e5825cf7d"


# --- truncation ---------------------------------------------------------------


def test_truncated_below_min_order_is_empty():
    ring = R1()
    f = x(ring, 2) * x(ring, 1) - x(ring, 1, 2)  # order 2, homogeneous
    basis = sigma_gbasis_truncated([f], 1)
    assert basis.elements == ()
    assert str(basis.status) == "complete_up_to_order(1)"


def test_truncated_rejects_negative():
    ring = R1()
    with pytest.raises(ValueError):
        sigma_gbasis_truncated([x(ring, 0)], -1)


def test_truncated_terminates_and_bounds_orders():
    ring = make_ring(2, ("x",))
    f = ring.var("x", (1, 0)) * ring.var("x", (0, 0)) - ring.var("x", (0, 1), 2)
    basis = sigma_gbasis_truncated([f], 2)
    assert str(basis.status) == "complete_up_to_order(2)"
    assert all(g.lm.order <= 2 for g in basis)


def _sigma_side_minimal_lms(basis, d):
    """Shift-expand the truncated basis leading monomials up to order d and
    minimalize classically."""
    ring = basis.ring
    monos = set()
    for g in basis:
        base = g.lm.order
        for s in enumerate_up_to_degree(d - base, ring.signature.shift_rank):
            monos.add(mono_to_oracle(g.lm.shift(s)))
    key = oracle_key(ring)
    minimal = []
    for m in sorted(monos, key=key):
        if not any(classical.m_divides(h, m) for h in minimal):
            minimal.append(m)
    return set(minimal)


def _oracle_side_minimal_lms(ring, gens, d):
    expanded = []
    for f in gens:
        base = f.order
        for s in enumerate_up_to_degree(d - base, ring.signature.shift_rank):
            expanded.append(to_oracle(f.shift(s)))
    if not expanded:
        return set()
    return set(classical.minimal_leading_monomials(expanded, oracle_key(ring)))


def _random_homogeneous_setup(seed):
    rng = random.Random(seed)
    rank = rng.choice([1, 2])
    symbols = ("x", "y")[: rng.choice([1, 2])]
    sp = list(range(rank))
    rng.shuffle(sp)
    yp = list(range(len(symbols)))
    rng.shuffle(yp)
    spec = OrderingSpec(rng.choice([DEGLEX, DEGREVLEX]), tuple(sp),
                        rng.choice([LEX, DEGLEX, DEGREVLEX]), tuple(yp))
    ring = make_ring(rank, symbols, spec=spec)
    gens = []
    for _ in range(rng.randint(1, 2)):
        ordv = rng.randint(0, 2)
        gens.append(random_polynomial(rng, ring, max_terms=2, order_exact=ordv,
                                      max_factors=2, max_exp=2))
    d = rng.randint(0, 4)
    return ring, [g for g in gens if g], d


@pytest.mark.parametrize("seed", range(8))
def test_truncation_matches_classical_oracle(seed):
    ring, gens, d = _random_homogeneous_setup(seed)
    assert all(is_order_homogeneous(g) for g in gens)
    basis = sigma_gbasis_truncated(gens, d)
    left = _sigma_side_minimal_lms(basis, d)
    right = _oracle_side_minimal_lms(ring, [g for g in gens if g.order <= d], d)
    assert left == right


# --- adaptive -----------------------------------------------------------------


def test_adaptive_single_binomial():
    ring = R1()
    basis = sigma_gbasis_adaptive([x(ring, 1) * x(ring, 0)])
    assert basis.status.kind == "complete"
    assert list(basis) == [x(ring, 1) * x(ring, 0)]


def test_adaptive_linear_family_one_sweep():
    ring = make_ring(2, ("x",))
    f11 = ring.var("x", (2, 0)) - ring.var("x", (0, 0))
    f12 = ring.var("x", (0, 1)) - ring.var("x", (0, 0))
    basis = sigma_gbasis_adaptive([f11, f12])
    assert basis.status.kind == "complete"
    assert set(basis.elements) == {f11, f12}
    assert basis.stats.new_elements == 0


def test_adaptive_requires_order_compatible():
    ring = make_ring(1, ("x",), spec=OrderingSpec(LEX, None, LEX, None))
    with pytest.raises(ValueError):
        sigma_gbasis_adaptive([x(ring, 1) - x(ring, 0)])


def test_adaptive_order_cap():
    ring = R1()
    f = x(ring, 0) * x(ring, 2) - x(ring, 1, 2)
    basis = sigma_gbasis_adaptive([f], max_order_cap=3)
    assert basis.status.kind == "budget_exhausted"
    for cap in (0, -1):
        with pytest.raises(ValueError, match="budget caps must be positive"):
            sigma_gbasis_adaptive([f], max_order_cap=cap)


def test_order_cap_is_a_keyword_of_the_adaptive_driver_only():
    ring = R1()
    f = x(ring, 1) - x(ring, 0)
    with pytest.raises(TypeError, match="max_order_cap"):
        sigma_gbasis([f], max_order_cap=3)
    with pytest.raises(TypeError, match="max_order_cap"):
        sigma_gbasis_truncated([f], 2, max_order_cap=3)
    action = PermutationAction("(1 2 3)")
    with pytest.raises(TypeError, match="max_order_cap"):
        groebner_gamma_basis(action, [action.ring.var("x", (0,))], max_order_cap=3)


def test_limits_are_passed_as_keywords_only():
    ring = R1()
    f = x(ring, 1) - x(ring, 0)
    for run in (lambda o: sigma_gbasis([f], o),
                lambda o: sigma_gbasis_truncated([f], 2, o),
                lambda o: sigma_gbasis_adaptive([f], o)):
        with pytest.raises(TypeError):
            run(CompletionOptions())
    assert sigma_gbasis([f], max_pair_budget=5, use_chain_criterion=False).status.kind \
        == "complete"
    with pytest.raises(ValueError, match="budget caps must be positive"):
        sigma_gbasis([f], max_pair_budget=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        CompletionOptions().max_pair_budget = 1


def test_chain_queries_of_one_group_share_a_search(monkeypatch):
    # Probe traffic of cycle5's groebner_gamma_basis: consecutive chain
    # queries of one group at one basis size read one divisor list (see
    # _Run), so the run makes 459 divisor_runs chain searches beside 269
    # find_divisor probes of reduction, and 1,520 _shifts_into probes over
    # both.  A fresh search per query makes 611 chain searches and 1,723
    # _shifts_into probes.
    problem = parse_problem((Path(__file__).parent / "data/cli/cycle5.dgb").read_text())
    action = PermutationAction(problem.permutation, problem.ring)
    counts = {"divisor_runs": 0, "find_divisor": 0, "_shifts_into": 0}

    def counted(name):
        method = getattr(ReducerBasis, name)

        def call(*args):
            counts[name] += 1
            return method(*args)
        return call

    for name in counts:
        monkeypatch.setattr(ReducerBasis, name, counted(name))
    basis = groebner_gamma_basis(action, problem.polynomials)
    assert basis.stats == PairStats(generated=611, killed_sigma=106, killed_chain=499,
                                    reduced_to_zero=92, new_elements=20)
    assert counts == {"divisor_runs": 459, "find_divisor": 269, "_shifts_into": 1520}


@pytest.mark.parametrize("killer, first", [
    ({}, ()), ({0: 1}, (1,)), ({1: 0}, (0,)), ({0: 1, 1: 0}, (1, 0)),
    ({0: 1, 1: 1}, (1,)), ({0: 0, 1: 0}, (0,))])
def test_chain_query_tries_the_killers_of_both_halves_first(monkeypatch, killer, first):
    # a query that starts a search tries the killers of its two halves first,
    # each once, the left one first, even when both halves share a killer;
    # the decision does not depend on them
    ring = R1()
    G = [x(ring, 0) * x(ring, 2) - x(ring, 1, 2), x(ring, 0) * x(ring, 3) - x(ring, 1) * x(ring, 2)]
    run = _Run([g.monic() for g in G], CompletionOptions(), None, PairStats())
    for j in range(2):
        for i in range(j + 1):
            run._push_pairs(i, j)
    def first_pair(overlap):
        return _decoded(run, _ids(run.waiting[overlap])[0])

    overlap = next(f for f in map(ring.ordering.queue_factors, sorted(run.queue))
                   if first_pair(f)[0] != first_pair(f)[2])
    group = run.waiting[overlap]
    if isinstance(group, int):  # take it, as run does
        pair, group = group, None
    else:
        pair = group.pop(0)
    i, sigma, j, tau = _decoded(run, pair)
    a, b = (i, sigma), (j, tau)
    assert (i, j) == (0, 1)
    searches = []
    divisor_runs = ReducerBasis.divisor_runs

    def recorded(basis, factors, first=()):
        searches.append(first)
        return divisor_runs(basis, factors, first)

    monkeypatch.setattr(ReducerBasis, "divisor_runs", recorded)
    run.killer = dict(killer)
    got = run._chain_skippable(a, b, overlap, group)
    assert searches == [first]
    overlap = Monomial(overlap, ring.ordering)
    assert got == any(c not in (a, b) and not _waits(run, group, a, c)
                      and not _waits(run, group, c, b)
                      for c in divisor_hits(run.reducer, overlap))


# --- verification --------------------------------------------------------------


def test_verify_accepts_complete_basis():
    ring = R1()
    basis = sigma_gbasis([x(ring, 1, 2) - x(ring, 0), x(ring, 1) * x(ring, 0) - x(ring, 0)])
    assert basis.status.kind == "complete"
    assert verify_sigma_gbasis(basis.elements).ok


def test_verify_rejects_with_witness():
    ring = R1()
    g1 = x(ring, 1, 2) - x(ring, 0)
    g2 = x(ring, 1) * x(ring, 0) - x(ring, 0)
    report = verify_sigma_gbasis([g1, g2])
    assert not report.ok
    remainders = {str(r.monic()) for *_ignore, r in report.failures}
    assert "x(0)^2 - x(0)" in remainders


def test_verify_unit_and_empty_bases_check_no_pair():
    ring = R1()
    for elements in ([ring.one], [ring.constant(3), x(ring, 1) - x(ring, 0)], []):
        report = verify_sigma_gbasis(elements)
        assert (report.ok, report.failures, report.checked_pairs) == (True, [], 0)


def test_verify_single_variable():
    ring = make_ring(2, ("x",))
    assert verify_sigma_gbasis([ring.var("x", (0, 0))]).ok


def test_verify_requires_order_compatible():
    ring = make_ring(1, ("x",), spec=OrderingSpec(LEX, None, LEX, None))
    with pytest.raises(ValueError):
        verify_sigma_gbasis([x(ring, 1) - x(ring, 0)])


def test_verify_matches_completion_status():
    rng = random.Random(77)
    ring = make_ring(1, ("x", "y"))
    for _ in range(8):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1)
                for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        basis = sigma_gbasis(gens, max_pair_budget=3000)
        if basis.status.kind == "complete" and basis.elements:
            assert verify_sigma_gbasis(basis.elements).ok


# --- membership -----------------------------------------------------------------


def test_membership_table_direct():
    ring = make_ring(2, ("x",))
    gens = [ring.var("x", (2, 0)), ring.var("x", (0, 3))]
    assert pure_power_table(ring, [g.lm for g in gens]) == [[2, 3]]


def test_membership_incomplete_is_none():
    ring = make_ring(2, ("x",))
    gens = [ring.var("x", (1, 0))]
    assert normal_variables(ring, [g.lm for g in gens]) is None
    assert pure_power_table(ring, [g.lm for g in gens]) == [[1, None]]


def test_membership_ignores_mixed_shifts_and_powers():
    ring = make_ring(2, ("x",))
    mixed = ring.var("x", (1, 1))           # not a pure power
    cube = ring.var("x", (3, 0))            # pure power, d=3
    square = ring.var("x", (1, 0), 2)       # exponent 2: not a variable
    assert pure_power_table(ring, [g.lm for g in (mixed, cube, square)]) == [[3, None]]


def test_membership_identity_covers_all_directions():
    ring = make_ring(3, ("x", "y"))
    gens = [ring.var("x", (0, 0, 0))]
    assert pure_power_table(ring, [g.lm for g in gens]) == [[0, 0, 0], [None, None, None]]


def test_membership_predicts_adaptive_termination():
    ring = make_ring(1, ("x",))
    f = x(ring, 2) - x(ring, 0) * x(ring, 1)
    g = x(ring, 0, 3) - x(ring, 1)
    basis = sigma_gbasis([f, g], max_pair_budget=20000)
    if normal_variables(ring, [g.lm for g in basis.elements]) is not None:
        adaptive = sigma_gbasis_adaptive([f, g], max_pair_budget=50000)
        assert adaptive.status.kind == "complete"


# --- minimalize / interreduce -----------------------------------------------------


def test_minimalize_drops_shift_multiples():
    ring = R1()
    basis = minimalize([x(ring, 0), x(ring, 1) * x(ring, 0)])
    assert basis == [x(ring, 0)]


def test_minimalize_keeps_linear_family():
    ring = make_ring(2, ("x",))
    f11 = ring.var("x", (2, 0)) - ring.var("x", (0, 0))
    f12 = ring.var("x", (0, 1)) - ring.var("x", (0, 0))
    assert set(minimalize([f11, f12])) == {f11, f12}


def test_minimalize_and_interreduce_drop_zeros():
    ring = R1()
    zero = ring.zero
    assert minimalize([zero]) == []
    assert minimalize([zero, x(ring, 1)]) == [x(ring, 1)]
    assert interreduce([zero, x(ring, 1)]) == interreduce([x(ring, 1)])


def test_minimalize_idempotent():
    rng = random.Random(5)
    ring = R1()
    gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=2) for _ in range(4)]
    basis = sigma_gbasis([g for g in gens if g], max_pair_budget=2000)
    once = minimalize(list(basis.elements))
    assert minimalize(once) == once


def test_interreduce_self_reduced():
    ring = R1()
    basis = sigma_gbasis([x(ring, 1, 2) - x(ring, 0), x(ring, 1) * x(ring, 0) - x(ring, 0)])
    reduced = interreduce(basis)
    for i, g in enumerate(reduced.elements):
        others = [h for j, h in enumerate(reduced.elements) if j != i]
        assert reduce_full(g, others) == g
        assert g.lc == ring.field.one


def test_interreduce_idempotent_and_canonical():
    # the reduced basis is unique: generator order must not matter
    rng = random.Random(123)
    ring = make_ring(1, ("x", "y"))
    for _ in range(6):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1,
                                  max_factors=2)
                for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        forward = sigma_gbasis(gens, max_pair_budget=300)
        backward = sigma_gbasis(list(reversed(gens)), max_pair_budget=300)
        if forward.status.kind != "complete" or backward.status.kind != "complete":
            continue
        a = interreduce(forward)
        b = interreduce(backward)
        assert set(a.elements) == set(b.elements)
        again = interreduce(a)
        assert set(again.elements) == set(a.elements)


def _reference_interreduce(basis):
    """Minimalize, then tail-reduce every survivor against all the others
    until nothing changes: the fixpoint loop that interreduce replaces."""
    elements = _minimalize_elements(basis)
    changed = True
    while changed:
        changed = False
        for idx in range(len(elements)):
            new = reduce_full(elements[idx], elements[:idx] + elements[idx + 1:])
            if new != elements[idx]:
                elements[idx] = new
                changed = True
    return sorted(elements, key=lambda g: g.ring.ordering.monomial_key(g.lm.factors))


def test_interreduce_matches_fixpoint_reference():
    from dgb.cli import parse_problem

    kinds = set()
    for seed in range(36):
        gens, _, basis = _seeded_run(seed, budget=150)
        kinds.add(basis.status.kind)
        assert list(interreduce(basis).elements) == _reference_interreduce(basis)
        if gens:
            assert interreduce(gens) == _reference_interreduce(gens)
    assert kinds == {"complete", "complete_up_to_order", "budget_exhausted"}
    text = (Path(__file__).parent / "data" / "navier_stokes.dgb").read_text()
    flow = sigma_gbasis_adaptive(parse_problem(text).polynomials)
    assert list(interreduce(flow).elements) == _reference_interreduce(flow)


def test_adaptive_agrees_with_plain_when_both_complete():
    rng = random.Random(321)
    ring = make_ring(2, ("x",))
    for _ in range(6):
        gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1)
                for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        plain = sigma_gbasis(gens, max_pair_budget=300)
        if plain.status.kind != "complete":
            continue
        adaptive = sigma_gbasis_adaptive(gens, max_pair_budget=300, max_order_cap=16)
        if adaptive.status.kind != "complete":
            continue
        assert set(interreduce(plain).elements) == set(interreduce(adaptive).elements)


# --- one pipeline for plain, truncated and adaptive completion ------------------


DRIVERS = [
    pytest.param(sigma_gbasis, "complete", id="plain"),
    pytest.param(lambda gens: sigma_gbasis_truncated(gens, 2), "complete_up_to_order",
                 id="truncated"),
    pytest.param(sigma_gbasis_adaptive, "complete", id="adaptive"),
]


@pytest.mark.parametrize("driver,kind", DRIVERS)
def test_zero_input_keeps_its_ring(driver, kind):
    ring = R1()
    basis = driver([ring.zero])
    assert basis.elements == ()
    assert basis.ring is ring
    assert basis.status.kind == kind


@pytest.mark.parametrize("driver,kind", DRIVERS)
def test_unit_generator_gives_one_without_pairs(driver, kind):
    ring = R1()
    basis = driver([x(ring, 0) * x(ring, 2) - x(ring, 1, 2), ring.constant(3)])
    assert basis.elements == (ring.one,)
    assert basis.status.kind == kind
    counts = basis.stats.as_dict()
    del counts["sweeps"]
    assert set(counts.values()) == {0}


@pytest.mark.parametrize("driver,kind", DRIVERS)
def test_mixed_rings_are_rejected(driver, kind):
    ring, other = R1(), make_ring(1, ("y",))
    f = x(ring, 1) - x(ring, 0)
    for gens in ([f, other.var("y", (0,))], [f, other.zero],
                 [f, other.var("y", (5,))]):  # above the truncation bound
        with pytest.raises(RingMismatchError):
            driver(gens)
        with pytest.raises(RingMismatchError):
            verify_sigma_gbasis(gens)


@pytest.mark.parametrize("seed,cap,kind,stats", [
    (9, 8, "complete", PairStats(generated=390, killed_sigma=286, killed_chain=218,
                                 killed_truncation=37, reduced_to_zero=164,
                                 new_elements=8, sweeps=3)),
    (25, 8, "complete", PairStats(generated=356, killed_sigma=120, killed_chain=250,
                                  killed_truncation=76, reduced_to_zero=99,
                                  new_elements=7, sweeps=3)),
    (25, 2, "budget_exhausted", PairStats(generated=42, killed_sigma=34,
                                          killed_chain=19, killed_truncation=70,
                                          reduced_to_zero=17, new_elements=6,
                                          sweeps=1)),
])
def test_adaptive_sweeps_share_one_stats(seed, cap, kind, stats):
    rng = random.Random(seed)
    ring = make_ring(rng.choice([1, 2]), ("x", "y")[:rng.choice([1, 2])])
    gens = [random_polynomial(rng, ring, max_terms=2, max_shift_deg=1) for _ in range(2)]
    gens = [g for g in gens if g]
    basis = sigma_gbasis_adaptive(gens, max_pair_budget=300, max_order_cap=cap)
    assert basis.status.kind == kind
    assert basis.stats == stats


def test_stats_count_queued_pairs_and_drops_before_the_queue():
    # The documented reading of PairStats (README, docs/run_report.schema.json):
    # generated counts queued pairs; killed_chain, reduced_to_zero and
    # new_elements count pairs taken from the queue, so they sum to at most
    # generated, and to exactly generated when every run emptied its queue,
    # as in a complete run that found no unit; killed_product, killed_sigma
    # and killed_truncation count what never reached the queue.
    emptied = cut = 0
    for seed in range(36):
        basis = _seeded_run(seed, budget=150, modes=_PINNED_MODES)[2]
        s = basis.stats
        taken = s.killed_chain + s.reduced_to_zero + s.new_elements
        assert taken <= s.generated
        if basis.status.kind != "budget_exhausted" and [str(g) for g in basis] != ["1"]:
            assert taken == s.generated
            emptied += 1
        cut += taken < s.generated
    assert emptied > 20 and cut > 0


def test_pair_queue_memory_per_generated_pair():
    # Memory regression gate for the pair queue (see completion._Run): the
    # generator of grow.dgb at pair budget 1,000 queues 3,185 pairs and
    # leaves most of them waiting.  Its traced peak was 796 kB, 250 B per
    # generated pair (415 B before one key per overlap, an inline first id
    # and packed pair ids); the bound is that plus 25%, so one more
    # container per pair fails it.  The peak depends on when cyclic garbage
    # is collected, so the run starts from a collected heap.
    ring = R1()
    g = x(ring, 0) * x(ring, 2) - x(ring, 1, 2)
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        basis = sigma_gbasis([g], max_pair_budget=1000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert basis.status.kind == "budget_exhausted"
    assert basis.stats == PairStats(generated=3185, killed_sigma=805, killed_chain=827,
                                    reduced_to_zero=140, new_elements=33)
    assert peak / basis.stats.generated < 250 * 1.25


def test_pair_queue_memory_of_bare_keys():
    # Memory regression gate for the queue of bare keys (see
    # completion._Run), on the run of the gate above: 164 B per generated
    # pair traced on Python 3.11-3.13 and 170 B on 3.10.  The bound is
    # 165 B plus 25%, so a group object for every lone pair (232 B) fails
    # it.  tests/queue_memory.py runs both gates without pytest.
    basis, per_pair = traced_bytes_per_pair()
    assert basis.status.kind == "budget_exhausted" and basis.stats == QUEUE_STATS
    assert per_pair < GATES["test_pair_queue_memory_of_bare_keys"] * SLACK
