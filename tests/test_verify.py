"""The verify suites themselves: all green on a healthy build, and a broken
function must be caught by the check that owns the property."""

from collections import Counter

import pytest

from pardiff import counting, engine, oracle, orientations, pathcount, verify
from pardiff.errors import CeilingError, DomainError

SMALL = verify.VerifyConfig(
    max_n_oracle=5,
    max_n_witness=8,
    max_n_routes=9,
    max_n_structure=8,
)


def test_all_suites_pass():
    results = verify.run_suites(SMALL)
    failures = [f"{r.suite}.{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, failures


def test_suite_filter():
    results = verify.run_suites(SMALL, suites=["orientation"])
    assert results
    assert {r.suite for r in results} == {"orientation"}


@pytest.mark.parametrize("suites", ["nonsense", "graph,graph"])
def test_unknown_suite_rejected(suites):
    with pytest.raises(ValueError):
        verify.run_suites(SMALL, suites=suites.split(","))


def test_injected_fault_is_named(monkeypatch):
    monkeypatch.setattr(counting, "alternating_count", lambda n: 7)
    results = verify.run_suites(SMALL, suites=["counting"])
    failed = {r.name for r in results if not r.passed}
    assert "alternating-sequence" in failed
    details = {r.name: r.detail for r in results if not r.passed}
    assert details["alternating-sequence"]


def test_injected_engine_fault_is_named(monkeypatch):
    from pardiff import engine

    real = engine.fire_step
    monkeypatch.setattr(
        engine, "fire_step", lambda graph, c: real(graph, real(graph, c))
    )
    results = verify.run_suites(SMALL, suites=["engine"])
    failed = {r.name for r in results if not r.passed}
    assert "period-reversal" in failed


def _moves_two_chips(stacks, edges):
    out = list(stacks)
    for u, w in edges:
        step = 2 if stacks[u] > stacks[w] else -2 if stacks[u] < stacks[w] else 0
        out[u] -= step
        out[w] += step
    return tuple(out)


@pytest.mark.parametrize(
    "name,fake,detail",
    [
        # still fire^2 = id on period-2 orbits, but a difference keeps its sign
        ("fire_each", lambda graph, batch: [s[::-1] for s in batch], "difference "),
        # differences still reverse, but grow past deg(u) + deg(v) - 1;
        # no other engine check notices
        ("_fire_raw", _moves_two_chips, "|difference| "),
    ],
    ids=["mirrors-stacks", "moves-two-chips"],
)
def test_fake_firing_is_named_by_edge_reversal(monkeypatch, name, fake, detail):
    from pardiff import engine

    monkeypatch.setattr(engine, name, fake)
    results = verify.run_suites(SMALL, suites=["engine"])
    details = {r.name: r.detail for r in results if not r.passed}
    assert details["edge-reversal"].startswith(detail)


def _fires_twice(real):
    return lambda graph, batch: real(graph, real(graph, batch))


def _leaks_a_chip(real):
    return lambda graph, batch: [(*s[:-1], s[-1] + 1) for s in real(graph, batch)]


@pytest.mark.parametrize(
    "fault,named",
    [
        # two firings restore every member of a 2-cycle, so orbit-pairing,
        # which only asks that the partner be a member, rightly passes
        (_fires_twice, {"witness-valid"}),
        (_leaks_a_chip, {"witness-valid", "orbit-pairing"}),
    ],
)
def test_injected_batch_fault_is_named(monkeypatch, fault, named):
    from pardiff import engine

    # the path automaton's firing memo is filled through engine.fire_step,
    # which fires through fire_each, so keep the faulty answers out of the shared one
    monkeypatch.setattr(pathcount, "_ONE_FIRING", pathcount._OneFiring())
    monkeypatch.setattr(engine, "fire_each", fault(engine.fire_each))
    results = verify.run_suites(SMALL, suites=["orientation", "oracle"])
    details = {r.name: r.detail for r in results if not r.passed}
    assert named <= set(details)
    assert all(details[name] for name in named)


def test_default_run_builds_each_shared_input_once(monkeypatch):
    enumerated, tables = Counter(), Counter()
    real_enumerate, real_automaton = orientations.enumerate_p2_orientations, pathcount._path_automaton

    def spy_enumerate(n):
        enumerated[n] += 1
        return real_enumerate(n)

    def spy_automaton(diff_bound):
        tables[diff_bound] += 1
        return real_automaton(diff_bound)

    reports, real_reports = 0, verify._random_period_reports

    def spy_reports():
        nonlocal reports
        reports += 1
        return real_reports()

    # the oracle's listed stacks, by identity, and how often each was oriented
    listed, oriented = {}, Counter()
    real_list, real_orient = oracle.enumerate_p2_configurations, engine.orientation_of_stacks

    def spy_list(n):
        result = real_list(n)
        listed.update((id(c.stacks), c.stacks) for c in result.configurations)
        return result

    def spy_orient(stacks):
        if id(stacks) in listed:
            oriented[id(stacks)] += 1
        return real_orient(stacks)

    monkeypatch.setattr(orientations, "enumerate_p2_orientations", spy_enumerate)
    monkeypatch.setattr(pathcount, "_path_automaton", spy_automaton)
    monkeypatch.setattr(verify, "_random_period_reports", spy_reports)
    monkeypatch.setattr(oracle, "enumerate_p2_configurations", spy_list)
    monkeypatch.setattr(engine, "orientation_of_stacks", spy_orient)
    results = verify.run_suites()
    assert all(r.passed for r in results)
    assert enumerated and set(enumerated.values()) == {1}
    assert tables == {3: 1, 4: 1}
    assert reports == 1
    # each listed configuration is oriented once, into the tally both
    # realized-equals-enumerated and per-orientation-refinement read
    assert len(listed) == 6232 and oriented.keys() == listed.keys()
    assert set(oriented.values()) == {1}


def test_check_durations_are_recorded():
    results = verify.run_suites(SMALL, suites=["graph", "oracle"])
    assert all(r.seconds > 0 for r in results)


def _count_off_by_one_on_flats(monkeypatch):
    real = counting.count_configs_on_orientation
    monkeypatch.setattr(
        counting,
        "count_configs_on_orientation",
        lambda o: real(o) + ("F" in o),
    )


def _failed(results):
    return {r.name for r in results if not r.passed}


def test_memoized_count_fault_is_named(monkeypatch):
    _count_off_by_one_on_flats(monkeypatch)
    assert "severing-multiplicative" in _failed(verify.run_suites(SMALL, suites=["counting"]))


def test_memoized_legality_fault_is_named(monkeypatch):
    real = orientations.check_p2_orientation
    target = "RRL"  # illegal, and its mirror image RLL differs from it

    def wrong_on_target(o):
        violations = real(o)
        if o == target:
            return () if violations else ((orientations.RULE_ADJACENT_FLATS, (1, 2)),)
        return violations

    monkeypatch.setattr(orientations, "check_p2_orientation", wrong_on_target)
    assert "mirror-symmetry" in _failed(verify.run_suites(SMALL, suites=["orientation"]))


def test_fault_after_clean_run_is_caught(monkeypatch):
    assert not _failed(verify.run_suites(SMALL, suites=["counting", "oracle"]))
    _count_off_by_one_on_flats(monkeypatch)
    failed = _failed(verify.run_suites(SMALL, suites=["counting", "oracle"]))
    assert {"severing-multiplicative", "per-orientation-refinement"} <= failed


def test_duplicated_orientation_is_named(monkeypatch):
    real = orientations._LEGAL

    class DuplicateAt9:
        totals, words = real.totals, real.words

        def listings(self, length):
            for letters, (senses, weights) in enumerate(real.listings(length)):
                if letters == 8:
                    senses[-1] = senses[0]
                yield senses, weights

    monkeypatch.setattr(orientations, "_LEGAL", DuplicateAt9())
    results = verify.run_suites(SMALL, suites=["orientation"])
    details = {r.name: r.detail for r in results if not r.passed}
    assert details == {"count-matches-recurrence": "n=9: 1 orientations enumerated twice"}


def test_wrong_transfer_count_past_the_ceiling_is_named(monkeypatch):
    real = orientations._LEGAL

    class OneTooManyAt15:
        words, listings = real.words, real.listings

        def totals(self, length):
            for letters, total in enumerate(real.totals(length)):
                yield total + (letters == 14)

    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "9")
    monkeypatch.setattr(orientations, "_LEGAL", OneTooManyAt15())
    results = verify.run_suites(SMALL, suites=["orientation"])
    details = {r.name: r.detail for r in results if not r.passed}
    r_15 = orientations.count_p2_orientations_recurrence(15)
    assert details == {"count-matches-recurrence": f"n=15: transfer {r_15 + 1}, recurrence {r_15}"}


def test_ceiling_inside_a_check_propagates(monkeypatch):
    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "7")
    config = verify.VerifyConfig(max_n_oracle=5, max_n_witness=8)
    with pytest.raises(CeilingError, match="asked for 8") as excinfo:
        verify.run_suites(config, suites=["orientation"])
    # raised by the witness check, the first to list past the ceiling
    assert "_chk_witness" in {entry.name for entry in excinfo.traceback}


def test_other_exceptions_still_fail_their_check(monkeypatch):
    def broken(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(counting, "count_T_direct", broken)
    results = verify.run_suites(SMALL, suites=["counting"])
    details = {r.name: r.detail for r in results if not r.passed}
    assert details == {"route-agreement": "raised RuntimeError: boom"}


@pytest.mark.parametrize(
    "depth,minimum", [("max_n_oracle", 2), ("max_n_witness", 2), ("max_n_routes", 2), ("max_n_structure", 4)]
)
def test_depth_below_its_first_n_is_rejected(depth, minimum):
    with pytest.raises(DomainError, match=f"{depth} must be at least {minimum}"):
        verify.VerifyConfig(**{depth: minimum - 1})
    assert getattr(verify.VerifyConfig(**{depth: minimum}), depth) == minimum
