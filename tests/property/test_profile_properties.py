"""Property tests: exploration-profile merging is order-independent.

Per-worker :class:`ExplorationProfile` instances are merged into one
snapshot at collection time; for that snapshot to be deterministic across
execution backends the merge must be commutative and associative over
per-update records — counters sum, ``max_depth`` takes the max, and
per-level depth histograms add element-wise.  The property: merging any
permutation of worker profiles, in any pairwise grouping, yields an
identical serialized document (which covers totals, window rows, imbalance,
and top-k ordering all at once).

Also here: the profile a real run records — task vectors summed per update
key — serializes to the same document as the per-task oracle
(``scenarios.OracleProfile``) on every backend, crashes and reruns
included.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st
from scenarios import OracleProfile, Scenario, mine, profiles_of

from repro.runtime.backend import BACKEND_NAMES
from repro.telemetry import ExplorationProfile, UpdateProfile

#: a small universe of update keys so permuted workers overlap on them
update_keys = st.tuples(
    st.integers(min_value=1, max_value=3),  # ts
    st.integers(min_value=0, max_value=4),  # u
    st.integers(min_value=5, max_value=8),  # v
    st.booleans(),  # added
)

counts = st.integers(min_value=0, max_value=20)

update_records = st.builds(
    lambda key, nodes, attempts, psw, pr2, exp, fc, fr, mc, mr, new, rem, depths: UpdateProfile(
        ts=key[0],
        u=key[1],
        v=key[2],
        added=key[3],
        nodes=nodes,
        attempts=attempts,
        pruned_same_window=psw,
        pruned_rule2=pr2,
        expansions=exp,
        filter_calls=fc,
        filter_rejected=fr,
        match_calls=mc,
        match_rejected=mr,
        new=new,
        rem=rem,
        max_depth=len(depths),
        depth_nodes=depths,
    ),
    update_keys,
    *([counts] * 11),
    st.lists(st.integers(min_value=0, max_value=9), max_size=5),
)

def build_profile(records) -> ExplorationProfile:
    # merge() is the public accumulation path for foreign records: wrap
    # each record in a singleton profile and merge it in.  Records with
    # equal keys accumulate, as they would across real workers.
    profile = ExplorationProfile()
    for record in records:
        single = ExplorationProfile()
        single.update_records()[record.key] = record
        profile.merge(single)
    return profile


def merged(parts) -> ExplorationProfile:
    out = ExplorationProfile()
    for part in parts:
        out.merge(part)
    return out


@settings(max_examples=60, deadline=None)
@given(
    workers=st.lists(st.lists(update_records, max_size=5), max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_merge_is_permutation_invariant(workers, order):
    profiles = [build_profile(records) for records in workers]
    baseline = merged(profiles).to_dict()
    shuffled = list(profiles)
    order.shuffle(shuffled)
    assert merged(shuffled).to_dict() == baseline


@settings(max_examples=60, deadline=None)
@given(workers=st.lists(st.lists(update_records, max_size=4), max_size=3))
def test_merge_is_associative(workers):
    profiles = [build_profile(records) for records in workers]
    left = merged(profiles)
    right = ExplorationProfile()
    for profile in reversed(profiles):
        fresh = ExplorationProfile()
        fresh.merge(profile)
        fresh.merge(right)
        right = fresh
    assert right.to_dict() == left.to_dict()


@settings(max_examples=40, deadline=None)
@given(records=st.lists(update_records, max_size=8))
def test_serialization_round_trips(records):
    profile = build_profile(records)
    clone = ExplorationProfile.from_dict(profile.to_dict())
    assert clone.to_dict() == profile.to_dict()


@settings(max_examples=40, deadline=None)
@given(records=st.lists(update_records, min_size=1, max_size=8))
def test_top_updates_deterministic_and_sorted(records):
    profile = build_profile(records)
    top = profile.top_updates(3)
    costs = [r.cost for r in top]
    assert costs == sorted(costs, reverse=True)
    # ties break on the update key: re-merging in reverse yields same list
    again = ExplorationProfile()
    for record in reversed(list(profile.update_records().values())):
        single = ExplorationProfile()
        single.update_records()[record.key] = record
        again.merge(single)
    assert [r.key for r in again.top_updates(3)] == [r.key for r in top]


@pytest.mark.parametrize("seed", [1, 8])
@pytest.mark.parametrize("app", ["4-C", "edge-3"])
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_recorded_profile_equals_the_per_task_oracle(backend, app, seed):
    """Two differential-harness scenarios, each with a window that crashes
    after it ran and is rerun, on a vertex-induced app three levels deep
    and an edge-induced one (its same-window prunes are excluded edges)."""
    with profiles_of(OracleProfile):
        oracle = mine(Scenario.from_seed(seed), app, "mv", backend).profile
    recorded = mine(Scenario.from_seed(seed), app, "mv", backend).profile
    # the rerun window recorded some update key twice: two tasks, two roots
    assert any(u["depth_nodes"][2] == 2 for u in oracle["updates"])
    assert oracle["totals"]["max_depth"] >= 3
    assert json.dumps(recorded, sort_keys=True) == json.dumps(oracle, sort_keys=True)
