"""Per-member accounting of portfolio races.

Members share one engine (lockstep) or one engine per shard
(distributed), and :class:`~repro.search.portfolio.MemberMeter` charges
the engine work of every member turn to that member.  The contract: a
member that did work reports it (runtime, stage timers, cache and delta
counters are not zero), and the members' counters sum exactly to the
race totals -- in lockstep, inside shards, under a metered shared
budget and across checkpoint resumes.
"""

from __future__ import annotations

import pytest

from searchutil import small_scenario

from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.search.budget import Budget
from repro.search.distributed import DistributedPortfolioRunner
from repro.search.portfolio import PortfolioRunner

#: Counters that are exact sums over members.
SUMMED = (
    "cache_hits",
    "cache_misses",
    "delta_hits",
    "delta_fallbacks",
    "sched_ns",
    "metrics_ns",
    "decode_ns",
)


@pytest.fixture(scope="module")
def spec():
    return small_scenario(seed=3).spec()


def members() -> list:
    return [
        MappingHeuristic(),
        SimulatedAnnealing(iterations=60, seed=7),
        SimulatedAnnealing(iterations=40, seed=11),
    ]


def assert_attributed(race) -> None:
    """Every member reports its own work; the members sum to the race."""
    for member in race.members:
        result = member.result
        assert result.runtime_seconds > 0.0, member.name
        assert result.evaluations > 0, member.name
        assert result.sched_ns > 0, member.name
        assert result.metrics_ns > 0, member.name
        assert result.cache_hits + result.cache_misses > 0, member.name
    for name in SUMMED:
        per_member = sum(getattr(m.result, name) for m in race.members)
        assert per_member == getattr(race, name), name
    assert race.sched_ns > 0 and race.metrics_ns > 0
    for member in race.members:
        assert member.result.runtime_seconds <= race.runtime_seconds


def assert_turns_fit_race(race) -> None:
    """Lockstep turns are serial, so member runtimes fit in the race's."""
    assert (
        sum(m.result.runtime_seconds for m in race.members)
        <= race.runtime_seconds
    )


def test_lockstep_members_sum_to_race_totals(spec):
    race = PortfolioRunner(members()).run(spec)
    assert_attributed(race)
    assert_turns_fit_race(race)


def test_lockstep_under_shared_budget(spec):
    race = PortfolioRunner(members(), budget=Budget(max_evaluations=90)).run(
        spec
    )
    assert race.budget_cut
    assert_attributed(race)
    assert_turns_fit_race(race)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"budget": Budget(max_evaluations=90)},
        {"checkpoint_every": 10},
    ],
    ids=["free", "metered", "checkpoints"],
)
def test_sharded_members_sum_to_race_totals(spec, kwargs):
    race = DistributedPortfolioRunner(members(), shards=2, **kwargs).run(spec)
    assert_attributed(race)
    # ... and to the shard engines' own totals.
    for name in SUMMED:
        assert getattr(race, name) == sum(
            getattr(counters, name) for counters in race.shard_counters
        ), name


def test_sharded_members_match_lockstep_work(spec):
    """Replay shards do the same searches: per-member evaluations and
    objectives equal the lockstep race's, whatever the engine split."""
    lockstep = PortfolioRunner(members()).run(spec)
    sharded = DistributedPortfolioRunner(members(), shards=2).run(spec)
    assert [
        (m.name, m.result.evaluations, m.objective) for m in lockstep.members
    ] == [
        (m.name, m.result.evaluations, m.objective) for m in sharded.members
    ]
