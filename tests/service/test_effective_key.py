"""A cell is keyed by what its run reads: the effective intensity.

``collusion`` and ``ignore-congestion`` read no intensity and
``inflated-join`` clamps its target at the whole session from intensity 1
on (:meth:`AttackStrategy.effective_intensity`), so the result cache keys a
spec with every attack at its effective intensity
(:meth:`ResultCache.key`).  These tests hold that equal keys name equal
bytes, that the batch runner and the daemon answer equivalent cells without
simulating them again, and that every other strategy keeps one key per
intensity.
"""

import asyncio

import pytest

from repro.adversary import ADVERSARIES, AttackSpec, build_strategies
from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    Scenario,
    attack_duel_spec,
    execute_spec,
    scenario_spec,
)

from test_concurrency import fork_only, slow_worker

INTENSITIES = (0.25, 0.5, 1.0, 1.5, 2.0, 4.0)

#: Strategy -> the intensities at and above which every key is one key.
CLAMPED = {"collusion": 0.0, "ignore-congestion": 0.0, "inflated-join": 1.0}


def duel(strategy, intensity, protected):
    """A short Figure 1/7 duel: the attacker shares a bottleneck sized for
    three fair shares with an honest session and a TCP flow, so it sees
    congestion from its onset at 2 s on."""
    return attack_duel_spec(
        "duel",
        stack=(AttackSpec(strategy),),
        attack_start_s=2.0,
        intensity=intensity,
        protected=protected,
        duration_s=8.0,
    )


@pytest.mark.parametrize("protected", (True, False), ids=("protected", "unprotected"))
@pytest.mark.parametrize("strategy", sorted(ADVERSARIES))
def test_equal_keys_are_exactly_the_clamped_intensities(strategy, protected):
    keys = {i: ResultCache.key(duel(strategy, i, protected)) for i in INTENSITIES}
    floor = CLAMPED.get(strategy)
    if floor is None:
        assert len(set(keys.values())) == len(INTENSITIES)
        return
    clamped = {keys[i] for i in INTENSITIES if i >= floor}
    assert len(clamped) == 1
    below = [keys[i] for i in INTENSITIES if i < floor]
    assert len(set(below)) == len(below) and not clamped & set(below)
    # Equal keys hand the run equal inputs, so they name equal bytes.
    documents = {
        execute_spec(duel(strategy, i, protected)).to_json()
        for i in INTENSITIES
        if i >= floor
    }
    assert len(documents) == 1


def test_inflated_join_below_one_changes_the_run():
    """The clamp is at 1, not below: a quarter of the groups is another run."""
    quarter, whole = (
        execute_spec(duel("inflated-join", i, protected=False)).to_json() for i in (0.25, 1.0)
    )
    assert quarter != whole


def test_the_spec_keeps_its_declared_intensity_and_the_strategy_acts_on_the_effective_one():
    spec = duel("inflated-join", 4.0, protected=True)
    assert spec.sessions[0].attacks[0].intensity == 4.0
    scenario = Scenario.from_spec(spec)
    (strategy,) = build_strategies(
        spec.sessions[0].attacks, scenario.network, scenario.sessions[0].spec, "probe"
    )
    assert strategy.intensity == 1.0


def grid(seed):
    """The benchmark's 7-strategy × 3-intensity grid at a small audience."""
    return [
        scenario_spec(
            "scale-protection",
            audience=100,
            attacker_fraction=0.05,
            strategy=strategy,
            intensity=intensity,
            attack_start_s=6.0,
            duration_s=9.0,
        ).with_seed(seed)
        for strategy in sorted(ADVERSARIES)
        for intensity in (1.0, 2.0, 4.0)
    ]


def test_the_grid_runs_fifteen_of_its_twenty_one_cells_per_seed():
    specs = grid(0) + grid(1)
    runner = ExperimentRunner(jobs=2)
    results = runner.run(specs)
    # collusion, ignore-congestion and inflated-join at 2 and 4 are their
    # intensity-1 cells: 21 - 3 × 2 = 15 per seed.
    assert runner.cache_misses == 2 * 15
    assert runner.warm_runs == 2 * 15
    assert [r.to_json() for r in results] == [execute_spec(s).to_json() for s in specs]


def collusion(intensity):
    return duel("collusion", intensity, protected=True)


def result_of(events):
    return next(event for event in events if event["event"] == "result")


def test_daemon_answers_an_equivalent_cell_from_the_cache(service_loop):
    async def scenario():
        loop = await service_loop(jobs=1)
        conn = await loop.connect()
        first = result_of(await conn.submit(collusion(1.0), [0], request_id="a"))
        second = result_of(await conn.submit(collusion(4.0), [0], request_id="b"))
        conn.close()
        stats = loop.service.scheduler.stats()
        await loop.stop()
        return first, second, stats

    first, second, stats = asyncio.run(scenario())
    assert second["cached"] and not first["cached"]
    assert second["key"] == first["key"]
    assert second["result"] == first["result"]
    assert stats["cells_executed"] == 1


@fork_only
def test_daemon_coalesces_equivalent_cells_in_flight(service_loop, monkeypatch):
    monkeypatch.setattr("repro.experiments.runner.run_job", slow_worker)

    async def scenario():
        loop = await service_loop(jobs=2)
        first = await loop.connect()
        second = await loop.connect()
        await first.send({"op": "submit", "id": "a", "spec": collusion(1.0).to_dict()})
        assert (await first.recv())["event"] == "accepted"
        # The intensity-1 cell is in flight (the worker sleeps ~1 s).
        await second.send({"op": "submit", "id": "b", "spec": collusion(4.0).to_dict()})
        events_a = await first.events_until("done", request_id="a")
        events_b = await second.events_until("done", request_id="b")
        first.close()
        second.close()
        stats = loop.service.scheduler.stats()
        await loop.stop()
        return result_of(events_a), result_of(events_b), stats

    result_a, result_b, stats = asyncio.run(scenario())
    assert result_a["result"] == result_b["result"]
    assert result_b["deduped"] and not result_a["deduped"]
    assert stats["cells_executed"] == 1
    assert stats["dedup_hits"] == 1
