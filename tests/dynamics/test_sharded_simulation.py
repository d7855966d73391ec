"""Sharded dynamic-market runs: wiring, determinism, and the journal."""

from __future__ import annotations

import pytest

from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.exceptions import ConfigurationError
from repro.runtime import CheckpointJournal
from repro.market.shard import ShardLog
from repro.network.generators import random_mec_network


def make_sim(network, seed=11, **kwargs):
    population = PopulationProcess(
        network, arrival_rate=6.0, mean_lifetime=5.0,
        rng=seed, initial_population=20,
    )
    return DynamicMarketSimulation(
        network, population, policy="incremental", **kwargs
    )


@pytest.fixture(scope="module")
def network():
    return random_mec_network(100, rng=5)


class TestValidation:
    def test_unknown_sharding_mode_rejected(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network, sharding="hash")

    def test_boundary_rounds_floor(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network, sharding="region", boundary_rounds=0)

    def test_sharding_off_keeps_layer_dormant(self, network):
        sim = make_sim(network)
        sim.run(3)
        assert sim._partition is None
        assert sim._shard_log is None
        assert all(e.settle_moves == 0 for e in sim.run(1).epochs)
        assert all(
            e.equilibrium_certified is None for e in sim.run(1).epochs
        )


class TestShardedRun:
    def test_epochs_settle_to_certified_equilibria(self, network):
        with make_sim(network, sharding="region", n_shards=3) as sim:
            summary = sim.run(5)
        assert sim._partition is not None
        assert sim._shard_log.seq == 4  # founding epoch seeds, 4 deltas
        for epoch in summary.epochs:
            if epoch.population:
                assert epoch.equilibrium_certified is True
        assert summary.total_settle_moves >= 0

    def test_deterministic_across_runs(self, network):
        with make_sim(network, sharding="region", n_shards=3) as a:
            sa = a.run(4)
        with make_sim(network, sharding="region", n_shards=3) as b:
            sb = b.run(4)
        for ea, eb in zip(sa.epochs, sb.epochs):
            assert ea.social_cost == eb.social_cost
            assert ea.migration_cost == eb.migration_cost
            assert ea.settle_moves == eb.settle_moves

    def test_parallel_workers_match_serial(self, network):
        with make_sim(network, sharding="region", n_shards=3) as serial:
            ss = serial.run(3)
        with make_sim(
            network, sharding="region", n_shards=3, shard_workers=2
        ) as parallel:
            sp = parallel.run(3)
        for a, b in zip(ss.epochs, sp.epochs):
            assert a.social_cost == b.social_cost
            assert a.settle_moves == b.settle_moves

    def test_close_is_idempotent(self, network):
        sim = make_sim(network, sharding="region", n_shards=2, shard_workers=2)
        sim.run(1)
        sim.close()
        sim.close()


class TestJournal:
    def test_journal_replays_the_routed_stream(self, network, tmp_path):
        journal = CheckpointJournal(tmp_path / "log.jsonl")
        with make_sim(
            network, sharding="region", n_shards=3, shard_journal=journal
        ) as sim:
            sim.run(5)
        replayed = ShardLog.replay(journal)
        live = sorted(
            sim._shard_log.entries, key=lambda sd: (sd.seq, sd.shard_id)
        )
        assert len(replayed) == len(live)
        for a, b in zip(replayed, live):
            assert a.to_payload() == b.to_payload()
        assert max(sd.seq for sd in replayed) == sim._shard_log.seq
