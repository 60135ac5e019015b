"""Simulation-time foreign-write detection (PR 5 satellite).

Routing is argument-path based, so a stored procedure whose *simulation*
writes paths on shards absent from its arguments used to land those writes
silently on the executing shard's bootstrap-frozen foreign copies under
``cross_shard_policy="reject"``.  The controller routes on the shards the
simulation touched, once: ``reject`` aborts loudly and ``2pc`` makes the
executing shard coordinator in place and prepares in the same pass.
"""

from __future__ import annotations

from repro.common.config import TropicConfig
from repro.coordination.ensemble import CoordinationEnsemble
from repro.core.txn import TransactionState
from repro.tcloud.service import build_tcloud
from repro.testing import ShardedCluster

IMAGE = "sneaky-image"


def _register_sneaky(cluster) -> None:
    """A procedure that writes a host never named in its arguments (the
    auto-placement pattern): routing sees a single-shard submission."""

    def sneaky_import(ctx, vm_host: str, hidden_target: str):
        ctx.do(vm_host, "importImage", IMAGE)
        ctx.do(f"/vmRoot/{hidden_target}", "importImage", IMAGE)
        return "ok"

    if not cluster.procedures.has("sneakyImport"):
        cluster.procedures.register("sneakyImport", sneaky_import)


def _split_hosts(cluster: ShardedCluster) -> tuple[str, str]:
    """(a shard-0 host, a host owned by another shard)."""
    by_shard: dict[int, list[str]] = {}
    for host in cluster.inventory.vm_hosts:
        by_shard.setdefault(cluster.router.shard_of(host), []).append(host)
    assert len(by_shard) > 1, "fleet must span both shards"
    local = by_shard[0][0]
    foreign = next(hosts[0] for shard, hosts in by_shard.items() if shard != 0)
    return local, foreign


class TestRejectPolicy:
    def test_foreign_sim_write_aborts_instead_of_corrupting(self):
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="reject")
        _register_sneaky(cluster)
        local, foreign = _split_hosts(cluster)
        txn = cluster.submit(
            "sneakyImport",
            {"vm_host": local, "hidden_target": foreign.rsplit("/", 1)[-1]},
        )
        cluster.drain()
        final = cluster.load(txn)
        assert final.state is TransactionState.ABORTED
        assert "cross-shard writes" in (final.error or "")
        executing = cluster.shard_of(local)
        assert cluster.controllers[executing].stats["foreign_write_rejects"] == 1
        # Neither copy of the foreign host saw the write, and the local
        # simulation was rolled back.
        for shard in cluster.shard_ids:
            model = cluster.model(shard)
            assert IMAGE not in model.get(foreign).get("imported_images", [])
            assert IMAGE not in model.get(local).get("imported_images", [])

    def test_single_shard_simulation_is_unaffected(self):
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="reject")
        _register_sneaky(cluster)
        local, _ = _split_hosts(cluster)
        txn = cluster.submit(
            "sneakyImport",
            {"vm_host": local, "hidden_target": local.rsplit("/", 1)[-1]},
        )
        cluster.drain()
        assert cluster.load(txn).state is TransactionState.COMMITTED


class TestTwoPCUpgrade:
    def test_foreign_sim_write_upgrades_to_cross_shard_commit(self):
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        _register_sneaky(cluster)
        local, foreign = _split_hosts(cluster)
        txn = cluster.submit(
            "sneakyImport",
            {"vm_host": local, "hidden_target": foreign.rsplit("/", 1)[-1]},
        )
        cluster.drain()
        final = cluster.load(txn)
        assert final.state is TransactionState.COMMITTED
        executing = cluster.shard_of(local)
        stats = cluster.controllers[executing].stats
        assert stats["cross_shard_upgrades"] >= 1
        assert stats["cross_shard_committed"] >= 1
        # Atomic and visible on the *owners'* authoritative models.
        owner = cluster.router.shard_of(foreign)
        assert IMAGE in cluster.model(owner).get(foreign).get("imported_images", [])
        assert IMAGE in cluster.model(executing).get(local).get("imported_images", [])

    def test_upgrade_prepares_in_its_first_pass(self):
        """The simulated shard set is routed on in the pass that simulated
        it: no DEFERRED detour, no re-simulation on a later pass."""
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        _register_sneaky(cluster)
        local, foreign = _split_hosts(cluster)
        txn = cluster.submit(
            "sneakyImport",
            {"vm_host": local, "hidden_target": foreign.rsplit("/", 1)[-1]},
        )
        executing = cluster.shard_of(local)
        controller = cluster.controllers[executing]
        controller.step()
        doc = cluster.stores[executing].load_transaction(txn.txid)
        assert doc.state is TransactionState.PREPARING
        assert doc.coordinator == executing
        assert doc.participants == sorted({executing, cluster.router.shard_of(foreign)})
        cluster.drain()
        final = cluster.load(txn)
        assert final.state is TransactionState.COMMITTED
        assert final.defer_count == 0
        assert controller.stats["deferred"] == 0
        assert controller.stats["cross_shard_upgrades"] == 1


class TestColdLookup:
    def test_a_fresh_platform_finds_the_coordinators_document(self):
        """A process with no submission cache (a restart, a second
        process) must find the client's document of an upgraded
        transaction, not the participant's prepare-record slice that a
        lower shard holds under the same txid; TERM and KILL must reach
        the coordinator."""
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        config = TropicConfig(num_shards=2, cross_shard_policy="2pc", logical_only=True)

        def cloud():
            return build_tcloud(config=config, logical_only=True, ensemble=ensemble)

        writer_cloud = cloud()
        with writer_cloud.platform as writer:
            _register_sneaky(writer)
            by_shard = {
                writer.shard_router.shard_of(host): host
                for host in writer_cloud.inventory.vm_hosts
            }
            vm_host, hidden = by_shard[1], by_shard[0]
            txn = writer.submit(
                "sneakyImport", {"vm_host": vm_host, "hidden_target": hidden.rsplit("/", 1)[-1]}
            )
            assert txn.state is TransactionState.COMMITTED
            txid, args = txn.txid, dict(txn.args)
            slice_ = writer.shards[0].store.load_transaction(txid)
            assert slice_.coordinator == 1 and slice_.args == {}
        with cloud().platform as cold:
            assert cold.shard_of_txn(txid) == 1
            found = cold.load_transaction(txid)
            assert found.state is TransactionState.COMMITTED
            assert found.args == args
            assert found.result == "ok"
