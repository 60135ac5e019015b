"""Reconciliation (§4) writes only through ``Controller._commit``.

Fencing, unfencing, reload's subtree swap and reload's checkpoint are
commit bodies, so what the reconciler reports is what the store holds: a
failover (``demote`` + ``recover``) keeps every reported reload and every
fence and no lifted one, a repair lifts only the fences under the subtree
it repaired, and a read replica tailing the shard sees an applied reload.
"""

from repro.coordination.kvstore import KVStore
from repro.core.events import result_message
from repro.core.persistence import TropicStore
from repro.core.replica import ReadReplica
from repro.core.txn import TransactionState

from tests.unit.test_core_controller import submit_spawn
from tests.unit.test_core_reconcile import commit_spawn, make_env


def fail_over(controller):
    controller.demote()
    controller.recover()


class TestReload:
    def test_reload_with_a_transaction_outstanding_reports_a_conflict(self):
        controller, store, input_queue, reconciler, registry = make_env()
        pending = submit_spawn(store, input_queue, "vm1", vm_host="/vmRoot/vmHost0")
        controller.run_until_idle()  # vm1 STARTED: the shard is not quiesced
        host = registry.device_at("/vmRoot/vmHost1")
        host.import_image("newdisk")
        host.create_vm("adopted", "newdisk", 512)

        report = reconciler.reload("/vmRoot/vmHost1")

        assert not report.applied
        assert report.conflict == "1 transactions outstanding"
        assert not controller.model.exists("/vmRoot/vmHost1/adopted")
        input_queue.put(result_message(pending.txid, "committed"))
        controller.run_until_idle()
        assert reconciler.reload("/vmRoot/vmHost1").applied

    def test_an_applied_reload_survives_failover(self):
        """Red-first: a reload reported ``applied`` while an unrelated
        transaction was outstanding lived only in memory, and a failover
        reverted it."""
        controller, store, input_queue, reconciler, registry = make_env()
        pending = submit_spawn(store, input_queue, "vm1", vm_host="/vmRoot/vmHost0")
        controller.run_until_idle()
        host = registry.device_at("/vmRoot/vmHost1")
        host.import_image("newdisk")
        host.create_vm("adopted", "newdisk", 512)

        for quiesced in (False, True):
            if quiesced:
                input_queue.put(result_message(pending.txid, "committed"))
                controller.run_until_idle()
            report = reconciler.reload("/vmRoot/vmHost1")
            assert report.applied is quiesced
            fail_over(controller)
            assert controller.model.exists("/vmRoot/vmHost1/adopted") is quiesced
        assert store.load_transaction(pending.txid).state is TransactionState.COMMITTED
        assert controller.model.exists("/vmRoot/vmHost0/vm1")

    def test_a_reload_lifts_its_fences_durably(self):
        controller, store, input_queue, reconciler, registry = make_env()
        commit_spawn(controller, store, input_queue, registry, "vm1", host_index=1)
        registry.device_at("/vmRoot/vmHost1").power_cycle()
        reconciler.detect_and_fence("/vmRoot/vmHost1")
        assert store.load_inconsistent_paths() == ["/vmRoot/vmHost1"]

        assert reconciler.reload("/vmRoot/vmHost1").applied

        assert store.load_inconsistent_paths() == []
        fail_over(controller)
        assert not controller.model.is_fenced("/vmRoot/vmHost1")
        assert controller.model.get("/vmRoot/vmHost1/vm1")["state"] == "stopped"


    def test_a_caught_up_replica_sees_an_applied_reload(self):
        """Red-first: a reload is a checkpoint, not a commit, so a replica
        that tails the applied log without a gap never rebuilt from it."""
        controller, store, input_queue, reconciler, registry = make_env()
        commit_spawn(controller, store, input_queue, registry, "vm1")
        replica = ReadReplica(
            TropicStore(KVStore(store.kv.client)), controller.schema, controller.procedures
        )
        assert replica.model().exists("/vmRoot/vmHost0/vm1")
        host = registry.device_at("/vmRoot/vmHost1")
        host.import_image("newdisk")
        host.create_vm("adopted", "newdisk", 512)

        assert reconciler.reload("/vmRoot/vmHost1").applied

        model = replica.model()
        assert model.exists("/vmRoot/vmHost1/adopted")
        assert model.to_dict() == controller.model.to_dict()
        assert replica.applied_txn == store.applied_seq()


class TestRepairFences:
    def test_repair_keeps_the_fence_of_a_sibling_sharing_its_prefix(self):
        """Red-first: ``/vmRoot/vmHost10`` starts with ``/vmRoot/vmHost1``,
        and a repair of vmHost1 lifted vmHost10's fence although it still
        diverged."""
        controller, store, input_queue, reconciler, registry = make_env(num_hosts=11)
        for index in (1, 10):
            commit_spawn(controller, store, input_queue, registry, f"vm{index}",
                         host_index=index)
            registry.device_at(f"/vmRoot/vmHost{index}").power_cycle()
        reconciler.detect_and_fence()
        assert controller.model.is_fenced("/vmRoot/vmHost10")

        assert reconciler.repair("/vmRoot/vmHost1").clean

        assert not controller.model.is_fenced("/vmRoot/vmHost1")
        assert controller.model.is_fenced("/vmRoot/vmHost10")
        assert store.load_inconsistent_paths() == ["/vmRoot/vmHost10"]
        assert not reconciler.detect("/vmRoot/vmHost10").is_empty

    def test_an_unrepairable_path_is_fenced_durably(self):
        """Red-first: the fence on a path repair could not fix was set in
        memory only, so a failover unfenced it."""
        controller, store, input_queue, reconciler, registry = make_env()
        commit_spawn(controller, store, input_queue, registry, "vm1")
        host = registry.device_at("/vmRoot/vmHost0")
        host.power_cycle()
        host.faults.fail_always("startVM")

        report = reconciler.repair("/vmRoot/vmHost0")

        assert report.unrepairable == ["/vmRoot/vmHost0/vm1"]
        assert "/vmRoot/vmHost0/vm1" in store.load_inconsistent_paths()
        fail_over(controller)
        assert controller.model.is_fenced("/vmRoot/vmHost0/vm1")

    def test_a_repaired_fence_stays_lifted_across_failover(self):
        """Red-first: recovery restored the fences the latest checkpoint
        carried on top of the persisted set, so a fence a clean repair
        lifted after that checkpoint came back."""
        controller, store, input_queue, reconciler, registry = make_env()
        commit_spawn(controller, store, input_queue, registry, "vm1")
        registry.device_at("/vmRoot/vmHost0").power_cycle()
        reconciler.detect_and_fence()
        assert controller.checkpoint()  # the checkpoint carries the fence

        assert reconciler.repair("/vmRoot/vmHost0").clean

        assert store.load_inconsistent_paths() == []
        fail_over(controller)
        assert not controller.model.is_fenced("/vmRoot/vmHost0")
        assert not controller.model.is_fenced("/vmRoot/vmHost0/vm1")

    def test_detect_and_fence_commits_one_multi(self):
        controller, store, input_queue, reconciler, registry = make_env()
        commit_spawn(controller, store, input_queue, registry, "vm1")
        registry.device_at("/vmRoot/vmHost0").power_cycle()
        kv = store.kv
        commits, direct = kv.batch_commits, kv.direct_ops

        reconciler.detect_and_fence()

        assert (kv.batch_commits, kv.direct_ops) == (commits + 1, direct)
        assert store.load_inconsistent_paths() == ["/vmRoot/vmHost0"]
