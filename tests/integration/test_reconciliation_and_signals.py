"""Integration tests for resource-volatility handling: repair, reload,
TERM/KILL signals and the leader's stall deadline (§4)."""

import threading
import time

import pytest

from repro.core.signals import TERM
from repro.core.txn import TransactionState
from repro.tcloud.service import build_tcloud


@pytest.fixture
def cloud():
    cloud = build_tcloud(num_vm_hosts=3, num_storage_hosts=2, host_mem_mb=4096)
    cloud.platform.start()
    yield cloud
    cloud.platform.stop()


class TestRepairScenarios:
    def test_host_reboot_repaired_end_to_end(self, cloud):
        for index in range(3):
            cloud.spawn_vm(f"svc{index}", vm_host="/vmRoot/vmHost0", mem_mb=512)
        host = cloud.inventory.registry.device_at("/vmRoot/vmHost0")
        host.power_cycle()  # all VMs powered off out of band
        report = cloud.platform.repair("/vmRoot/vmHost0")
        assert report.clean
        assert {a for _, a, _ in report.actions_executed} == {"startVM"}
        assert all(host.vm_state(f"svc{i}") == "running" for i in range(3))
        assert cloud.platform.reconciler().detect().is_empty

    def test_transactions_blocked_until_repaired(self, cloud):
        cloud.spawn_vm("vm0", vm_host="/vmRoot/vmHost0", mem_mb=512)
        host = cloud.inventory.registry.device_at("/vmRoot/vmHost0")
        host.power_cycle()
        reconciler = cloud.platform.reconciler()
        reconciler.detect_and_fence("/vmRoot/vmHost0")
        blocked = cloud.spawn_vm("vm1", vm_host="/vmRoot/vmHost0",
                                 storage_host="/storageRoot/storageHost0")
        assert blocked.state is TransactionState.ABORTED
        cloud.platform.repair("/vmRoot/vmHost0")
        unblocked = cloud.spawn_vm("vm1", vm_host="/vmRoot/vmHost0",
                                   storage_host="/storageRoot/storageHost0")
        assert unblocked.state is TransactionState.COMMITTED

    def test_reload_adopts_operator_added_capacity(self, cloud):
        # Operator installs a new template on a storage host out of band.
        storage = cloud.inventory.registry.device_at("/storageRoot/storageHost1")
        storage.add_template("template-huge", size_gb=64.0)
        report = cloud.platform.reload("/storageRoot/storageHost1")
        assert report.applied
        model = cloud.platform.leader().model
        assert model.exists("/storageRoot/storageHost1/template-huge")
        # The new template is immediately usable by transactions.
        txn = cloud.spawn_vm("big", image_template="template-huge",
                             storage_host="/storageRoot/storageHost1")
        assert txn.state is TransactionState.COMMITTED


class TestSignals:
    def test_term_aborts_stalled_transaction_consistently(self, cloud):
        host = cloud.inventory.registry.device_at("/vmRoot/vmHost0")
        host.faults.hang_next("startVM")  # the transaction stalls on the last action
        handle = cloud.spawn_vm("stuck", vm_host="/vmRoot/vmHost0",
                                storage_host="/storageRoot/storageHost0", wait=False)

        stalled = {}

        def drive():
            # The inline runtime blocks inside the hung device call.
            stalled["result"] = cloud.platform.run_until_idle()

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        time.sleep(0.1)
        cloud.platform.send_term(handle.txid)
        host.release_hang()
        driver.join(timeout=10)
        txn = handle.wait(timeout=10)
        assert txn.state is TransactionState.ABORTED
        # Graceful TERM keeps the layers consistent.
        assert cloud.platform.reconciler().detect().is_empty
        assert cloud.find_vm("stuck") is None

    def test_kill_aborts_logical_layer_and_repair_reconciles(self, cloud):
        host = cloud.inventory.registry.device_at("/vmRoot/vmHost1")
        host.faults.hang_next("startVM")
        handle = cloud.spawn_vm("zombie", vm_host="/vmRoot/vmHost1",
                                storage_host="/storageRoot/storageHost1", wait=False)
        driver = threading.Thread(target=cloud.platform.run_until_idle, daemon=True)
        driver.start()
        time.sleep(0.1)
        cloud.platform.send_kill(handle.txid)
        txn = handle.refresh()
        assert txn.state is TransactionState.ABORTED
        # The physical layer is left behind (partially provisioned) and fenced.
        leader = cloud.platform.leader()
        assert leader.model.is_fenced("/vmRoot/vmHost1")
        host.release_hang()
        driver.join(timeout=10)
        # Repair removes the orphaned physical VM and lifts the fence.
        report = cloud.platform.repair("/vmRoot/vmHost1")
        assert host.vm_state("zombie") is None or not report.unrepairable
        assert not leader.model.is_fenced("/vmRoot/vmHost1")

    def test_the_leader_step_terms_a_stalled_transaction(self, cloud):
        host = cloud.inventory.registry.device_at("/vmRoot/vmHost2")
        host.faults.hang_next("startVM")
        handle = cloud.spawn_vm("laggard", vm_host="/vmRoot/vmHost2",
                                storage_host="/storageRoot/storageHost0", wait=False)
        driver = threading.Thread(target=cloud.platform.run_until_idle, daemon=True)
        driver.start()
        time.sleep(0.15)
        leader = cloud.platform.leader()
        leader.config = leader.config.with_overrides(txn_timeout=0.05)
        # The inline driver thread is blocked inside the hung device call,
        # so the test steps the leader itself.
        leader.step()
        assert leader.store.get_signal(handle.txid) == TERM
        commits = leader.store.kv.batch_commits
        leader.step()  # posted once: nothing left to write
        assert leader.store.kv.batch_commits == commits
        host.release_hang()
        driver.join(timeout=10)
        assert handle.wait(timeout=10).state is TransactionState.ABORTED
        assert leader.store.get_signal(handle.txid) is None
        assert cloud.platform.reconciler().detect().is_empty
