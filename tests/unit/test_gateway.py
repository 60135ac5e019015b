"""Unit tests for the API gateway: authentication, authorisation, quotas,
namespacing, action dispatch and the audit trail."""

import pytest

from repro.datamodel.tree import DataModel
from repro.gateway import ApiGateway, AuditLog, TenantDirectory, TenantQuota
from repro.gateway.api import OPERATOR_ACTIONS, USER_ACTIONS
from repro.gateway.tenants import (
    AuthenticationError,
    GatewayError,
    Tenant,
)
from repro.tcloud.service import VMRecord, build_tcloud


@pytest.fixture
def gateway(inline_cloud):
    tenants = TenantDirectory()
    tenants.register("acme", "acme-key", quota=TenantQuota(max_vms=3, max_total_mem_mb=4096,
                                                           max_volumes=2, max_volume_gb=64.0))
    tenants.register("globex", "globex-key")
    tenants.register("ops", "ops-key", extra_actions={"MigrateInstance", "DescribeHosts"})
    return ApiGateway(inline_cloud, tenants)


class TestTenantDirectory:
    def test_authenticate_by_api_key(self):
        directory = TenantDirectory()
        directory.register("acme", "secret")
        assert directory.authenticate("secret").name == "acme"

    def test_api_keys_are_not_stored_in_clear(self):
        directory = TenantDirectory()
        tenant = directory.register("acme", "secret")
        assert tenant.api_key != "secret"

    def test_invalid_key_rejected(self):
        directory = TenantDirectory()
        directory.register("acme", "secret")
        with pytest.raises(AuthenticationError):
            directory.authenticate("wrong")

    def test_deactivated_tenant_cannot_authenticate(self):
        directory = TenantDirectory()
        directory.register("acme", "secret")
        directory.deactivate("acme")
        with pytest.raises(AuthenticationError):
            directory.authenticate("secret")
        directory.reactivate("acme")
        assert directory.authenticate("secret").name == "acme"

    def test_duplicate_names_and_keys_rejected(self):
        directory = TenantDirectory()
        directory.register("acme", "secret")
        with pytest.raises(GatewayError):
            directory.register("acme", "other")
        with pytest.raises(GatewayError):
            directory.register("initech", "secret")

    def test_namespace_separator_reserved(self):
        directory = TenantDirectory()
        with pytest.raises(GatewayError):
            directory.register("a--b", "secret")

    def test_qualify_and_unqualify_roundtrip(self):
        tenant = Tenant(name="acme", api_key="x")
        assert tenant.qualify("web") == "acme--web"
        assert tenant.qualify("acme--web") == "acme--web"
        assert tenant.unqualify("acme--web") == "web"
        assert not tenant.owns("globex--web")


class TestAuthenticationAndAuthorisation:
    def test_bad_key_yields_auth_failure(self, gateway):
        response = gateway.handle("nope", "DescribeInstances")
        assert not response.ok
        assert response.code == "AuthFailure"
        assert gateway.audit.denials()[-1].tenant == "<unauthenticated>"

    def test_operator_action_denied_for_regular_tenant(self, gateway):
        gateway.handle("acme-key", "RunInstances", name="web", instance_type="t.small")
        response = gateway.handle("acme-key", "MigrateInstance", name="web")
        assert not response.ok
        assert response.code == "AuthorizationError"

    def test_operator_action_allowed_with_grant(self, gateway):
        gateway.handle("ops-key", "RunInstances", name="infra", instance_type="t.small")
        response = gateway.handle("ops-key", "MigrateInstance", name="infra")
        assert response.ok

    def test_unknown_action_rejected(self, gateway):
        response = gateway.handle("acme-key", "LaunchRocket")
        assert not response.ok
        assert response.code == "GatewayError"

    def test_missing_parameter_is_a_client_error(self, gateway):
        response = gateway.handle("acme-key", "RunInstances")
        assert not response.ok
        assert response.code == "InvalidParameter"


class TestInstanceLifecycle:
    def test_run_describe_stop_terminate(self, gateway, inline_cloud):
        run = gateway.handle("acme-key", "RunInstances", name="web", instance_type="t.small")
        assert run.ok and run.txids
        # The platform sees the namespaced name, the tenant sees the short one.
        assert inline_cloud.find_vm("acme--web") is not None
        described = gateway.handle("acme-key", "DescribeInstances")
        assert described.data["instances"][0]["instance"] == "web"

        stopped = gateway.handle("acme-key", "StopInstances", names=["web"])
        assert stopped.ok
        assert inline_cloud.find_vm("acme--web").state == "stopped"

        gone = gateway.handle("acme-key", "TerminateInstances", names="web")
        assert gone.ok
        assert inline_cloud.find_vm("acme--web") is None

    def test_run_multiple_instances(self, gateway):
        response = gateway.handle("globex-key", "RunInstances", name="worker", count=3,
                                  instance_type="t.small")
        assert response.ok
        assert len(response.data["instances"]) == 3
        described = gateway.handle("globex-key", "DescribeInstances")
        names = {i["instance"] for i in described.data["instances"]}
        assert names == {"worker-0", "worker-1", "worker-2"}

    def test_unknown_instance_type_rejected(self, gateway):
        response = gateway.handle("acme-key", "RunInstances", name="web",
                                  instance_type="t.mega")
        assert not response.ok and response.code == "GatewayError"

    def test_tenant_cannot_touch_foreign_instances(self, gateway):
        gateway.handle("acme-key", "RunInstances", name="web", instance_type="t.small")
        response = gateway.handle("globex-key", "StopInstances", names=["web"])
        assert not response.ok
        assert response.code == "GatewayError"

    def test_snapshot_instance(self, gateway, inline_cloud):
        gateway.handle("acme-key", "RunInstances", name="db", instance_type="t.small")
        response = gateway.handle("acme-key", "CreateSnapshot", name="db",
                                  snapshot_name="db-backup")
        assert response.ok
        model = inline_cloud.platform.leader().model
        assert model.find(predicate=lambda p, n: n.name == "acme--db-backup") != []


class TestQuotas:
    def test_vm_count_quota(self, gateway):
        assert gateway.handle("acme-key", "RunInstances", name="a", count=3,
                              instance_type="t.small").ok
        denied = gateway.handle("acme-key", "RunInstances", name="b",
                                instance_type="t.small")
        assert not denied.ok
        assert denied.code == "QuotaExceeded"

    def test_memory_quota(self, gateway):
        denied = gateway.handle("acme-key", "RunInstances", name="fat", count=2,
                                instance_type="t.xlarge")
        assert not denied.ok
        assert denied.code == "QuotaExceeded"

    def test_volume_quota(self, gateway):
        assert gateway.handle("acme-key", "CreateVolume", name="v1", size_gb=40).ok
        denied = gateway.handle("acme-key", "CreateVolume", name="v2", size_gb=40)
        assert not denied.ok
        assert denied.code == "QuotaExceeded"

    def test_quota_only_counts_own_tenant(self, gateway):
        assert gateway.handle("acme-key", "RunInstances", name="a", count=3,
                              instance_type="t.small").ok
        # globex has the default (larger) quota and is unaffected by acme's usage.
        assert gateway.handle("globex-key", "RunInstances", name="b", count=3,
                              instance_type="t.small").ok

    def test_duplicate_instance_name_denied_by_gateway(self, gateway):
        assert gateway.handle("acme-key", "RunInstances", name="web",
                              instance_type="t.small").ok
        response = gateway.handle("acme-key", "RunInstances", name="web",
                                  instance_type="t.small")
        assert not response.ok
        assert response.code == "GatewayError"
        assert gateway.audit.last().outcome == "denied"

    def test_platform_abort_reported_faithfully_within_quota(self, gateway):
        # Both requests are within quota, but the second snapshot collides
        # with the first inside the logical layer: the transaction aborts and
        # the gateway reports the abort rather than masking it.
        assert gateway.handle("acme-key", "RunInstances", name="db",
                              instance_type="t.small").ok
        assert gateway.handle("acme-key", "CreateSnapshot", name="db",
                              snapshot_name="backup").ok
        response = gateway.handle("acme-key", "CreateSnapshot", name="db",
                                  snapshot_name="backup")
        assert not response.ok
        assert response.code == "OperationAborted"
        assert gateway.audit.last().outcome == "aborted"


class TestVolumes:
    def test_volume_lifecycle(self, gateway, inline_cloud):
        gateway.handle("acme-key", "RunInstances", name="app", instance_type="t.small")
        assert gateway.handle("acme-key", "CreateVolume", name="data", size_gb=10).ok
        assert gateway.handle("acme-key", "AttachVolume", volume="data", instance="app").ok
        described = gateway.handle("acme-key", "DescribeVolumes")
        assert described.data["volumes"] == [
            {"volume": "data", "size_gb": 10.0, "attached_to": "app"}]
        assert gateway.handle("acme-key", "DetachVolume", volume="data", instance="app").ok
        assert gateway.handle("acme-key", "DeleteVolume", name="data").ok
        assert inline_cloud.list_volumes() == []


class TestAuditTrail:
    def test_every_request_is_recorded(self, gateway):
        gateway.handle("acme-key", "RunInstances", name="web", instance_type="t.small")
        gateway.handle("acme-key", "DescribeInstances")
        gateway.handle("bad-key", "DescribeInstances")
        assert len(gateway.audit) == 3
        assert [r.outcome for r in gateway.audit] == ["ok", "ok", "denied"]

    def test_committed_requests_record_their_transaction(self, gateway):
        response = gateway.handle("acme-key", "RunInstances", name="web",
                                  instance_type="t.small")
        record = gateway.audit.entries(tenant="acme", action="RunInstances")[-1]
        assert record.txid == response.txids[0]

    def test_filtering_and_capacity(self):
        log = AuditLog(capacity=2)
        log.record("a", "X", outcome="ok")
        log.record("a", "Y", outcome="denied", error="nope")
        log.record("b", "X", outcome="ok")
        assert len(log) == 2  # oldest dropped
        assert log.entries(tenant="b", action="X")[0].action == "X"
        assert log.denials() and log.denials()[0].tenant == "a"
        assert log.last().tenant == "b"


class CallCounter:
    """Counts calls to ``owner.<name>`` for each given name (no timing)."""

    def __init__(self, monkeypatch, owner, *names):
        self.calls = 0
        for name in names:
            monkeypatch.setattr(owner, name, self._counting(getattr(owner, name)))

    def _counting(self, function):
        def wrapper(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)

        return wrapper

    def during(self, call):
        """``(call's result, calls counted while it ran)``."""
        before = self.calls
        result = call()
        return result, self.calls - before


class TestWorkBound:
    """A gateway request reads hosts and the records it returns, never the
    fleet: counted in calls and records, so the guard cannot flake."""

    @pytest.fixture
    def front_door(self):
        cloud = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, logical_only=True)
        tenants = TenantDirectory()
        unlimited = TenantQuota(max_vms=None, max_total_mem_mb=None)
        tenants.register("acme", "acme-key", extra_actions=set(OPERATOR_ACTIONS))
        tenants.register("globex", "globex-key", quota=unlimited)
        with cloud.platform:
            yield ApiGateway(cloud, tenants)

    def test_no_gateway_action_walks_the_tree(self, front_door, monkeypatch):
        scans = CallCounter(monkeypatch, DataModel, "walk", "find", "count")
        requests = [
            ("RunInstances", dict(name="web", instance_type="t.small")),
            ("DescribeInstances", {}),
            ("StopInstances", dict(names="web")),
            ("StartInstances", dict(names="web")),
            ("CreateSnapshot", dict(name="web", snapshot_name="snap")),
            ("CreateVolume", dict(name="data", size_gb=8)),
            ("AttachVolume", dict(volume="data", instance="web")),
            ("DescribeVolumes", {}),
            ("DetachVolume", dict(volume="data", instance="web")),
            ("DeleteVolume", dict(name="data")),
            ("MigrateInstance", dict(name="web")),
            ("DescribeHosts", {}),
            ("TerminateInstances", dict(names="web")),
        ]
        assert {action for action, _ in requests} == USER_ACTIONS | OPERATOR_ACTIONS
        for action, params in requests:
            response, walked = scans.during(
                lambda: front_door.handle("acme-key", action, **params))
            assert response.ok, (action, response.error)
            assert walked == 0, action

    def test_records_built_track_the_result_not_the_fleet(self, front_door, monkeypatch):
        records = CallCounter(monkeypatch, VMRecord, "__init__")
        assert front_door.handle("acme-key", "RunInstances", name="web", count=3,
                                 instance_type="t.small").ok

        def built():
            described, for_describe = records.during(
                lambda: front_door.handle("acme-key", "DescribeInstances"))
            assert for_describe == len(described.data["instances"]) == 3
            stopped, for_stop = records.during(
                lambda: front_door.handle("acme-key", "StopInstances", names="web-0"))
            assert stopped.ok and for_stop <= 2
            assert front_door.handle("acme-key", "StartInstances", names="web-0").ok
            return for_describe, for_stop

        def grow_the_other_tenant(name, count):
            assert front_door.handle("globex-key", "RunInstances", name=name, count=count,
                                     instance_type="t.small").ok

        grow_the_other_tenant("few", 4)
        small_fleet = built()
        grow_the_other_tenant("many", 12)
        assert front_door.cloud.vm_count() == 3 + 16
        assert built() == small_fleet

    @pytest.mark.parametrize("count", [1, 3])
    def test_run_instances_never_forks_the_live_model(self, front_door, monkeypatch, count):
        """Regression: batch placement used to ``clone()`` the leader's live
        model from the client thread (an epoch swap outside the controller's
        op mutex) and plant ``reserved-N`` nodes in the fork."""
        forks = CallCounter(monkeypatch, DataModel, "clone")
        response, forked = forks.during(
            lambda: front_door.handle("acme-key", "RunInstances", name="web", count=count,
                                      instance_type="t.small"))
        assert response.ok and len(response.txids) == count
        assert forked == 0
        live = front_door.cloud.platform.leader().model
        assert not [path for path in live.find() if path.name.startswith("reserved-")]
