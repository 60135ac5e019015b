"""The API gateway request dispatcher.

:class:`ApiGateway` exposes an EC2-style action API (``RunInstances``,
``TerminateInstances``, ``CreateVolume``, ...) on top of a
:class:`~repro.tcloud.service.TCloud` deployment.  Each request is

1. authenticated against the :class:`~repro.gateway.tenants.TenantDirectory`,
2. authorised (some actions are operator-only),
3. validated and checked against the tenant's quotas,
4. translated into one or more transactional orchestrations, and
5. recorded in the :class:`~repro.gateway.audit.AuditLog` together with the
   transaction outcome.

The gateway never manipulates resources directly — everything goes through
stored procedures, so the ACID guarantees of the platform apply unchanged.
Tenant isolation is by namespacing: every resource a tenant creates carries
the ``{tenant}--`` prefix and tenants can only address resources they own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import (
    CrossShardTransaction,
    ProcedureError,
    QuorumLostError,
    ReproError,
    SessionExpiredError,
    ShardUnavailable,
    TxnTimeout,
)
from repro.core.txn import Transaction, TransactionState
from repro.gateway.audit import AuditLog
from repro.gateway.tenants import (
    AuthenticationError,
    AuthorizationError,
    GatewayError,
    QuotaExceeded,
    Tenant,
    TenantDirectory,
)
from repro.tcloud.service import TCloud

#: EC2-like instance types offered by the gateway.
INSTANCE_TYPES: dict[str, dict[str, Any]] = {
    "t.small": {"mem_mb": 512, "image_template": "template-small"},
    "t.medium": {"mem_mb": 1024, "image_template": "template-small"},
    "t.large": {"mem_mb": 2048, "image_template": "template-medium"},
    "t.xlarge": {"mem_mb": 4096, "image_template": "template-large"},
}

#: Actions every tenant may call.
USER_ACTIONS = frozenset(
    {
        "RunInstances",
        "TerminateInstances",
        "StartInstances",
        "StopInstances",
        "DescribeInstances",
        "CreateSnapshot",
        "CreateVolume",
        "DeleteVolume",
        "AttachVolume",
        "DetachVolume",
        "DescribeVolumes",
    }
)

#: Actions reserved for tenants explicitly granted them (operators).
OPERATOR_ACTIONS = frozenset({"MigrateInstance", "DescribeHosts"})


@dataclass
class ApiResponse:
    """Structured result of one gateway request."""

    ok: bool
    action: str
    code: str = "OK"
    data: Any = None
    error: str | None = None
    txids: list[str] = field(default_factory=list)
    #: Typed retry contract: ``retryable=True`` marks a transient platform
    #: fault (leader failover, quorum loss, a timed-out wait) that the
    #: client may re-drive after ``retry_after_s`` seconds.  A ``Timeout``
    #: code is *ambiguous* — the transaction may still commit — so it must
    #: only be retried with the same idempotency token.
    retryable: bool = False
    retry_after_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "action": self.action,
            "code": self.code,
            "data": self.data,
            "error": self.error,
            "txids": list(self.txids),
            "retryable": self.retryable,
            "retry_after_s": self.retry_after_s,
        }


class ApiGateway:
    """EC2-style multi-tenant front end for a TCloud deployment."""

    def __init__(
        self,
        cloud: TCloud,
        tenants: TenantDirectory | None = None,
        audit: AuditLog | None = None,
    ):
        self.cloud = cloud
        self.tenants = tenants or TenantDirectory()
        self.audit = audit or AuditLog(clock=cloud.platform.clock)
        self._handlers: dict[str, Callable[..., ApiResponse]] = {
            "RunInstances": self._run_instances,
            "TerminateInstances": self._terminate_instances,
            "StartInstances": self._start_instances,
            "StopInstances": self._stop_instances,
            "DescribeInstances": self._describe_instances,
            "CreateSnapshot": self._create_snapshot,
            "CreateVolume": self._create_volume,
            "DeleteVolume": self._delete_volume,
            "AttachVolume": self._attach_volume,
            "DetachVolume": self._detach_volume,
            "DescribeVolumes": self._describe_volumes,
            "MigrateInstance": self._migrate_instance,
            "DescribeHosts": self._describe_hosts,
        }

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def handle(self, api_key: str, action: str, **params: Any) -> ApiResponse:
        """Authenticate, authorise, dispatch and audit one API request."""
        try:
            tenant = self.tenants.authenticate(api_key)
        except AuthenticationError as exc:
            response = ApiResponse(ok=False, action=action, code="AuthFailure", error=str(exc))
            self.audit.record("<unauthenticated>", action, params, outcome="denied",
                              error=str(exc))
            return response

        try:
            self._authorise(tenant, action)
            handler = self._handlers[action]
            response = handler(tenant, **params)
        except (AuthorizationError, QuotaExceeded, GatewayError) as exc:
            response = ApiResponse(ok=False, action=action, code=type(exc).__name__,
                                   error=str(exc))
            self.audit.record(tenant.name, action, params, outcome="denied", error=str(exc))
            return response
        except TypeError as exc:
            # Missing/unexpected request parameters surface as client errors.
            response = ApiResponse(ok=False, action=action, code="InvalidParameter",
                                   error=str(exc))
            self.audit.record(tenant.name, action, params, outcome="denied", error=str(exc))
            return response
        except ProcedureError as exc:
            response = ApiResponse(ok=False, action=action, code="NotFound", error=str(exc))
            self.audit.record(tenant.name, action, params, outcome="denied", error=str(exc))
            return response
        except CrossShardTransaction as exc:
            # Sharded deployments under the 'reject' policy refuse
            # orchestrations spanning shards; clients see a dedicated code
            # so they can split the request per shard and retry.
            response = ApiResponse(ok=False, action=action, code="CrossShard", error=str(exc))
            self.audit.record(tenant.name, action, params, outcome="denied", error=str(exc))
            return response
        except (
            SessionExpiredError,
            QuorumLostError,
            TxnTimeout,
            ShardUnavailable,
            ConnectionError,
        ) as exc:
            # Transient (or, for Timeout, ambiguous) platform faults:
            # surface a typed retryable response with a backoff hint
            # instead of a raw InternalError, so well-behaved clients back
            # off and re-drive while a failover completes.
            code = "Timeout" if isinstance(exc, TxnTimeout) else "Unavailable"
            response = ApiResponse(
                ok=False, action=action, code=code, error=str(exc),
                retryable=True, retry_after_s=self._retry_after(),
            )
            self.audit.record(tenant.name, action, params, outcome="error", error=str(exc))
            return response
        except ReproError as exc:
            response = ApiResponse(ok=False, action=action, code="InternalError",
                                   error=str(exc))
            self.audit.record(tenant.name, action, params, outcome="error", error=str(exc))
            return response

        outcome = "ok" if response.ok else "aborted"
        self.audit.record(tenant.name, action, params, outcome=outcome,
                          txid=response.txids[0] if response.txids else None,
                          error=response.error)
        return response

    def _retry_after(self) -> float:
        """Backoff hint for retryable responses: a leader failover needs
        roughly one session timeout to be detected plus recovery."""
        return max(self.cloud.platform.config.session_timeout, 0.05)

    def _authorise(self, tenant: Tenant, action: str) -> None:
        if action in USER_ACTIONS:
            return
        if action in OPERATOR_ACTIONS and action in tenant.extra_actions:
            return
        if action not in self._handlers:
            raise GatewayError(f"unknown API action {action!r}")
        raise AuthorizationError(f"tenant {tenant.name!r} may not call {action}")

    # ------------------------------------------------------------------
    # Quota accounting
    # ------------------------------------------------------------------

    def _tenant_vms(self, tenant: Tenant):
        return self.cloud.list_vms(prefix=tenant.prefix())

    def _tenant_volumes(self, tenant: Tenant):
        return self.cloud.list_volumes(prefix=tenant.prefix())

    def _check_vm_quota(self, tenant: Tenant, new_vms: int, new_mem_mb: int) -> None:
        quota = tenant.quota
        existing = self._tenant_vms(tenant)
        if quota.max_vms is not None and len(existing) + new_vms > quota.max_vms:
            raise QuotaExceeded(
                f"tenant {tenant.name!r} would have {len(existing) + new_vms} VMs "
                f"(quota {quota.max_vms})"
            )
        if quota.max_total_mem_mb is not None:
            total = sum(r.mem_mb for r in existing) + new_mem_mb
            if total > quota.max_total_mem_mb:
                raise QuotaExceeded(
                    f"tenant {tenant.name!r} would use {total} MB of memory "
                    f"(quota {quota.max_total_mem_mb} MB)"
                )

    def _check_volume_quota(self, tenant: Tenant, new_volumes: int, new_gb: float) -> None:
        quota = tenant.quota
        existing = self._tenant_volumes(tenant)
        if quota.max_volumes is not None and len(existing) + new_volumes > quota.max_volumes:
            raise QuotaExceeded(
                f"tenant {tenant.name!r} would have {len(existing) + new_volumes} volumes "
                f"(quota {quota.max_volumes})"
            )
        if quota.max_volume_gb is not None:
            total = sum(r.size_gb for r in existing) + new_gb
            if total > quota.max_volume_gb:
                raise QuotaExceeded(
                    f"tenant {tenant.name!r} would use {total:.1f} GB of block storage "
                    f"(quota {quota.max_volume_gb:.1f} GB)"
                )

    def _owned_vm(self, tenant: Tenant, name: str) -> str:
        """Qualified name of a VM the tenant owns; raises if it does not."""
        qualified = tenant.qualify(name)
        if self.cloud.find_vm(qualified) is None:
            raise GatewayError(f"instance {name!r} not found for tenant {tenant.name!r}")
        return qualified

    def _owned_volume(self, tenant: Tenant, name: str) -> str:
        qualified = tenant.qualify(name)
        if self.cloud.find_volume(qualified) is None:
            raise GatewayError(f"volume {name!r} not found for tenant {tenant.name!r}")
        return qualified

    # ------------------------------------------------------------------
    # Instance actions
    # ------------------------------------------------------------------

    def _run_instances(
        self,
        tenant: Tenant,
        name: str,
        count: int = 1,
        instance_type: str = "t.medium",
        mem_mb: int | None = None,
        image_template: str | None = None,
    ) -> ApiResponse:
        if count < 1:
            raise GatewayError("count must be >= 1")
        if instance_type not in INSTANCE_TYPES:
            raise GatewayError(
                f"unknown instance type {instance_type!r}; offered: {sorted(INSTANCE_TYPES)}"
            )
        spec = INSTANCE_TYPES[instance_type]
        mem = int(mem_mb if mem_mb is not None else spec["mem_mb"])
        template = image_template or spec["image_template"]
        self._check_vm_quota(tenant, new_vms=count, new_mem_mb=mem * count)
        # Instance names are unique per tenant (a gateway-level service rule:
        # the platform only requires uniqueness per compute host).
        requested = [name] if count == 1 else [f"{name}-{i}" for i in range(count)]
        for short_name in requested:
            if self.cloud.find_vm(tenant.qualify(short_name)) is not None:
                raise GatewayError(
                    f"instance {short_name!r} already exists for tenant {tenant.name!r}"
                )

        # One batched submission: the INITIALIZED documents group-commit in
        # a single store write per owning shard and the requests enqueue in
        # one queue write (submit-side batching).
        specs = [
            {"vm_name": tenant.qualify(short_name), "image_template": template, "mem_mb": mem}
            for short_name in requested
        ]
        txns = self.cloud.spawn_vms(specs)
        instances = []
        txids = []
        all_ok = True
        for spec, txn in zip(specs, txns):
            txids.append(txn.txid)
            committed = txn.state is TransactionState.COMMITTED
            all_ok = all_ok and committed
            instances.append(
                {
                    "instance": tenant.unqualify(spec["vm_name"]),
                    "state": "running" if committed else "failed",
                    "txid": txn.txid,
                    "error": txn.error,
                }
            )
        return ApiResponse(
            ok=all_ok,
            action="RunInstances",
            code="OK" if all_ok else "OperationAborted",
            data={"instances": instances},
            error=None if all_ok else "one or more instances could not be provisioned",
            txids=txids,
        )

    def _lifecycle(self, tenant: Tenant, names: list[str] | str, method: str,
                   action: str) -> ApiResponse:
        if isinstance(names, str):
            names = [names]
        results = []
        txids = []
        all_ok = True
        for name in names:
            qualified = self._owned_vm(tenant, name)
            txn: Transaction = getattr(self.cloud, method)(qualified)
            txids.append(txn.txid)
            ok = txn.state is TransactionState.COMMITTED
            all_ok = all_ok and ok
            results.append({"instance": name, "ok": ok, "error": txn.error})
        return ApiResponse(
            ok=all_ok,
            action=action,
            code="OK" if all_ok else "OperationAborted",
            data={"results": results},
            error=None if all_ok else "one or more operations aborted",
            txids=txids,
        )

    def _terminate_instances(self, tenant: Tenant, names: list[str] | str) -> ApiResponse:
        return self._lifecycle(tenant, names, "destroy_vm", "TerminateInstances")

    def _start_instances(self, tenant: Tenant, names: list[str] | str) -> ApiResponse:
        return self._lifecycle(tenant, names, "start_vm", "StartInstances")

    def _stop_instances(self, tenant: Tenant, names: list[str] | str) -> ApiResponse:
        return self._lifecycle(tenant, names, "stop_vm", "StopInstances")

    def _describe_instances(self, tenant: Tenant) -> ApiResponse:
        instances = [
            {
                "instance": tenant.unqualify(record.name),
                "state": record.state,
                "mem_mb": record.mem_mb,
                "host": record.host,
            }
            for record in self._tenant_vms(tenant)
        ]
        return ApiResponse(ok=True, action="DescribeInstances", data={"instances": instances})

    def _create_snapshot(self, tenant: Tenant, name: str, snapshot_name: str) -> ApiResponse:
        qualified = self._owned_vm(tenant, name)
        snapshot = tenant.qualify(snapshot_name)
        txn = self.cloud.snapshot_vm(qualified, snapshot)
        ok = txn.state is TransactionState.COMMITTED
        return ApiResponse(
            ok=ok,
            action="CreateSnapshot",
            code="OK" if ok else "OperationAborted",
            data={"snapshot": snapshot_name} if ok else None,
            error=txn.error,
            txids=[txn.txid],
        )

    def _migrate_instance(self, tenant: Tenant, name: str,
                          dst_host: str | None = None) -> ApiResponse:
        qualified = self._owned_vm(tenant, name)
        txn = self.cloud.migrate_vm(qualified, dst_host=dst_host)
        ok = txn.state is TransactionState.COMMITTED
        record = self.cloud.find_vm(qualified)
        return ApiResponse(
            ok=ok,
            action="MigrateInstance",
            code="OK" if ok else "OperationAborted",
            data={"instance": name, "host": record.host if record else None},
            error=txn.error,
            txids=[txn.txid],
        )

    def _describe_hosts(self, tenant: Tenant) -> ApiResponse:
        return ApiResponse(ok=True, action="DescribeHosts",
                           data={"hosts": self.cloud.host_utilisation()})

    # ------------------------------------------------------------------
    # Volume actions
    # ------------------------------------------------------------------

    def _create_volume(self, tenant: Tenant, name: str, size_gb: float) -> ApiResponse:
        if float(size_gb) <= 0:
            raise GatewayError("size_gb must be positive")
        self._check_volume_quota(tenant, new_volumes=1, new_gb=float(size_gb))
        txn = self.cloud.create_volume(tenant.qualify(name), float(size_gb))
        ok = txn.state is TransactionState.COMMITTED
        return ApiResponse(
            ok=ok,
            action="CreateVolume",
            code="OK" if ok else "OperationAborted",
            data={"volume": name, "size_gb": float(size_gb)} if ok else None,
            error=txn.error,
            txids=[txn.txid],
        )

    def _delete_volume(self, tenant: Tenant, name: str) -> ApiResponse:
        qualified = self._owned_volume(tenant, name)
        txn = self.cloud.delete_volume(qualified)
        ok = txn.state is TransactionState.COMMITTED
        return ApiResponse(ok=ok, action="DeleteVolume",
                           code="OK" if ok else "OperationAborted",
                           data={"volume": name}, error=txn.error, txids=[txn.txid])

    def _attach_volume(self, tenant: Tenant, volume: str, instance: str) -> ApiResponse:
        qualified_volume = self._owned_volume(tenant, volume)
        qualified_vm = self._owned_vm(tenant, instance)
        txn = self.cloud.attach_volume(qualified_volume, qualified_vm)
        ok = txn.state is TransactionState.COMMITTED
        return ApiResponse(ok=ok, action="AttachVolume",
                           code="OK" if ok else "OperationAborted",
                           data={"volume": volume, "instance": instance},
                           error=txn.error, txids=[txn.txid])

    def _detach_volume(self, tenant: Tenant, volume: str, instance: str) -> ApiResponse:
        qualified_volume = self._owned_volume(tenant, volume)
        qualified_vm = self._owned_vm(tenant, instance)
        txn = self.cloud.detach_volume(qualified_volume, qualified_vm)
        ok = txn.state is TransactionState.COMMITTED
        return ApiResponse(ok=ok, action="DetachVolume",
                           code="OK" if ok else "OperationAborted",
                           data={"volume": volume, "instance": instance},
                           error=txn.error, txids=[txn.txid])

    def _describe_volumes(self, tenant: Tenant) -> ApiResponse:
        volumes = [
            {
                "volume": tenant.unqualify(record.name),
                "size_gb": record.size_gb,
                "attached_to": (
                    tenant.unqualify(record.attached_to.rsplit("/", 1)[-1])
                    if record.attached_to
                    else None
                ),
            }
            for record in self._tenant_volumes(tenant)
        ]
        return ApiResponse(ok=True, action="DescribeVolumes", data={"volumes": volumes})
