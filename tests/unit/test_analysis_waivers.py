"""Waiver enforcement, the analyzer's exit status and the repo-tree
self-check: the checked-in tree has no unwaived finding, its lock graph
is acyclic, and every rule is documented."""

from pathlib import Path

import pytest

from repro.analysis import rules
from repro.analysis.__main__ import main
from repro.analysis.checkers import RULE_WAIVER, run_checkers
from repro.analysis.core import Finding, index_from_sources, load_index
from repro.analysis.lockgraph import build_lock_graph

REPO_ROOT = Path(__file__).resolve().parents[2]


def finding(rule="blocking-under-lock", module="repro.fix.m", qual="C.f", detail="C._l"):
    return Finding(
        rule=rule, module=module, qualname=qual, lineno=10,
        message="fixture finding", detail=detail,
    )


class TestFindingKeys:
    def test_keys_are_stable_across_line_moves(self):
        a = finding()
        b = finding()
        b.lineno = 99
        assert a.key == b.key


WAIVER_NO_WHY = '''
import threading

class Proxy:
    def __init__(self, client):
        self.client = client
        self._lock = threading.Lock()

    def fetch(self):
        with self._lock:  # repro: allow(blocking-under-lock)
            return self.client.get_data("/a")
'''


WAIVED = WAIVER_NO_WHY.replace(
    "# repro: allow(blocking-under-lock)",
    "# repro: allow(blocking-under-lock) -- fixture",
)
UNWAIVED = WAIVER_NO_WHY.replace("  # repro: allow(blocking-under-lock)", "")


class TestExitStatus:
    """``python -m repro.analysis`` fails on any finding not waived inline."""

    @staticmethod
    def run(tmp_path, source):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "proxy.py").write_text(source, encoding="utf-8")
        return main([str(package)])

    def test_one_unwaived_finding_fails(self, tmp_path, capsys):
        assert self.run(tmp_path, UNWAIVED) == 1
        assert "[blocking-under-lock]" in capsys.readouterr().out

    def test_a_justified_waiver_passes(self, tmp_path, capsys):
        assert self.run(tmp_path, WAIVED) == 0
        assert "analysis: clean (1 waived)" in capsys.readouterr().out

    def test_a_waiver_without_justification_fails(self, tmp_path):
        assert self.run(tmp_path, WAIVER_NO_WHY) == 1


class TestWaiverEnforcement:
    def test_waiver_without_justification_is_itself_a_finding(self):
        findings = run_checkers(
            index_from_sources({"repro.fix.w": WAIVER_NO_WHY}), only=["blocking"]
        )
        rules_seen = sorted(f.rule for f in findings)
        assert rules_seen == ["blocking-under-lock", RULE_WAIVER]
        waived = [f for f in findings if f.rule == "blocking-under-lock"]
        assert waived[0].waived  # suppressed ...
        nojust = [f for f in findings if f.rule == RULE_WAIVER]
        assert not nojust[0].waived  # ... but the missing justification is not


@pytest.fixture(scope="module")
def repo_index():
    return load_index(REPO_ROOT / "src" / "repro")


class TestRepoTreeSelfCheck:
    def test_repo_has_no_unwaived_finding(self, repo_index):
        active = [f for f in run_checkers(repo_index) if not f.waived]
        assert not active, "unwaived findings:" + "".join(
            f"\n  {f.location()} [{f.rule}] {f.message}" for f in active
        )

    def test_every_waiver_carries_a_justification(self, repo_index):
        findings = run_checkers(repo_index)
        for f in findings:
            if f.waived:
                assert f.waiver.justification.strip(), (
                    f"waiver without justification at {f.location()}"
                )

    def test_waived_findings_are_pinned(self, repo_index):
        """Adding or dropping a waiver shows up as a reviewed change here."""
        waived = sorted(
            "::".join((f.rule, f.module, f.qualname))
            for f in run_checkers(repo_index)
            if f.waived
        )
        assert waived == [
            "blocking-under-lock::repro.core.controller::Controller._commit",
            "blocking-under-lock::repro.core.platform::TropicPlatform._heal_sessions",
            "blocking-under-lock::repro.core.replica::ReadReplica.early_apply",
            "blocking-under-lock::repro.core.replica::ReadReplica.refresh",
            "blocking-under-lock::repro.core.replica::ReadReplica.snapshot",
        ]

    def test_static_lock_graph_has_no_unwaived_cycles(self, repo_index):
        graph = build_lock_graph(repo_index)
        assert graph.cycles() == [], f"lock-order cycles: {graph.cycles()}"


class TestRuleCatalog:
    def test_every_rule_id_is_documented(self):
        catalog = (REPO_ROOT / "docs" / "development.md").read_text(encoding="utf-8")
        for rule_id in rules.ALL_RULES:
            assert f"`{rule_id}`" in catalog, (
                f"rule {rule_id} missing from docs/development.md"
            )

    def test_checker_rule_constants_are_all_registered(self):
        from repro.analysis import checkers, lockgraph

        emitted = {
            checkers.RULE_BLOCKING,
            checkers.RULE_COW,
            checkers.RULE_KV,
            checkers.RULE_STATE_ASSIGN,
            checkers.RULE_STATE_EDGE,
            checkers.RULE_SWALLOW,
            checkers.RULE_ACK,
            checkers.RULE_WAIVER,
            lockgraph.RULE_CYCLE,
            lockgraph.RULE_SELF_DEADLOCK,
            lockgraph.RULE_NAME_MISMATCH,
        }
        assert emitted == set(rules.ALL_RULES)
