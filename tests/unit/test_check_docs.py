"""``scripts/check_docs.py``'s configuration and code-name checks: the
"Configuration" table of ``docs/operations.md`` must have one row per
``TropicConfig`` field and no row for a field that does not exist, and
every backticked code name in the docs must name live code or a file."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

CONFIG = '''
from dataclasses import dataclass


@dataclass
class TropicConfig:
    """Knobs."""

    num_shards: int = 1
    read_mode: str = "replica"

    def validate(self) -> None:
        pass
'''


def _operations(*fields: str) -> str:
    rows = "\n".join(f"| `{name}` | 1 | does a thing | tests only |" for name in fields)
    return (
        "# Operations\n\n## Configuration\n\n"
        "| Field | Default | What it does | Set by |\n| --- | --- | --- | --- |\n"
        f"{rows}\n\n"
        "## Read modes\n\n"
        "| Mode | Use when |\n| --- | --- |\n| `replica` | not a config row |\n"
    )


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfigTable:
    def test_the_repo_documents_every_field(self, check_docs):
        config = check_docs.CONFIG_SOURCE.read_text(encoding="utf-8")
        operations = check_docs.OPERATIONS_DOC.read_text(encoding="utf-8")
        assert check_docs.check_config_table(config, operations) == []
        assert len(check_docs.config_fields(config)) == 13

    def test_a_field_without_a_row_fails(self, check_docs):
        errors = check_docs.check_config_table(CONFIG, _operations("num_shards"))
        assert len(errors) == 1
        assert "read_mode" in errors[0]

    def test_a_row_naming_a_deleted_field_fails(self, check_docs):
        errors = check_docs.check_config_table(
            CONFIG, _operations("num_shards", "read_mode", "worker_threads")
        )
        assert len(errors) == 1
        assert "worker_threads" in errors[0]


class TestCodeNames:
    DOC = (
        "Call `fleet_view(consistency=...)` or read `FleetView.watermarks`;\n"
        "`pyproject.toml` and `bench_writepath` are files; `plain` and\n"
        "`a/b.md` are not code names.\n"
        "```\n`units_gone` inside a fence is code, not prose\n```\n"
        "The cache asks `ReadReplica.units_gone` which units changed.\n"
    )

    def test_code_names_are_dotted_underscored_or_called(self, check_docs):
        assert check_docs.code_names(self.DOC) == [
            (1, "fleet_view"),
            (1, "FleetView.watermarks"),
            (2, "pyproject.toml"),
            (2, "bench_writepath"),
            (7, "ReadReplica.units_gone"),
        ]

    def test_a_stale_name_fails(self, check_docs):
        errors = check_docs.check_code_names(
            {"docs/x.md": self.DOC},
            {"fleet_view", "watermarks"},
            {"pyproject.toml", "bench_writepath"},
        )
        assert errors == [
            "docs/x.md:7: `ReadReplica.units_gone` names no identifier or "
            "file in the repo"
        ]

    def test_a_file_stem_passes(self, check_docs):
        doc = "See `bench_sec64_failover` and `pyproject.toml`.\n"
        assert check_docs.check_code_names({"docs/x.md": doc}, set(), set()) != []
        assert check_docs.check_code_names(
            {"docs/x.md": doc}, set(), check_docs.repo_file_names()
        ) == []

    def test_the_repo_names_only_live_code(self, check_docs):
        docs = {
            str(doc.relative_to(REPO)): doc.read_text(encoding="utf-8")
            for doc in check_docs.NAMED_DOCS
        }
        assert check_docs.check_code_names(
            docs, check_docs.code_identifiers(), check_docs.repo_file_names()
        ) == []
