"""``scripts/check_docs.py``'s configuration check: the "Configuration"
table of ``docs/operations.md`` must have one row per ``TropicConfig``
field and no row for a field that does not exist."""

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
        assert len(check_docs.config_fields(config)) == 18

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
