from __future__ import annotations

from pathlib import Path

import pytest

# pytest rewrites the asserts of test modules and conftest only; rewriting
# the shared helpers too keeps their checks under `python -O`
pytest.register_assert_rewrite("helpers")

from ionpd.qasm import parse_qasm  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def code932():
    """The 20-instruction nine-qubit encoder used as the worked example."""
    return parse_qasm((ROOT / "circuits" / "code_9_3_2.qasm").read_text())


@pytest.fixture(scope="session")
def table3_schedule_path():
    return FIXTURES / "table3_schedule.json"
