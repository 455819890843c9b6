"""Every CLI report on the built-in fixtures matches the benchmark's golden
record (``perfbench/golden.json``): same exit code, no uncaught exception,
and a byte-identical stdout report.

The commands are the benchmark's ``cli-fixtures`` workload
(``perfbench/workloads.py``), built on a temporary directory and run
in-process through ``coralg.cli.main``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from coralg import cli, fixtures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["cli-fixtures"]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    workloads = _load_workloads()
    return workloads.CliFixtures({"cli": cli, "fixtures": fixtures},
                                 tmp_path_factory.mktemp("cli-fixtures"))


def test_golden_covers_every_command(workload):
    assert sorted(workload.items) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden(workload, key):
    output = workload.run(key)
    assert workload.verdict(key, output, GOLDEN[key])[0], (key, output["code"],
                                                           output["exception"])
