"""Every CLI report on the built-in fixtures, and every relative cyclic
bicomplex of acceptance criterion 2, matches the benchmark's golden record
(``perfbench/golden.json``).

CLI reports: same exit code, no uncaught exception and a byte-identical
stdout report.  The commands are the benchmark's ``cli-fixtures`` workload
(``perfbench/workloads.py``), built on a temporary directory and run
in-process through ``coralg.cli.main``.

Bicomplexes: the ``bicomplex-fp`` and ``bicomplex-qq`` fingerprints (HC
dims, the d.d verdict and a digest of every total differential) of all six
pairs, computed through the same workload code.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from coralg import cli, cyclic, exactla, fixtures, ncalg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_ALL = json.loads((PERFBENCH / "golden.json").read_text())
GOLDEN = GOLDEN_ALL["cli-fixtures"]
BICOMPLEX_CASES = [(name, key) for name in ("bicomplex-fp", "bicomplex-qq")
                   for key in sorted(GOLDEN_ALL[name])]


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


@pytest.mark.parametrize("workload_name,key", BICOMPLEX_CASES)
def test_bicomplex_matches_golden(workload_name, key):
    lib = {"cyclic": cyclic, "exactla": exactla, "fixtures": fixtures, "ncalg": ncalg}
    bicomplex = _load_workloads().Bicomplex(lib, workload_name.removeprefix("bicomplex-"))
    output = bicomplex.run(key)
    assert bicomplex.fingerprint(key, output) == GOLDEN_ALL[workload_name][key]
