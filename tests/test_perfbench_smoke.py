"""The benchmark's four workloads still run against the package.

``perfbench/`` calls ``experiments.lantern_experiment``,
``optimized_fanout_efficiency(optimizer=...)``, ``OptimizerConfig(...,
seed=...)``, ``ove design`` and ``ove propagate``. One repetition of each
workload at one step checks that every one of those calls still works
and that the workload's own output checks find no problem.
"""

import importlib
from pathlib import Path

import pytest

from ove import cli, experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["lantern", "fanout", "layered", "propagate"])
def test_one_repetition_has_no_problems(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    # The probe replaces ``optimize`` in both modules; saving them first
    # lets monkeypatch put the originals back.
    monkeypatch.setattr(experiments, "optimize", experiments.optimize)
    monkeypatch.setattr(cli, "optimize", cli.optimize)
    probe = workloads.OptimizeProbe()
    probe.install()
    workload = workloads.WORKLOADS[name](1, str(tmp_path), probe, 1)
    rep = workload.repetition()
    assert rep.problems == []
    assert rep.steps == 1
