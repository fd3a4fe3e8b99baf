"""Self-tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest -q estbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from repro import MaxQueries  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import ENTRY_POINTS, Tracer, layer_table, self_times  # noqa: E402


def _raw(ep):
    owner, attr = layers.resolve(ep)
    return vars(owner)[attr]


def test_wrappers_install_and_restore_the_originals():
    originals = [_raw(ep) for ep in ENTRY_POINTS]
    tracer = Tracer()
    with tracer:
        wrapped = [_raw(ep) for ep in ENTRY_POINTS]
        for ep, before, now in zip(ENTRY_POINTS, originals, wrapped):
            assert now is not before, ep
            assert isinstance(now, staticmethod) == isinstance(before, staticmethod), ep
    assert [_raw(ep) for ep in ENTRY_POINTS] == originals
    assert all(a is b for a, b in zip((_raw(ep) for ep in ENTRY_POINTS), originals))


def test_a_failed_install_restores_what_it_wrapped():
    originals = [_raw(ep) for ep in ENTRY_POINTS]
    bad = ENTRY_POINTS + (layers.EntryPoint("x", "repro.core.history", "NoSuchThing"),)
    with pytest.raises(KeyError):
        Tracer().install(bad)
    assert all(a is b for a, b in zip((_raw(ep) for ep in ENTRY_POINTS), originals))


def test_spans_nest_and_close_on_exceptions():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError
        return x

    leaf_t = tracer.wrap("leaf", leaf)
    outer_t = tracer.wrap("outer", lambda: [leaf_t(1), leaf_t(2)])
    with tracer.span("root"):
        outer_t()
        with pytest.raises(ValueError):
            leaf_t(-1)
    names = [s[layers.NAME] for s in tracer.spans]
    parents = [s[layers.PARENT] for s in tracer.spans]
    assert names == ["root", "outer", "leaf", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1, 0]
    assert all(s[layers.END] >= s[layers.START] for s in tracer.spans)


def test_self_time_arithmetic():
    #            name     start end  parent sample info
    spans = [["root", 0.0, 10.0, -1, 0, None],
             ["a", 1.0, 5.0, 0, 0, None],
             ["b", 2.0, 3.0, 1, 0, None],
             ["b", 3.5, 4.0, 1, 0, None],
             ["a", 6.0, 9.0, 0, 1, None]]
    assert self_times(spans) == [3.0, 2.5, 1.0, 0.5, 3.0]
    table = layer_table(spans)
    assert table["a"] == {"calls": 2, "total_s": 7.0, "self_s": 5.5}
    assert table["b"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert sum(r["self_s"] for r in table.values()) == spans[0][2] - spans[0][1]


def test_world_seeds_and_their_mean_of_medians():
    assert run.world_seeds(2) == [6, 7, 8]
    assert set(run.world_seeds(1)).isdisjoint(run.world_seeds(2))
    rows = [(6, {"x": 1.0}), (7, {"x": 10.0}), (6, {"x": 3.0}), (6, {"x": 100.0}),
            (8, {"x": 4.0})]
    # medians 3, 10 and 4, one per world, averaged
    assert run.seed_mean_of_medians(rows) == {"x": pytest.approx(17 / 3)}


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    names = set(layers.layer_metrics([], 0)) | {
        "core.history.sites_known", "core.history.answers_held",
        "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in names}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


REDUCED = {"lr-clustered": MaxQueries(400), "lnr-uniform": MaxQueries(2500)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_on_a_reduced_budget(name):
    w = dataclasses.replace(workloads.WORKLOADS[name], stop=REDUCED[name])
    tracer = Tracer()
    with tracer:
        rnd = workloads.run_round(w, 3, tracer=tracer, keep_world=True)
    assert rnd.failures == []
    metrics = layers.layer_metrics(tracer.spans, rnd.samples)
    assert metrics["lbs.interface.queries"] == rnd.queries
    self_sum = sum(r["self_s"] for r in layer_table(tracer.spans).values())
    assert self_sum == pytest.approx(rnd.round_s, rel=run.SELF_SUM_RTOL)
    if w.method == "lr":
        assert metrics["core.voronoi_oracle.cells"] > 0
        assert workloads.check_exact_cells(tracer.spans, rnd.world, count=1) == []
    else:
        assert metrics["core.lnr_cell.cells"] > 0


def test_exact_cell_check_catches_a_wrong_area():
    w = dataclasses.replace(workloads.WORKLOADS["lr-clustered"], stop=MaxQueries(200))
    tracer = Tracer()
    with tracer:
        rnd = workloads.run_round(w, 2, tracer=tracer, keep_world=True)
    spans = [list(s) for s in tracer.spans]
    exact = [s for s in spans if s[layers.NAME] == "core.voronoi_oracle" and s[layers.INFO][0]]
    first, second = exact[0], exact[1]
    # Give the first cell the second cell's region.
    first[layers.INFO] = first[layers.INFO][:4] + second[layers.INFO][4:]
    assert workloads.check_exact_cells(spans, rnd.world, count=1)


def test_the_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lnr-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
