"""BENCHMARK.json, the catalogue and compare.py agree."""

import json
import re

import compare
from harness import catalog, env
from harness.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue():
    committed = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert committed == catalog.manifest(
        [(workload.name, workload.why) for workload in WORKLOADS])


def test_manifest_obeys_the_contract_limits():
    document = catalog.manifest(
        [(workload.name, workload.why) for workload in WORKLOADS])
    assert set(document) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])
    setup = document["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == (
        "setup_s", "s", "lower")
    bounds = [entry["bound"] for entry in document["end_to_end"]]
    assert max(bounds) == setup["bound"] <= 0.25 and min(bounds) > 0
    assert 1 <= document["run_seconds"] <= 60
    assert len(json.dumps(document)) < 64 * 1024


def _summary(*values):
    from harness.stats import summarise
    return summarise(values)


def test_compare_applies_direction_bound_and_spread():
    rate = catalog.end_to_end_by_name()["rounds_per_s"]   # higher, 10%
    wall = catalog.end_to_end_by_name()["run_wall_s"]     # lower, 10%
    steady = _summary(10.0, 10.1, 9.9)
    assert compare.judge(rate, steady, _summary(9.5, 9.6, 9.4))[1] == "ok"
    assert compare.judge(
        rate, steady, _summary(8.0, 8.1, 7.9))[1] == "REGRESSION"
    assert compare.judge(wall, steady, _summary(8.0, 8.1, 7.9))[1] == "ok"
    assert compare.judge(
        wall, steady, _summary(12.0, 12.1, 11.9))[1] == "REGRESSION"
    noisy = _summary(10.0, 13.0, 8.0)
    assert compare.judge(wall, noisy, steady)[1] == "unresolved"
    # ... unless every run of B beats every run of A
    assert compare.judge(wall, noisy, _summary(5.0, 5.1, 4.9))[1] == "ok"


def _report(**end_to_end):
    return {"seed": 17, "seconds": 20, "quick": False, "workloads": {
        "w": {"end_to_end": {
            name: dict(_summary(*values), unit="x")
            for name, values in end_to_end.items()}}}}


def test_compare_skips_a_metric_null_on_both_sides(capsys):
    everywhere = {metric.name: (1.0, 1.0, 1.0)
                  for metric in catalog.END_TO_END}
    nulls = dict(everywhere)
    del nulls["sim_time_to_target_s"], nulls["wire_bytes_per_param"]
    assert compare.compare(_report(**nulls), _report(**nulls)) == 0
    assert "sim_time_to_target_s" not in capsys.readouterr().out
    # null on one side only: the metric went missing
    assert compare.compare(_report(**everywhere), _report(**nulls)) == 1
    assert compare.compare(_report(**nulls), _report(**everywhere)) == 1
