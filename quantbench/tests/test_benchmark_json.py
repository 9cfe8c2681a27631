import json

from conftest import BENCH_DIR
from run import END_TO_END, WORKLOADS
from tracer import LAYER_METRICS
from worker import IMPORT_MODULES, TRACE_METRICS
from workloads import WORKLOADS as WORKLOAD_FUNCTIONS


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_FUNCTIONS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layers = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
    layers["import.interpreter_ms"] = "ms"
    layers.update((name, "ms") for name in IMPORT_MODULES)
    layers.update(TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
