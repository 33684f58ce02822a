"""Tests of the benchmark itself: python -m pytest bench"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import LAYERS  # noqa: E402

from gme_lab import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_runs_clean(name, tmp_path):
    res = run.measure(name, seed=3, seconds=0.0, trace=False, workdir=tmp_path, min_ops=2)
    assert res["attempted"] == 3
    assert res["failed"] == 0, res["mismatches"] + res["errors"]
    assert res["results"] > 0 and res["busy_s"] > 0
    assert not list(tmp_path.iterdir())       # dumped states are removed


def test_digest_repeats_for_equal_seed(tmp_path):
    first = run.measure("isotropic", 5, 0.0, False, tmp_path, min_ops=run.DIGEST_OPS)
    again = run.measure("isotropic", 5, 0.0, False, tmp_path, min_ops=run.DIGEST_OPS)
    other = run.measure("isotropic", 6, 0.0, False, tmp_path, min_ops=run.DIGEST_OPS)
    assert first["output_sha256"] is not None
    assert first["output_sha256"] == again["output_sha256"] != other["output_sha256"]


def _op(name, tmp_path, seed=4):
    w = wl.WORKLOADS[name]
    q = wl.params(w, seed, 1)
    outs = [wl.run_cli(cli.main, argv).out for argv in w.argv(q, str(tmp_path / "s.json"))]
    assert w.check(q, outs) == []
    return w, q, outs


def _perturb_number(text, row, col):
    """Change one printed number of a CSV row in its sixth significant digit."""
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = format(float(rows[row][col]) * (1 + 1e-5) + 1e-9, ".12g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("name,call,row,col", [
    ("isotropic", 0, 40, 2),     # a k-copy threshold
    ("isotropic", 1, 50, 1),     # a concurrence value
    ("isotropic", 2, 3, 3),      # a decomposition weight
    ("ppt", 0, 17, 2),           # a PT minimum eigenvalue
    ("protocol", 0, 2, 3),       # a triangle witness value
    ("protocol", 1, 1, 4),       # a dense wedge witness value
])
def test_perturbed_row_is_caught(name, call, row, col, tmp_path):
    w, q, outs = _op(name, tmp_path)
    outs[call] = _perturb_number(outs[call], row, col)
    assert w.check(q, outs)


@pytest.mark.parametrize("name,call,old,new", [
    ("isotropic", 1, "true\n", "false\n"),
    ("isotropic", 2, ",true,", ",false,"),
    ("ppt", 0, "\n", "\n0,0|1,0.1,true\n"),
])
def test_perturbed_flag_or_row_count_is_caught(name, call, old, new, tmp_path):
    w, q, outs = _op(name, tmp_path)
    assert old in outs[call]
    outs[call] = outs[call].replace(old, new, 1)
    assert w.check(q, outs)


def test_perturbed_protocol_report_and_state_are_caught(tmp_path):
    w, q, outs = _op("protocol", tmp_path)
    report = json.loads(outs[2])
    report["step_probabilities"][1] += 1e-6
    assert wl.check_report(q, json.dumps(report))
    state = json.loads((tmp_path / "s.json").read_text())
    assert wl.check_state(q, json.dumps(state).encode()) == []
    state["re"][100][200] += 1e-9
    assert wl.check_state(q, json.dumps(state).encode())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_layer_self_times_add_up_to_traced_op_time(name, tmp_path):
    res = run.measure(name, seed=7, seconds=0.0, trace=True, workdir=tmp_path, min_ops=4)
    assert res["failed"] == 0
    m = res["tracer"].metrics()
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["unattributed_s"]
    assert total == pytest.approx(m["traced_op_s"], rel=1e-9)
    # The root span covers the timed op: they differ by the span bookkeeping only.
    traced = sum(res["traced_latencies"]) / len(res["traced_latencies"])
    assert abs(m["traced_op_s"] - traced) < 1e-3
    assert all(m[f"{layer}.errors"] == 0 for layer in LAYERS)
    assert m["cli.calls"] > 0 and m["unattributed_s"] < 0.01 * m["traced_op_s"]


def test_tracing_restores_every_function(tmp_path):
    from gme_lab import separability, states
    originals = (cli.main, separability.xform_to_dense, states.xform_to_dense)
    run.measure("ppt", 8, 0.0, True, tmp_path, min_ops=2)
    assert (cli.main, separability.xform_to_dense, states.xform_to_dense) == originals
    assert separability.xform_to_dense is states.xform_to_dense


def test_every_benchmark_metric_is_reported(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = run.measure("ppt", 9, 0.0, True, tmp_path, min_ops=2)
    names = set(res["tracer"].metrics()) | {"trace.overhead_s", "cli.bytes_out"}
    assert {m["name"] for m in spec["per_layer"]} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "tracing.py"):
        (bench / f).write_text((HERE / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ppt", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_carries_exactly_the_benchmark_metrics(trace, section, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "isotropic", "--seed", "2", "--seconds", "0",
                     "--trace", trace]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > run.MIN_OPS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
