"""The benchmark harness runs every workload to a well-formed result.

Each workload runs once with a zero time budget (the minimum number of
passes plus the seed-0 reference pass), in its own process, exactly as
the benchmark command does. A library change that breaks a name the
harness imports, calls or wraps, or that changes a result, unit file,
codebook or assignment the harness checks, ends here as a non-zero exit,
a malformed last line or ``correct: false``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import zrc_eval

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_patch_point():
    # the tracer skips a patch point the library no longer has and leaves
    # its metrics out of the result; every one must still be there
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install(zrc_eval)
        assert tracer.missing == []
        assert tracer._patches
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["abx-dense", "abx-units", "lm-pipeline"])
def test_workload_reports_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["abx-dense", "abx-units"])
def test_traced_abx_runs_through_the_wrapped_kernel(workload):
    # perfbench times the DTW kernel by wrapping distance._kernel.dtw_accumulate,
    # and the cost stage by wrapping distance.frame_cost_matrix; the ABX engine
    # must still call them there for the dtw.* and distance.* metrics to count.
    # A traced run whose library writes to stdout, or whose patch points
    # went missing, ends without a well-formed result or with metrics left out
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *comments, last = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in comments), comments
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in listed if m["name"] not in metrics] == []
    assert metrics["dtw.kernel_calls"]["value"] > 0
    assert metrics["dtw.kernel_cells"]["value"] > 0
    # the cost stage is timed too: every cost cell is real, and the
    # kernel's cells include the chunks' padding
    assert metrics["distance.cost_matrix_calls"]["value"] > 0
    assert (0 < metrics["distance.cost_cells"]["value"]
            < metrics["dtw.kernel_cells"]["value"])


def test_traced_lm_pipeline_runs_through_the_wrapped_entry_points():
    # perfbench times the chain rule, quantize and pooling by wrapping
    # scoring.chain_rule_logprob, quantizer.quantize and metrics.pool; the
    # subcommands must still call them there for those metrics to count
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lm-pipeline",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in ("scoring.chain_rule_tokens", "quantizer.quantize_frames",
                 "metrics.pool_calls"):
        assert metrics[name]["value"] > 0, name
