#!/usr/bin/env python3
"""End-to-end benchmark of the zrc-eval subcommands, with per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload abx-dense --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``):

* ``abx-dense``   - ``abx`` within and across, angular distance, 64-dim
                    frames, 8 centre phones per context: DTW-kernel bound.
* ``abx-units``   - ``abx`` within and across, KL distance over one-hot
                    units, short tokens, many small cells: per-pair and
                    cost-matrix bound, very tie-heavy.
* ``lm-pipeline`` - kmeans-train, quantize, ngram-train, score-lexical,
                    score-syntactic, score-semantic and both sample-pairs
                    modes; never touches ``distance``, DTW or ``abx``.

The run is a closed loop with one caller: each set-up writes the inputs
through the library's writers, and each pass runs the workload's
subcommands back to back through ``zrc_eval.cli.main(argv)`` in this one
single-threaded process, until ``--seconds`` have passed (at least
``MIN_PASSES`` passes). BLAS is pinned to ``BLAS_THREADS`` threads.

Every invocation is checked: exit code 0, codebook/unit/assignment files
byte-identical across passes, report ``aggregate``/``subsets`` values
identical across passes, seed-independent facts (subset keys, value
ranges, row counts), independent recomputations (``oracles.py``: one
phone pair of each abx-dense report, nearest-centroid units, lexical and
syntactic accuracies), and for the default seed the values recorded in
``expected.json`` (compared only on a host whose CPU model, numpy, scipy
and BLAS thread count match the recorded ones, since another SIMD path
may round differently). Those default-seed values are compared on every
run: before measuring, one untimed reference pass runs the workload at
the default seed, whatever ``--seed`` is; it also warms the process up.
A failed check counts the invocation as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``pass_s``
(median pass) and ``peak_rss_mb``. ``setup_s`` is the median set-up,
each a fresh import of the package plus writing every input. Set-ups are
spread over the measured time: before every pass, set-ups repeat until
``SETUP_SLICE`` seconds have gone, so that the median covers the same
stretch of time as ``pass_s``. One untimed import comes first, so that
the one-off import of numpy and scipy is left out. The median, minimum,
maximum and count of every subcommand's time are printed above the
result line.

``--trace 1`` alternates untraced passes with traced ones, in which
``spans.Tracer`` wraps each layer's public functions from outside. It
reports per-layer counts and times (medians over traced passes), the
tracing overhead (median traced minus median untraced ``pass_s``) and,
as ``cmd.<subcommand>_s``, the median untraced time of every subcommand
(0 on workloads that do not run it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("ZRC_EVAL_THREADS", None)  # the abx default thread count

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0

SETUP_SLICE = 0.5  # seconds of set-ups (at least one) before every pass
MIN_PASSES = 3
LIB_MODULES = ("cli", "io_formats", "types", "distance", "abx", "quantizer",
               "scoring", "metrics", "sampler")


def import_fresh() -> SimpleNamespace:
    """Import the package anew, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "zrc_eval" or m.startswith("zrc_eval.")]:
        del sys.modules[name]
    importlib.import_module("zrc_eval")
    return SimpleNamespace(**{name: importlib.import_module(f"zrc_eval.{name}")
                              for name in LIB_MODULES})


def host_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas_threads": BLAS_THREADS}


# host facts that can change floating-point results, and so expected.json
RESULT_HOST_KEYS = ("cpu", "numpy", "scipy", "blas_threads")


class Checker:
    """Runs each subcommand's checks on its first good outputs, then
    compares every later pass with those, and with the recorded expected
    values when there are any."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.first: dict = {}
        self.problems: list = []

    def observe(self, cmd) -> dict:
        seen = {}
        if cmd.report:
            seen["report"] = workloads.report_values(cmd.report)
        if cmd.artifacts:
            seen["artifacts"] = {Path(p).name: workloads.digest(p)
                                 for p in cmd.artifacts}
        return seen

    def check(self, cmd, code) -> bool:
        if code != 0:
            return self._fail(f"{cmd.metric}: exit code {code}")
        try:
            seen = self.observe(cmd)
            # later passes must equal the first, so the checks run once
            problems = [] if cmd.metric in self.first else [
                p for p in (check() for check in cmd.checks) if p]
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(f"{cmd.metric}: unreadable output ({exc})")
        if problems:
            return self._fail(f"{cmd.metric}: {problems[0]}")
        first = self.first.setdefault(cmd.metric, seen)
        if seen != first:
            return self._fail(f"{cmd.metric}: output differs from the first pass")
        if self.expected is not None and seen != self.expected.get(cmd.metric):
            return self._fail(f"{cmd.metric}: output differs from expected.json")
        return True

    def _fail(self, message: str) -> bool:
        self.problems.append(message)
        return False


class Target:
    """One seed of a workload: its inputs, its commands and their checker."""

    def __init__(self, name: str, seed: int, work: Path, expected: dict | None):
        self.raw = workloads.generate(name, seed)
        self.inputs = work / "inputs"
        self.out = work / "outputs"
        self.commands = workloads.commands(name, self.raw, self.inputs,
                                           self.out, seed)
        self.checker = Checker(expected)


def load_expected(name: str) -> dict | None:
    """The default-seed values of ``name``, if recorded on a host like this."""
    doc = json.loads(EXPECTED.read_text())
    if doc.get("host") != result_host():
        print(f"# expected.json was recorded on {doc.get('host')}; "
              f"default-seed values not compared on {result_host()}")
        return None
    return doc[name]


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.name = args.workload
        self.work = work
        self.tracer = spans.Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.setup_times: list = []
        self.passes: list = []  # (traced, pass_s, {metric: s}, layer totals)
        self.setup_layers: list = []  # layer totals of each traced set-up

    def check_reference(self) -> None:
        """Untimed warm-up: the first import of the package (and of numpy
        and scipy), then one pass at the default seed, compared with
        expected.json."""
        self.lib = import_fresh()
        reference = Target(self.name, DEFAULT_SEED, self.work / "reference",
                           load_expected(self.name))
        workloads.write(self.lib, self.name, reference.raw, reference.inputs)
        self.run_pass(reference, traced=False)
        self.problems = [f"default seed: {p}" for p in reference.checker.problems]
        shutil.rmtree(self.work / "reference", ignore_errors=True)
        del reference  # before the measured inputs exist, for peak_rss_mb
        self.target = Target(self.name, self.args.seed, self.work / "measured", None)

    def setup(self) -> None:
        """One timed set-up: a fresh import and writing every input."""
        target = self.target
        i = len(self.setup_times)
        shutil.rmtree(target.inputs, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        lib = import_fresh()
        if self.tracer:
            self.tracer.install(lib)
            self.tracer.begin(f"setup{i}")
        workloads.write(lib, self.name, target.raw, target.inputs)
        if self.tracer:
            self.tracer.finish()
            self.tracer.uninstall()
            self.setup_layers.append(spans.layer_totals(self.tracer.take()))
        self.setup_times.append(time.perf_counter() - start)
        self.lib = lib

    def setup_slice(self) -> None:
        deadline = time.perf_counter() + SETUP_SLICE
        self.setup()
        while time.perf_counter() < deadline:
            self.setup()

    def run_pass(self, target: Target, traced: bool):
        """Runs the target's commands once and checks their outputs;
        returns (pass_s, {metric: s}, layer totals or None)."""
        shutil.rmtree(target.out, ignore_errors=True)
        target.out.mkdir(parents=True)
        gc.collect()  # start every pass from a collected heap
        index = len(self.passes)
        times, codes, totals = {}, {}, None
        if traced:
            self.tracer.install(self.lib)
        start = time.perf_counter()
        for cmd in target.commands:
            invocation = f"pass{index}:{cmd.metric}"
            if traced:
                self.tracer.begin(invocation)
            t0 = time.perf_counter()
            try:
                codes[cmd.metric] = self.lib.cli.main(cmd.argv)
            except Exception as exc:  # a traceback is a failed invocation
                codes[cmd.metric] = f"{type(exc).__name__}: {exc}"
            times[cmd.metric] = time.perf_counter() - t0
            if traced:
                self.tracer.finish()
        pass_s = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
            totals = spans.layer_totals(self.tracer.take())
        for cmd in target.commands:
            self.attempted += 1
            if not target.checker.check(cmd, codes[cmd.metric]):
                self.failed += 1
        return pass_s, times, totals

    def measure(self) -> None:
        kinds = (False, True) if self.args.trace else (False,)
        deadline = time.perf_counter() + self.args.seconds
        while len(self.passes) < MIN_PASSES * len(kinds) or time.perf_counter() < deadline:
            self.setup_slice()
            for traced in kinds:
                self.passes.append((traced, *self.run_pass(self.target, traced)))

    # -- results ---------------------------------------------------------------

    def timings(self, traced: bool) -> dict:
        """metric -> list of per-pass seconds, for passes of one kind."""
        out: dict = {"pass_s": []}
        for was_traced, pass_s, times, _ in self.passes:
            if was_traced == traced:
                out["pass_s"].append(pass_s)
                for metric, value in times.items():
                    out.setdefault(metric, []).append(value)
        return out

    def layer_metrics(self) -> dict:
        per_pass = [totals for traced, _, _, totals in self.passes if traced]
        values = {name: statistics.median(p.get(name, 0) for p in per_pass)
                  for name in spans.PASS_METRICS}

        setups = self.setup_layers
        values["io_formats.setup_write_s"] = statistics.median(
            s.get("io_formats.write_s", 0) for s in setups)
        values["io_formats.setup_write_mb"] = statistics.median(
            s.get("io_formats.write_mb", 0) for s in setups)

        for key in ("cells", "comparisons", "distance_requests"):
            values[f"abx.{key}"] = 0
        if self.name in workloads.ABX_SHAPES:
            for mode in ("within", "across"):
                plan = workloads.abx_cells(self.target.raw["rows"], mode)
                for key in ("cells", "comparisons", "distance_requests"):
                    values[f"abx.{key}"] += plan[key]
        requests = values["abx.distance_requests"]
        values["abx.reuse_ratio"] = (
            1.0 - values["abx.distance_computed"] / requests if requests else 0.0)
        untraced = self.timings(False)
        values["trace.overhead_s"] = (
            statistics.median(self.timings(True)["pass_s"])
            - statistics.median(untraced["pass_s"]))
        for metric in workloads.COMMAND_METRICS:
            values[f"cmd.{metric}"] = (statistics.median(untraced[metric])
                                       if metric in untraced else 0.0)

        dropped = {m for patch in self.tracer.missing
                   for m in spans.layer_metrics(patch)}
        return {name: {"value": values[name], "unit": spans.unit(name)}
                for name in per_layer_names() if name not in dropped}


def per_layer_names() -> list:
    """Every ``--trace 1`` metric, in the order BENCHMARK.json lists them."""
    return (list(spans.PASS_METRICS)
            + ["io_formats.setup_write_s", "io_formats.setup_write_mb",
               "abx.cells", "abx.comparisons", "abx.distance_requests",
               "abx.reuse_ratio", "trace.overhead_s"]
            + [f"cmd.{metric}" for metric in workloads.COMMAND_METRICS])


def print_table(title: str, rows) -> None:
    print(f"# {title}")
    print(f"#   {'metric':<20} {'median':>10} {'min':>10} {'max':>10} {'n':>4}  unit")
    for name, values, unit in rows:
        print(f"#   {name:<20} {statistics.median(values):>10.6f} "
              f"{min(values):>10.6f} {max(values):>10.6f} {len(values):>4}  {unit}")


def result_host() -> dict:
    facts = host_facts()
    return {key: facts[key] for key in RESULT_HOST_KEYS}


def run(args, work: Path) -> dict:
    bench = Bench(args, work)
    bench.check_reference()
    facts = dict(host_facts(), seed=args.seed,
                 kernel_backend=getattr(bench.lib.distance, "KERNEL_BACKEND", None))
    print("# provenance " + json.dumps(facts))
    print("# sizes " + json.dumps(workloads.sizes(args.workload, bench.target.raw)))
    bench.measure()

    untraced = bench.timings(False)
    setup_times = bench.setup_times
    rows = [("setup_s", setup_times, "s")]
    rows += [(name, values, "s") for name, values in untraced.items()]
    print_table(f"{args.workload}, untraced passes (closed loop, 1 caller)", rows)
    failed_frac = bench.failed / bench.attempted
    print(f"#   failed_frac {failed_frac:.6f} ({bench.failed}/{bench.attempted})")
    for problem in (bench.problems + bench.target.checker.problems)[:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = bench.layer_metrics()
        print(f"# per-layer metrics, median over traced passes "
              f"(missing patch points: {bench.tracer.missing or 'none'})")
        for name, metric in metrics.items():
            print(f"#   {name:<30} {metric['value']:>16.6f}  {metric['unit']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": statistics.median(untraced["pass_s"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zrc_eval" / "__init__.py").is_file():
        print(f"error: no zrc_eval package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
