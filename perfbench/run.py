"""Benchmark of the thirdopt library: closed-loop workloads, checked outputs, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_2d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One invocation runs one workload in this process as a closed loop: one client, no
threads, the next op starts when the previous one ends.  ``--workload all`` runs
every workload, each in a fresh process and one after another, untraced and then
traced, and prints every metric per workload.

``--trace 0`` times whole cycles of the workload's ops for at least ``--seconds``
and prints the end-to-end metrics named in BENCHMARK.json.  ``--trace 1`` spends
half the time untraced and the rest on at least two traced passes (set-up plus
one cycle each) with the library's layers wrapped from outside, and prints the
per-layer metrics; counts must repeat exactly between passes and outputs must
match the untraced ones.  Every output is checked.

The output is human-readable metric lines, a ``{"report": ...}`` line (the output
digest, flag violations with their causes, the environment) and, last, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: before thirdopt is imported

import os  # noqa: E402

# One thread per process: pin the BLAS and OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus_2d", "degenerate_nd", "suites")
# Not used while the benchmark was tuned; a claimed gain must also hold on it.
HELD_OUT_SEED = 1000
# Set-up is timed in this many fresh processes: half before the timed loop, half after.
SETUP_SAMPLES = 7
WARMUP_S = 1.0
# Latencies are reported in seconds of a machine on which the reference kernel
# takes this long (about its median on the shared 2-vCPU Xeon VM the baseline
# comes from, where neighbours slow everything by up to 2x for tens of seconds).
KERNEL_UNIT_S = 1e-3
# Fixed tail percentile per workload; a run has at least enough ops to put
# TAIL_BEYOND of them beyond it.
TAIL_PERCENTILE = {"corpus_2d": 95, "degenerate_nd": 90, "suites": 75}
TAIL_BEYOND = 10
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark's own invariants failed: outputs or counts did not repeat."""


# -- running ops ---------------------------------------------------------------


class Outcomes:
    """Checked results of the ops run, keyed by op index."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures = []      # (op label, reason)
        self.digests = {}       # op index -> sha256 of the op's output record
        self.violations = {}    # op index -> decrease flags set to False

    def add(self, k: int, outputs, error) -> None:
        from workloads import OpResult

        self.attempted += 1
        result = OpResult(f"raised {error}", error) if error else self.ops[k].check(outputs)
        digest = hashlib.sha256(result.record.encode()).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            raise BenchmarkError(f"op {self.ops[k].label} gave different outputs on a repeat")
        self.violations[k] = result.flag_violations
        if result.failure:
            self.failures.append((self.ops[k].label, result.failure))

    def output_digest(self) -> str:
        if len(self.digests) != len(self.ops):
            raise BenchmarkError("not every op ran, so there is no output digest")
        return hashlib.sha256("".join(self.digests[k] for k in range(len(self.ops)))
                              .encode()).hexdigest()

    def flag_causes(self) -> dict:
        causes = Counter(f"{self.ops[k].label.split('/')[0]}:{flag}"
                         for k, flags in self.violations.items() for flag in flags)
        return dict(sorted(causes.items()))

    def flag_viol_frac(self) -> float:
        return sum(1 for f in self.violations.values() if f) / len(self.violations)


def run_op(op):
    """Run one op; an exception is the op's failure, reported with its type."""
    try:
        return op.run(), None
    except Exception as exc:  # the loop must go on and count the failure
        return None, f"{type(exc).__name__}: {exc}"


def reference_kernel() -> float:
    """Fixed work that uses no thirdopt code: small numpy algebra and Python loops."""
    import numpy as np

    a = np.arange(1.0, 10.0).reshape(3, 3)
    total = 0.0
    for i in range(120):
        total += float(np.linalg.norm(a @ a.T + i)) + sum(j * 0.5 for j in range(20))
    return total


def time_kernel() -> float:
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


class OpTimes:
    """Latency of each op run, with the reference kernel timed before each op and at the end."""

    def __init__(self):
        self.raw = []
        self.kernel = []

    def run(self, op):
        self.kernel.append(time_kernel())
        t = time.perf_counter()
        result = run_op(op)
        self.raw.append(time.perf_counter() - t)
        return result

    def close(self) -> "OpTimes":
        self.kernel.append(time_kernel())
        return self

    def scaled(self) -> list:
        """Latencies in seconds of a machine on which the reference kernel takes KERNEL_UNIT_S.

        Each op is scaled by the median kernel time of the six samples around it.
        """
        return [lat * KERNEL_UNIT_S / statistics.median(self.kernel[max(0, i - 2):i + 4])
                for i, lat in enumerate(self.raw)]


def closed_loop(ops, outcomes: Outcomes, start: int, seconds: float, min_ops: int) -> OpTimes:
    """Run ops back to back in whole cycles from index ``start``.

    Stops at a cycle boundary once ``seconds`` have passed and ``min_ops`` ran.
    Output checks run between ops, outside their latencies.
    """
    n = len(ops)
    times = OpTimes()
    begin = time.perf_counter()
    while not (len(times.raw) % n == 0 and len(times.raw) >= min_ops
               and time.perf_counter() - begin >= seconds):
        k = (start + len(times.raw)) % n
        outcomes.add(k, *times.run(ops[k]))
    return times.close()


def warm_up(ops, outcomes: Outcomes) -> int:
    """Run ops untimed for WARMUP_S (at least one); returns the next op index."""
    begin = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - begin < WARMUP_S:
        outcomes.add(k % len(ops), *run_op(ops[k % len(ops)]))
        time_kernel()
        k += 1
    return k % len(ops)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import the library and build the workload's ops; this is what setup_s times."""
    import thirdopt  # noqa: F401
    import thirdopt.cli  # noqa: F401  (what `thirdopt bench` users import)
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed)


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Set-up times of ``count`` fresh child processes, started one after another."""
    samples = []
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        samples.append(float(out.stdout.split()[-1]))
    return samples


# -- traced passes ---------------------------------------------------------------


@dataclass
class TracedPass:
    summary: dict
    counters: Counter
    outcomes: Outcomes
    times: OpTimes

    def counts(self) -> dict:
        calls = {f"{name}.calls": s["calls"] for name, s in self.summary.items()}
        return {**calls, **self.counters, "ops": self.outcomes.attempted,
                "failed": len(self.outcomes.failures),
                "flagged": sum(1 for f in self.outcomes.violations.values() if f)}


def traced_pass(workload: str, seed: int) -> TracedPass:
    """Set up and run one cycle of ops with every layer wrapped."""
    from tracer import Tracer
    from workloads import WORKLOADS

    times = OpTimes()
    results = []
    with Tracer() as tracer:
        ops = WORKLOADS[workload](seed)
        for k, op in enumerate(ops):
            tracer.op = k
            results.append(times.run(op))
    outcomes = Outcomes(ops)
    for k, (outputs, error) in enumerate(results):
        outcomes.add(k, outputs, error)
    if tracer.absent:
        print(f"tracer: absent targets, their metrics read 0: {', '.join(tracer.absent)}")
    return TracedPass(tracer.summary(), tracer.counters, outcomes, times.close())


def layer_metrics(p: TracedPass) -> dict:
    """Every per-layer metric of one traced pass (trace.overhead_frac aside)."""
    s, c = p.summary, p.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    iters = c["solver_iters"]
    m = {}
    for name in ("polynomials.bundle.o2", "polynomials.bundle.o3", "polynomials.value",
                 "tensors.transform", "tensors.construct", "tensors.trilinear",
                 "spectral.eig_sym", "cubic.solve", "escape.subspace", "escape.sampler",
                 "conditions.check", "conditions.witness"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("polynomials.values", "polynomials.smoothness_bounds", "escape.minimize",
                 "bench.grid_min"):
        m[f"{name}.self_s"] = self_s(name)
    for suite in ("decrease", "escape", "rate", "sampler", "taylor", "subproblem"):
        m[f"bench.{suite}_s"] = s.get(f"bench.{suite}", {}).get("incl_s", 0.0)
    bundles = calls("polynomials.bundle.o2") + calls("polynomials.bundle.o3")
    m.update({
        "polynomials.values.points": c["polynomials.values.points"],
        "spectral.eig_per_iter": ratio(calls("spectral.eig_sym"), iters),
        "escape.bundle_per_iter": ratio(bundles, iters),
        "escape.third_steps": c["escape.third_steps"],
        "escape.sampler.draws": c["escape.sampler.draws"],
        "escape.sampler.accept_ratio": ratio(calls("escape.sampler"), c["escape.sampler.draws"]),
        "solver_iters": iters,
        "fail_frac": len(p.outcomes.failures) / p.outcomes.attempted,
        "flag_viol_frac": p.outcomes.flag_viol_frac(),
    })
    return m


# -- one workload ----------------------------------------------------------------


def declared_metrics(key: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them under ``key``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def emit(metrics: dict, declared: dict) -> dict:
    if set(metrics) != set(declared):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
                             "BENCHMARK.json")
    out = {}
    for name, unit in declared.items():
        print(f"{name:34s} {metrics[name]!r} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def throughput(scaled: list) -> float:
    return len(scaled) / sum(scaled)


def run_workload(args, ops, setup_first: float) -> dict:
    outcomes = Outcomes(ops)
    report = {"workload": args.workload, "ops_per_cycle": len(ops)}
    if not args.trace:
        setup_all = [setup_first] + setup_samples(args.workload, args.seed,
                                                  (SETUP_SAMPLES - 1) // 2)
    start = warm_up(ops, outcomes)
    tail_p = TAIL_PERCENTILE[args.workload]
    seconds = args.seconds / 2 if args.trace else args.seconds
    times = closed_loop(ops, outcomes, start, seconds,
                        0 if args.trace else -(-TAIL_BEYOND * 100 // (100 - tail_p)))
    scaled = times.scaled()
    digest = outcomes.output_digest()
    report.update(timed_ops=len(scaled), unscaled_ops_per_s=len(scaled) / sum(times.raw),
                  unscaled_op_p50_ms=1e3 * statistics.median(times.raw),
                  kernel_p50_ms=1e3 * statistics.median(times.kernel))
    if args.trace:
        import selftest

        selftest.check_tracer()
        passes = []
        begin = time.perf_counter()
        while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - begin < seconds:
            passes.append(traced_pass(args.workload, args.seed))
            if passes[-1].counts() != passes[0].counts():
                raise BenchmarkError(f"traced counts differ between passes: "
                                     f"{passes[0].counts()} vs {passes[-1].counts()}")
            if passes[-1].outcomes.output_digest() != digest:
                raise BenchmarkError("traced outputs differ from untraced outputs")
        per_pass = [layer_metrics(p) for p in passes]
        metrics = {name: (statistics.median(pm[name] for pm in per_pass)
                          if name.endswith("_s") else value)
                   for name, value in per_pass[0].items()}
        traced = [t for p in passes for t in p.times.scaled()]
        metrics["trace.overhead_frac"] = throughput(traced) / throughput(scaled)
        report.update(traced_passes=len(passes), counts=passes[0].counts())
        for p in passes:
            outcomes.failures += p.outcomes.failures
            outcomes.attempted += p.outcomes.attempted
        declared = declared_metrics("per_layer")
    else:
        setup_all += setup_samples(args.workload, args.seed, SETUP_SAMPLES - len(setup_all))
        metrics = {
            "setup_s": statistics.median(setup_all),
            "ops_per_s": throughput(scaled),
            "op_p50_ms": 1e3 * statistics.median(scaled),
            "op_tail_ms": 1e3 * percentile(scaled, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report.update(op_tail_percentile=tail_p, setup_samples_s=setup_all)
        declared = declared_metrics("end_to_end")
    report.update(
        output_digest=digest,
        attempted=outcomes.attempted,
        failed=len(outcomes.failures),
        failures=outcomes.failures[:10],
        fail_frac=len(outcomes.failures) / outcomes.attempted,
        flag_viol_frac=outcomes.flag_viol_frac(),
        flag_viol_causes=outcomes.flag_causes(),
        environment=environment(args.seed),
    )
    result = emit(metrics, declared)
    print(json.dumps({"report": report}))
    return {"correct": not outcomes.failures, "attempted": outcomes.attempted,
            "failed": len(outcomes.failures), "metrics": result}


# -- all workloads -------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh process, one after another: untraced, then traced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S + 3 * args.seconds)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace} exited with {out.returncode}")
                correct = False
                continue
            child = json.loads(lines[-1])
            digests.append(json.loads(lines[-2])["report"]["output_digest"])
            correct &= child["correct"]
            attempted += child["attempted"]
            failed += child["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in child["metrics"].items()})
        if len(set(digests)) != 1:
            print(f"{workload}: traced and untraced output digests differ: {digests}")
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "thirdopt" / "__init__.py").is_file():
        print(f"error: no thirdopt sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    ops = setup(args.workload, args.seed)
    setup_first = time.perf_counter() - T0
    import thirdopt

    if not Path(thirdopt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported thirdopt from {thirdopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_first))
        return 0
    try:
        result = run_workload(args, ops, setup_first)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
