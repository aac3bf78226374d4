"""Verification benchmark for splitcasimir.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh, single-threaded child process (``child.py``) that
imports the package from ``src/``, warms the catalog builds its suites read
and runs ``cli.run_suite`` on the workload's config, which is the path of
``splitcasimir report``.  Samples form a closed loop with one client: the
next starts when the previous has exited.  A run takes ``MIN_SAMPLES``
samples, then more while the median sample still fits in ``--seconds``;
every end-to-end metric is the median over the run's samples.  ``wall_s``
is wall-clock time, host steal included; ``setup_s``, ``run_s`` and
``cpu_s`` are CPU time of the child, which steal does not inflate.  No
``--cache-dir`` is used: a CLI user pays construction on every run.

Every sample passes the correctness gate: the report's records must equal
the committed check list in ``expected/<workload>.json`` (every check PASS,
the same targets and methods), and the emitted report must be
byte-identical across the samples of a run.  Traced samples must also
return the same trial counts as recorded there.

``--trace 0`` prints the end-to-end metrics (medians over the samples).
``--trace 1`` runs one traced sample plus untraced ones and prints the
per-layer metrics, with ``trace.overhead_s``: the traced sample's CPU time
minus the untraced median.  Both print a readable summary first, write the full
record to ``out/<workload>-seed<N>-trace<T>.json`` beside this file, and
end with one JSON line; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"
OUT_DIR = HERE / "out"

MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# The four workloads use the kernel differently: many small matvecs, sparse
# products, dense panels and few large matvecs.  Each is a scaled-down
# stand-in for a slow acceptance case (e6 identities, so(9) projectors, e7
# YBE, e8 verify), sized so that three samples fit in a 30 s run.  Suites
# follow the CLI subcommands; "samples" are the ybe --samples pair.
WORKLOADS = {
    "verify-sp6": {"algebras": ["sp(6)"],
                   "suites": ["construct", "casimir", "identities"],
                   "warm": ["defining", "adjoint_context"]},
    "projectors-so7": {"algebras": ["so(7)"],
                       "suites": ["construct", "projectors"],
                       "warm": ["defining", "adjoint_context"]},
    "ybe-f4": {"algebras": ["f4"], "suites": ["ybe"], "warm": ["defining"],
               "samples": ["1/2", "1/3"]},
    "identities-e7": {"algebras": ["e7"], "suites": ["identities"],
                      "warm": ["defining", "adjoint_context"]},
}

# End-to-end metrics in the summary.  wall_s is printed and recorded but not
# in BENCHMARK.json: host steal time moved it by up to 26% between runs.
UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "cpu_s": "s",
         "peak_rss_mb": "MB"}


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_checks(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def steal_seconds() -> float:
    """Host steal time so far, from /proc/stat (0.0 where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if fields[0] != "cpu" or len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def host_facts(numba_enabled) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_enabled": numba_enabled,
            "blas_threads": {v: "1" for v in THREAD_VARS}}


class Sampler:
    """Runs child samples of one workload and applies the correctness gate."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.config = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.expected = expected_checks(workload)
        self.samples = []
        self.digests = set()

    def run(self, trace: bool) -> dict:
        spec = {**self.config, "seed": self.seed, "trace": trace}
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        sample = {"trace": trace, "errors": []}
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - t0))
            out = json.loads(proc.stdout.strip().splitlines()[-1]) \
                if proc.returncode == 0 else None
            if out is None:
                sample["errors"].append(f"exit code {proc.returncode}")
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            out = None
            sample["errors"].append(f"{type(exc).__name__}: {exc}")
        if out is not None:
            self._gate(out, sample)
        sample["wall_s"] = time.perf_counter() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        sample["cpu_s"] = (cpu1.ru_utime - cpu0.ru_utime
                           + cpu1.ru_stime - cpu0.ru_stime)
        sample["ok"] = not sample["errors"]
        self.samples.append(sample)
        return sample

    def _gate(self, out: dict, sample: dict) -> None:
        for key in ("setup_s", "run_s", "setup_wall_s", "run_wall_s",
                    "peak_rss_mb", "numba_enabled", "layers", "records"):
            if key in out:
                sample[key] = out[key]
        if Path(out["module"]).resolve().parent.parent != SRC.resolve():
            sample["errors"].append(f"imported {out['module']}, not {SRC}")
        text = out["report"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        sample["report_sha256"] = digest
        self.digests.add(digest)
        if len(self.digests) > 1:
            sample["errors"].append("report differs from an earlier sample")
        checks = [[r["suite"], r["target"], r["status"], r["method"]]
                  for r in json.loads(text)["records"]]
        sample["checks"] = checks
        want = self.expected["checks"]
        sample["checks_expected"] = len(want)
        sample["checks_ok"] = sum(1 for got, exp in zip(checks, want)
                                  if got == exp)
        if any(c[2] not in ("PASS", "SKIP") for c in checks):
            sample["errors"].append("a check did not pass")
        if checks != want:
            sample["errors"].append(
                f"check list differs: {sample['checks_ok']} of {len(want)} "
                f"match, got {len(checks)} records")
        if "records" in out and out["records"] != self.expected["records"]:
            sample["errors"].append("verification records (trials, methods) differ")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(name: str, unit: str, values) -> str:
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (f"  {name:<18} median {med:12.4f} {unit:<5} IQR [{q1:.4f}, "
            f"{q3:.4f}]  range [{min(values):.4f}, {max(values):.4f}]  "
            f"n={len(values)}")


def measure(sampler: Sampler, seconds: float, trace: bool):
    """Traced sample first (if any), then untraced ones while they fit.

    A traced run needs only one untraced sample, for the tracing overhead.
    """
    start = time.perf_counter()
    traced = sampler.run(True) if trace else None
    untraced = []
    while True:
        untraced.append(sampler.run(False))
        if len(untraced) < (1 if trace else MIN_SAMPLES):
            continue
        now = time.perf_counter()
        typical = statistics.median(s["wall_s"] for s in untraced)
        if now - start + typical > seconds or now + typical > sampler.deadline:
            return traced, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splitcasimir" / "__init__.py").is_file():
        print(f"error: no splitcasimir sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    bench = load_benchmark_spec()
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    t_begin = time.perf_counter()
    steal0 = steal_seconds()
    sampler = Sampler(args.workload, args.seed, t_begin + RUN_LIMIT_S)
    traced, untraced = measure(sampler, args.seconds, bool(args.trace))
    steal_s = steal_seconds() - steal0

    good = [s for s in untraced if s["ok"]]
    expected_n = len(sampler.expected["checks"])
    checks_total = expected_n * len(sampler.samples)
    checks_ok = sum(s.get("checks_ok", 0) for s in sampler.samples)
    failed = sum(1 for s in sampler.samples if not s["ok"])
    correct = failed == 0

    e2e = {k: [s[k] for s in good] for k in UNITS} if good else {}
    numba = next((s["numba_enabled"] for s in sampler.samples
                  if "numba_enabled" in s), None)
    facts = {**host_facts(numba), "host.steal_s": steal_s}

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(sampler.samples)} samples, {failed} failed, "
          "closed loop with one client")
    for name, values in e2e.items():
        print(summarize(name, UNITS[name], values))
    print(f"  {'check_fail_ratio':<18} {checks_total - checks_ok} of "
          f"{checks_total} records failed or missing")
    print(f"  report sha256 {sorted(sampler.digests)}")
    print(f"  host {json.dumps(facts, sort_keys=True)}")
    for s in sampler.samples:
        for err in s["errors"]:
            print(f"  FAILED sample: {err}")

    metrics = {}
    if args.trace:
        layers = dict(traced.get("layers", {})) if traced else {}
        if traced and good:
            layers["trace.overhead_s"] = traced["cpu_s"] - statistics.median(
                e2e["cpu_s"])
        layers["host.steal_s"] = steal_s
        for name in sorted(layers):
            print(f"  {name:<36} {layers[name]}")
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0),
                                  "unit": m["unit"]}
    else:
        values = {k: statistics.median(v) for k, v in e2e.items() if v}
        values["check_pass_ratio"] = checks_ok / checks_total
        for m in bench["end_to_end"]:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]],
                                      "unit": m["unit"]}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "config": WORKLOADS[args.workload], "host": facts,
              "correct": correct, "metrics": metrics, "samples": [
                  {k: v for k, v in s.items() if k != "layers"}
                  for s in sampler.samples],
              "layers": traced.get("layers") if traced else None}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(sampler.samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
