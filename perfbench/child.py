"""One benchmark sample, run in a fresh process by ``run.py``.

Usage: python child.py '<json spec>'

The spec names the algebras, suites, seed and the catalog builds to warm.
After the warm builds (the set-up) the child runs ``cli.run_suite`` and
emits the JSON report, as ``splitcasimir report --suite ...`` does.  With
``trace`` set, a :class:`tracer.Tracer` is active from just after the
import to the end.

Prints one JSON object: the phase times, the emitted report text, peak
resident memory and, when traced, the layer counts and verification records.
``setup_s`` and ``run_s`` are CPU seconds of this single-threaded process
(set-up counts from process start), so host steal time does not enter
them; the ``*_wall_s`` values are the same phases on the wall clock.
"""

import json
import sys
import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def main(spec: dict) -> dict:
    import splitcasimir
    from splitcasimir import _kernels, catalog, cli, report

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, catalog_cache_counts
        tracer = Tracer()
    out = {"module": splitcasimir.__file__,
           "numba_enabled": bool(_kernels.NUMBA_ENABLED)}
    with tracer or contextlib.nullcontext():
        for name in spec["algebras"]:
            for build in spec["warm"]:
                getattr(catalog, build)(name)
        t_setup, cpu_setup = time.perf_counter(), time.process_time()
        out["setup_wall_s"] = t_setup - T_START
        out["setup_s"] = cpu_setup
        samples = spec.get("samples")
        config = cli.SuiteConfig(
            algebras=list(spec["algebras"]), suites=list(spec["suites"]),
            seed=spec["seed"],
            samples=[Fraction(x) for x in samples] if samples else None)
        result = cli.run_suite(config)
        t_run, cpu_run = time.perf_counter(), time.process_time()
        out["report"] = report.emit(result, "json")
        out["run_wall_s"] = t_run - t_setup
        out["run_s"] = cpu_run - cpu_setup
        out["emit_wall_s"] = time.perf_counter() - t_run
    if tracer is not None:
        out["layers"] = {**tracer.metrics(), **catalog_cache_counts()}
        out["records"] = tracer.records
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(json.loads(sys.argv[1]))) + "\n")
