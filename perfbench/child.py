"""One fresh-process workload invocation, timed from inside.

    python3 perfbench/child.py RESULT.json SPAWN_TIME SRC_DIR COMMAND CONFIG OUT
        [--setup-only | --reference] [--trace SPANS.npz]

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process; set-up ends once ``gradnoise`` is imported and the config has
been validated. ``--reference`` instead imports only what ``gradnoise``
imports (numpy, ``scipy.sparse.linalg``) and reports that start-up time. The invocation itself is ``gradnoise.harness.run_cli`` with
an explicit ``--config/--out --jobs 1``. RESULT.json receives the exit code,
set-up, wall and CPU seconds, peak RSS and the environment.
"""

import resource
import sys
import time


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads():
    """(library file name, thread count) of the loaded OpenBLAS, if any."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return path.rsplit("/", 1)[-1], fn()
    return None, None


def _environment():
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_library": lib,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv):
    result_path, spawn, src, command, config, out = argv[:6]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if "--reference" in argv:
        import numpy  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        _write(result_path, {
            "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawn)})
        return
    sys.path.insert(0, src)
    from gradnoise import harness

    harness.load_experiment_config(config, out_override=out)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawn)
    result = {"setup_s": setup_s}
    if setup_only:
        result["environment"] = _environment()
    else:
        tracer = None
        if spans_path:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            code = harness.run_cli([command, "--config", config, "--out", out,
                                    "--jobs", "1"])
        except Exception:  # an uncaught error is a failed invocation
            import traceback

            traceback.print_exc()
            code = 1
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.save(spans_path)
    _write(result_path, result)


def _write(path, result):
    import json

    with open(path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
