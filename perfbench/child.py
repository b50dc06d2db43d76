"""One sde-gridopt subcommand in a fresh interpreter, timed from inside.

    python3 perfbench/child.py RESULT.json RUN_ID TRACE(0|1) -- <sde-gridopt args>

As soon as ``import sde_gridopt.cli`` is done, writes RESULT.json with the
CLOCK_MONOTONIC time at which it finished (the parent subtracts its spawn
time), the thread settings this process saw and the library versions.  After
the ``cli.main`` call it rewrites the file with the call's wall time, return
code and peak RSS, and exits with that return code; a process that dies
inside ``main`` leaves only the first version.  With TRACE=1 the package's
public functions are wrapped by perfbench.tracer, the spans go to
RESULT.spans.npz, and after a ``convergence`` command its largest row is run
again in-process with the wrappers removed, to time it with warm caches.
"""

import json
import os
import sys
import time
import traceback


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sde_gridopt.cli as cli  # noqa: E402

IMPORT_DONE = _clock()

import numpy  # noqa: E402  (both already loaded by sde_gridopt.cli)
import scipy  # noqa: E402

THREAD_VARS = (
    "SDE_GRIDOPT_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _write(path: str, result: dict) -> None:
    """Replace ``path`` in one step, so the parent never reads half a file."""
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(path + ".tmp", path)


def _peak_rss_mb() -> float:
    """VmHWM of this process in 10^6 bytes.

    Unlike ru_maxrss it counts only memory mapped since exec, not the peak
    of the parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def _warm_row_s(argv) -> float:
    """Wall time of the largest convergence row, repeated with caches warm."""
    cfg = cli.parse_config(argv[argv.index("--config") + 1])
    t0 = time.perf_counter()
    cli._convergence_row(cfg, max(cfg.n_sweep))
    return time.perf_counter() - t0


def main() -> int:
    result_path, run_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    result = {
        "import_done": IMPORT_DONE,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    _write(result_path, result)
    tracer = None
    if trace:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer(run_id)
        tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        rc = 1
        result["error"] = traceback.format_exc()
    result["main_s"] = time.perf_counter() - t0
    result["rc"] = rc
    result["rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(result_path[: -len(".json")] + ".spans.npz")
        result["counts"] = dict(tracer.counts)
        if argv[0] == "convergence" and rc == 0:
            result["warm_s"] = _warm_row_s(argv)
    _write(result_path, result)
    return rc


if __name__ == "__main__":
    sys.exit(main())
