"""Cold-process benchmark of the sde-gridopt command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of subcommand invocations.  Every invocation
runs in a fresh interpreter (perfbench/child.py) that imports
``sde_gridopt.cli`` and calls ``main([...])``, so each one pays the cold
import and starts with the package's step and curve caches empty, as a
command-line user does.  The commands run with the caller's thread
settings: nothing sets SDE_GRIDOPT_THREADS or a BLAS thread variable for
them, and what they saw is recorded.

``--trace 0`` repeats the workload within ``--seconds`` and reports the
end-to-end metrics as medians over repetitions (``setup_s`` over
processes), each invocation scaled to a reference host speed by the
readings of perfbench/calibrate.py taken just before and after it.
``--trace 1`` runs the workload once untraced, twice with the
public functions wrapped by perfbench/tracer.py, once more for the
convergence sweep on one thread, and times the imports; it reports the
per-layer metrics.  Every output CSV is checked against perfbench/reference
(perfbench/check.py); a nonzero exit or a failed check counts the invocation
as failed.  The last line of stdout is the JSON result; the full record,
with sample counts and the run's environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calibrate
import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150.0


OUTPUTS = {
    "gramian": "gramian.csv",
    "convergence": "convergence.csv",
    "mc-verify": "mc_verify.csv",
    "ou-table": "ou_table.csv",
}
# Stored gzip-compressed in perfbench/reference; the 4x4 Gramian table is 4.4 MB.
COMPRESSED = ("gramian.csv",)

# (subcommand, config) per invocation, and the trace counts each workload must show.
WORKLOADS = {
    "ou-optimal": {
        "steps": (
            ("gramian", "ou-optimal.cfg"),
            ("convergence", "ou-optimal.cfg"),
            ("ou-table", "ou-optimal.cfg"),
        ),
        "expect": {"grid.steps": 21760, "grid.distinct_dt": 21760},
    },
    "sys4-optimal": {
        "steps": (("gramian", "sys4-optimal.cfg"), ("convergence", "sys4-optimal.cfg")),
        "expect": {"grid.steps": 5376, "grid.distinct_dt": 5376},
    },
    "sys4-uniform": {
        "steps": (("convergence", "sys4-uniform.cfg"), ("mc-verify", "sys4-uniform-mc.cfg")),
        # one step length per grid: three convergence grids and three MC grids
        "expect": {"grid.steps": 87360, "grid.distinct_dt": 6, "grid.grid_from_density.calls": 6},
    },
}

END_TO_END = {
    "setup_s": "s",
    "convergence_s": "s",
    "other_cmds_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
IMPORTS = (
    "sde_gridopt",
    "sde_gridopt.cli",
    "sde_gridopt.asymptotics",
    "sde_gridopt.solver",
    "sde_gridopt.model",
    "sde_gridopt.matfun",
    "sde_gridopt.grid",
    "numpy",
    "scipy.linalg",
    "scipy.integrate",
)
PER_LAYER = {
    **{f"{n}.{kind}": unit for n in tracer.SPAN_NAMES for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: "count" for name in tracer.COUNTS},
    "matfun.step_us_per_dt": "us",
    "matfun.conv_mc_share": "ratio",
    "solver.run_filter.matfun_share": "ratio",
    "solver.recursion_us_per_step": "us",
    "solver.mc_ns_per_path_step": "ns",
    "solver.run_filter.warm_s": "s",
    "cli.convergence.overlap": "ratio",
    "cli.cmd_convergence.serial_s": "s",
    **{f"setup.import.{m}_s": "s" for m in IMPORTS},
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program could not be started at all; no result is printed."""


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so child timestamps compare with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(cmd, cfg, outdir, seed, work, run_id, trace=False, env=None) -> dict:
    """Run one subcommand in a fresh interpreter; return its timings and usage."""
    result_path = os.path.join(work, f"{run_id}.json")
    argv = [sys.executable, CHILD, result_path, run_id, "1" if trace else "0", "--", cmd]
    argv += ["--config", os.path.join(HERE, "workloads", cfg), "--out", outdir]
    argv += ["--seed", str(seed), "--quiet"]
    with open(os.path.join(work, f"{run_id}.log"), "wb") as log:
        spawn = _clock()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = _clock()
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except FileNotFoundError:
        # the child writes its first result as soon as the import is done
        raise SetupError(f"{cmd} did not import sde_gridopt.cli (exit {code}):\n{_tail(work, run_id)}")
    res.update(
        run_id=run_id,
        cmd=cmd,
        outdir=outdir,
        exit=code,
        spawn=spawn,
        exited=exited,
        setup_s=res["import_done"] - spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        spans=result_path[: -len(".json")] + ".spans.npz" if trace else None,
        problems=[],
    )
    if "main_s" not in res:  # died inside main(): killed, crashed or timed out
        res.update(main_s=exited - res["import_done"], rss_mb=0.0, counts={}, spans=None)
        res["problems"].append(f"exit {code} before main() returned:\n{_tail(work, run_id)}")
    elif code != 0:
        res["problems"].append(f"exit {code}: {res.get('error') or _tail(work, run_id)}")
    return res


def _tail(work, run_id) -> str:
    with open(os.path.join(work, f"{run_id}.log"), encoding="utf-8", errors="replace") as fh:
        return fh.read()[-2000:]


def run_rep(workload, seed, work, tag, trace=False, before=None) -> list[dict]:
    """One pass over the workload's invocations, each writing to its own directory.

    ``before`` is called ahead of every invocation.
    """
    invs = []
    for k, (cmd, cfg) in enumerate(WORKLOADS[workload]["steps"]):
        if before is not None:
            before()
        run_id = f"{tag}-{k}-{cmd}"
        invs.append(invoke(cmd, cfg, os.path.join(work, run_id), seed, work, run_id, trace))
    return invs


def output_path(inv) -> str:
    return os.path.join(inv["outdir"], OUTPUTS[inv["cmd"]])


def reference_path(workload, name) -> str:
    suffix = ".gz" if name in COMPRESSED else ""
    return os.path.join(HERE, "reference", workload, name + suffix)


def gate(workload, invs) -> None:
    """Check each invocation's CSV against the reference, appending to its problems."""
    for inv in invs:
        if inv["exit"] == 0:
            name = OUTPUTS[inv["cmd"]]
            inv["problems"] += check.check_file(output_path(inv), reference_path(workload, name))


def same_bytes(inv, base) -> None:
    """Require an invocation's CSV to equal, byte for byte, the untraced one's."""
    with open(output_path(inv), "rb") as a, open(output_path(base), "rb") as b:
        if a.read() != b.read():
            inv["problems"].append(f"{OUTPUTS[inv['cmd']]} differs from the untraced run")


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b) -> float:
    return a / b if b else 0.0


def rep_figures(invs, speeds) -> dict:
    """Figures of one repetition, each invocation's times multiplied by its speed factor."""
    figures = {
        "convergence_s": sum(x * i["main_s"] for i, x in zip(invs, speeds) if i["cmd"] == "convergence"),
        "other_cmds_s": sum(x * i["main_s"] for i, x in zip(invs, speeds) if i["cmd"] != "convergence"),
        "wall_s": sum(x * (i["exited"] - i["spawn"]) for i, x in zip(invs, speeds)),
        "cpu_s": sum(x * i["cpu_s"] for i, x in zip(invs, speeds)),
        "peak_rss_mb": max(i["rss_mb"] for i in invs),
    }
    for cmd in OUTPUTS:
        times = [x * i["main_s"] for i, x in zip(invs, speeds) if i["cmd"] == cmd]
        if times:
            figures[f"{cmd.replace('-', '_')}_s"] = sum(times)
    return figures


def measure(workload, seed, seconds, work):
    """Untraced pass: repeat the workload for about ``seconds``.

    Returns the invocations and two sets of samples: scaled to the reference
    host speed (see calibrate.py), and raw.  ``setup_s`` has one sample per
    process, the other figures one per repetition.
    """
    reps, began = [], _clock()
    with calibrate.Calibrator() as cal:
        while True:
            invs = run_rep(workload, seed, work, f"r{len(reps)}", before=cal.read)
            gate(workload, invs)
            for inv in invs:
                shutil.rmtree(inv["outdir"], ignore_errors=True)
            reps.append(invs)
            elapsed = _clock() - began
            # start another repetition only if it should end before the deadline
            if elapsed + elapsed / len(reps) > seconds:
                break
        cal.read()
    invs = [i for rep in reps for i in rep]
    scaled, raw = {}, {}
    # cal.speeds() has one factor per invocation: a reading precedes each, one follows the last
    for samples, factors in ((scaled, cal.speeds()), (raw, [1.0] * len(invs))):
        samples["setup_s"] = [x * i["setup_s"] for i, x in zip(invs, factors)]
        first = 0
        for rep in reps:
            for name, value in rep_figures(rep, factors[first : first + len(rep)]).items():
                samples.setdefault(name, []).append(value)
            first += len(rep)
    raw["calibration_s"] = cal.readings
    return invs, scaled, raw


def _importtime(work) -> dict:
    """Cumulative import time per module from ``python3 -X importtime``."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import sde_gridopt.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True,
        text=True,
        cwd=work,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"import sde_gridopt.cli failed:\n{proc.stderr[-2000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)$", line)
        if m:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return {m: found.get(m, 0.0) for m in IMPORTS}


def layer_figures(invs) -> dict:
    """Per-layer figures of one traced pass over the workload."""
    s = tracer.summarize([i["spans"] for i in invs if i["spans"] is not None])
    calls, total, own, under = s["calls"], s["total"], s["self"], s["under"]
    counts = {name: sum(i["counts"].get(name, 0) for i in invs) for name in tracer.COUNTS}
    fig = {}
    for name in tracer.SPAN_NAMES:
        fig[f"{name}.calls"] = calls[name]
        fig[f"{name}.self_s"] = own[name]
    fig.update(counts)
    rf = under["solver.run_filter"]
    mc = under["solver.mc_verify_mse"]
    conv = under["cli.cmd_convergence"]
    conv_mc = total["cli.cmd_convergence"] + total["cli.cmd_mc_verify"]
    fig["matfun.step_us_per_dt"] = 1e6 * ratio(rf["matfun_self"], counts["grid.distinct_dt"])
    fig["matfun.conv_mc_share"] = ratio(
        conv["matfun_self"] + under["cli.cmd_mc_verify"]["matfun_self"], conv_mc
    )
    fig["solver.run_filter.matfun_share"] = ratio(rf["matfun_self"], total["solver.run_filter"])
    fig["solver.recursion_us_per_step"] = 1e6 * ratio(
        total["solver.run_filter"] - rf["matfun_self"], calls["solver.kalman_step"]
    )
    mc_self = total["solver.mc_verify_mse"] - mc["run_filter_total"]
    fig["solver.mc_ns_per_path_step"] = 1e9 * ratio(mc_self, counts["solver.mc_path_steps"])
    fig["cli.convergence.overlap"] = ratio(conv["run_filter_total"], total["cli.cmd_convergence"])
    fig["solver.run_filter.warm_s"] = sum(i.get("warm_s", 0.0) for i in invs)
    fig["main_s"] = sum(i["main_s"] for i in invs)
    return fig


def trace_pass(workload, seed, work):
    """Untraced baseline, two traced passes, a serial sweep and import timings."""
    base = run_rep(workload, seed, work, "base")
    gate(workload, base)
    traced = [run_rep(workload, seed, work, f"t{k}", trace=True) for k in range(2)]
    for invs in traced:
        gate(workload, invs)
        for inv, ref in zip(invs, base):
            if not inv["problems"] and not ref["problems"]:
                same_bytes(inv, ref)
    conv_step = next(s for s in WORKLOADS[workload]["steps"] if s[0] == "convergence")
    serial = invoke(
        *conv_step,
        os.path.join(work, "serial"),
        seed,
        work,
        "serial",
        env={**os.environ, "SDE_GRIDOPT_THREADS": "1"},
    )
    gate(workload, [serial])
    base_conv = next(i for i in base if i["cmd"] == "convergence")
    if not serial["problems"] and not base_conv["problems"]:
        same_bytes(serial, base_conv)
    invs = base + [i for t in traced for i in t] + [serial]

    figs = [layer_figures(t) for t in traced]
    checks = {}
    for name in PER_LAYER:
        if PER_LAYER[name] == "count":
            checks[f"{name} repeats"] = figs[0][name] == figs[1][name]
    for name, want in WORKLOADS[workload]["expect"].items():
        checks[f"{name} == {want}"] = figs[0][name] == want
    imports = [_importtime(work) for _ in range(3)]
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("setup.import."):
            mod = name[len("setup.import.") : -len("_s")]
            metrics[name] = median([imp[mod] for imp in imports])
        elif PER_LAYER[name] == "count":
            metrics[name] = figs[0][name]
        elif name in figs[0]:
            metrics[name] = median([f[name] for f in figs])
    metrics["cli.cmd_convergence.serial_s"] = serial["main_s"]
    metrics["trace.overhead_s"] = median([f["main_s"] for f in figs]) - sum(i["main_s"] for i in base)
    return invs, metrics, checks


def run_record(args, invs) -> dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # look no further up than the checkout, which need not be a repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    first = invs[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "versions": first["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": first["blas"],
        "child_thread_env": {i["run_id"]: i["env"] for i in invs},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="Monte Carlo seed passed to --seed")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # SIGTERM unwinds like an exception, so running children are stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in uint64")
    if not os.path.isfile(os.path.join(ROOT, "src", "sde_gridopt", "cli.py")):
        print("error: src/sde_gridopt/cli.py not found next to perfbench/", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            invs, metrics, checks = trace_pass(args.workload, args.seed, work)
            units, samples, raw = PER_LAYER, None, None
        else:
            invs, samples, raw = measure(args.workload, args.seed, args.seconds, work)
            metrics = {name: median(samples[name]) for name in END_TO_END}
            units, checks = END_TO_END, {}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_invs = [i for i in invs if i["problems"]]
    failed_checks = [name for name, ok in checks.items() if not ok]
    attempted = len(invs) + len(checks)
    failed = len(failed_invs) + len(failed_checks)
    for inv in failed_invs:
        print(f"FAIL {inv['cmd']}: " + "; ".join(inv["problems"][:5]))
    for name in failed_checks:
        print(f"FAIL trace self-test: {name}")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(invs)} invocations")
    if samples is not None:
        print(f"  {'':<16} {'scaled':>12} {'':<6} {'raw':>12}")
        for name, values in samples.items():
            unit = END_TO_END.get(name, "s")
            print(
                f"  {name:<16} {median(values):12.6g} {unit:<6} {median(raw[name]):12.6g}"
                f"  median of {len(values)}"
            )
        print(f"  {'calibration_s':<16} {'':>12} {'s':<6} {median(raw['calibration_s']):12.6g}")
    else:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':<16} {failed / attempted:12.6g} ratio  {failed} of {attempted}")

    record = run_record(args, invs)
    record.update(
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        samples=samples,
        raw_samples=raw,
        checks=checks,
    )
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
