"""Benchmark of the qes-rabi command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-spectrum --seed 1 --seconds 40 --trace 0

One client drives ``qes_rabi.cli.main(argv)`` in this process as a closed
loop: the next call starts when the previous one has returned. Standard
output is captured through a UTF-8 text layer, as a real stdout would
encode it. ``QES_RABI_THREADS`` is fixed at min(2, nproc).

A run makes its calls from ``--seed`` (see workloads.py), runs one traced
warm-up pass whose output is checked (checks.py) and kept as the reference,
then times whole passes for about ``--seconds``. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports per-layer metrics (spans.py). Every timed or
traced call must reproduce the reference bytes, so the traced and untraced
outputs are compared call by call.

The last stdout line is the result object; the line before it is a report
with every metric, the machine and the settings.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
DENSE_SAMPLE = 4
MIN_CALL_SAMPLES = 100

# The bounded metrics: non-zero on both benchmark workloads. verified_per_s
# (zero without --verify) and failed_ratio (zero when correct) are reported
# in the report line only.
END_TO_END = ("setup_s", "call_s_p50", "call_s_p90", "points_per_s", "records_per_s",
              "out_mb_per_s", "accepted_ratio")


def _parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qes_rabi").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _machine(args, threads: int) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "QES_RABI_THREADS": threads,
    }


def _setup_times(env: dict) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its
    parser (``python -m qes_rabi --help``); the first one is discarded."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "qes_rabi", "--help"], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times[1:]


class Result:
    __slots__ = ("code", "seconds", "out", "error")

    def __init__(self, code, seconds, out, error=None):
        self.code, self.seconds, self.out, self.error = code, seconds, out, error


def _invoke(main, argv) -> Result:
    """One CLI call with stdout and stderr captured; the clock covers the
    call and the flush of its encoded output."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    err = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed call, not a crashed run
            code, error = None, traceback.format_exc()
        out.flush()
        t1 = time.perf_counter()
    data = raw.getvalue()
    out.detach()
    return Result(code, t1 - t0, data, error)


def _run_pass(main, calls) -> list[Result]:
    return [_invoke(main, c.argv) for c in calls]


def _run_traced_pass(cli, calls):
    from spans import Tracer, instrument

    tracer = Tracer()
    with instrument(tracer):
        results = [_invoke(lambda argv: tracer.call("cli.main", cli.main, argv, root=True),
                           c.argv) for c in calls]
    return results, tracer


def _record_stats(calls, tracer) -> list[dict]:
    """Per call: records built, accepted, emitted, and emitted-and-matched,
    read from the traced pass's build_record spans."""
    by_id = {s.sid: s for s in tracer.spans}
    roots = [s.sid for s in tracer.spans if s.name == "cli.main"]
    roots.sort(key=lambda sid: by_id[sid].t0)
    call_of = {sid: i for i, sid in enumerate(roots)}
    stats = [dict(built=0, accepted=0, emitted=0, matched=0) for _ in calls]
    for s in tracer.spans:
        if s.name != "records.build_record" or s.result is None:
            continue
        top = s
        while top.parent is not None:
            top = by_id[top.parent]
        st = stats[call_of[top.sid]]
        rec = s.result
        accepted = rec["reject_reason"] is None
        emitted = accepted or calls[call_of[top.sid]].params.get("include_rejected", False)
        st["built"] += 1
        st["accepted"] += accepted
        st["emitted"] += emitted
        st["matched"] += emitted and bool((rec.get("oracle") or {}).get("matched"))
    return stats


def _check_reference(calls, results, seed) -> dict[int, str]:
    """Failures of the reference pass, by call index."""
    from checks import CheckError, check_call, check_dense_sample

    failures = {}
    sample = []
    for i, (call, res) in enumerate(zip(calls, results)):
        if res.error is not None:
            failures[i] = "crashed: " + res.error.strip().splitlines()[-1]
            continue
        try:
            check_call(call, i, res.code, res.out.decode("utf-8"), sample)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
    for i, message in check_dense_sample(sample, seed, DENSE_SAMPLE):
        failures.setdefault(i, message)
    return failures


def _mismatches(reference, results) -> list[int]:
    return [i for i, (a, b) in enumerate(zip(reference, results))
            if a.code != b.code or a.out != b.out]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _end_to_end(calls, reference, passes, stats, setup) -> dict:
    """Throughputs divide the pass's work by the sum over its calls of each
    call's median time across passes, so one slow pass or one stall moves
    them little; call percentiles use every timed call."""
    durations = [r.seconds for results in passes for r in results]
    median_s = [statistics.median(results[i].seconds for results in passes)
                for i in range(len(calls))]

    def rate(work, keep):
        chosen = [i for i, c in enumerate(calls) if keep(c)]
        return _ratio(sum(work(i) for i in chosen), sum(median_s[i] for i in chosen))

    out_bytes = [len(r.out) for r in reference]
    built = sum(s["built"] for s in stats)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "call_s_p50": (statistics.median(durations), "s"),
        "call_s_p90": (statistics.quantiles(durations, n=10)[-1], "s"),
        "points_per_s": (rate(lambda i: calls[i].points, lambda c: c.points), "1/s"),
        "records_per_s": (rate(lambda i: stats[i]["emitted"],
                               lambda c: c.command == "sweep"), "1/s"),
        "verified_per_s": (rate(lambda i: stats[i]["matched"],
                                lambda c: c.params.get("verify")), "1/s"),
        "out_mb_per_s": (rate(lambda i: out_bytes[i] / 1e6, lambda c: True), "MB/s"),
        "accepted_ratio": (_ratio(sum(s["accepted"] for s in stats), built), "ratio"),
    }


def _per_layer(reference, tracer) -> dict:
    from spans import layer_times

    total, self_time, calls_by = layer_times(tracer.spans)
    counts = tracer.counts()
    spans_of = {}
    for s in tracer.spans:
        spans_of.setdefault(s.name, []).append(s)
    matches = spans_of.get("oracle.match_energy", [])
    records = [s.result for s in spans_of.get("records.build_record", []) if s.result]
    return {
        "oracle.parity_spectrum_s": total["oracle.parity_spectrum"],
        "oracle.chain_rows": sum(2 * (s.args[1] + 1)
                                 for s in spans_of.get("oracle.parity_spectrum", [])),
        "oracle.match_energy_self_s": self_time["oracle.match_energy"],
        "oracle.match_calls": len(matches),
        "oracle.matched_ratio": _ratio(sum(bool(s.result and s.result.matched) for s in matches),
                                       len(matches)),
        "oracle.window_exceeded": sum(s.error == "WindowExceeded" for s in matches),
        "oracle.build_hamiltonian_s": total["oracle.build_hamiltonian"],
        "oracle.spectrum_s": total["oracle.spectrum"],
        "oracle.dense_rows": sum(2 * (s.args[1] + 1)
                                 for s in spans_of.get("oracle.build_hamiltonian", [])),
        "solver.bae_residual_s": total["solver.bae_residual"],
        "solver.ode_residual_s": total["solver.ode_residual"],
        "solver.constraint_residual_s": total["solver.constraint_residual"],
        "solver.delta_pencil_s": total["solver.delta_pencil"],
        "solver.pencil_rows": sum(s.args[1] + 1 for s in spans_of.get("solver.delta_pencil", [])),
        "solver.solve_qes_self_s": self_time["solver.solve_qes"],
        "solver.rejected_residual": sum(r["reject_reason"] == "residual" for r in records),
        "solver.rejected_degenerate": sum(r["reject_reason"] == "degenerate-atom" for r in records),
        "solver.bae_skipped": sum(r["residuals"]["bae"] is None for r in records),
        "solver.second_component_s": total["solver.second_component"],
        "solver.wavefunction_eval_s": total["solver.wavefunction_eval"],
        "stencil.ode_stencil_s": total["stencil.ode_stencil"],
        "stencil.ode_stencil.calls": calls_by["stencil.ode_stencil"],
        "stencil.apply_ode_s": total["stencil.apply_ode"],
        "stencil.apply_first_factor_s": total["stencil.apply_first_factor"],
        "models.su11_elements.calls": counts["models.su11_elements"],
        "models.validate_s": total["models.validate"],
        "records.build_record_self_s": self_time["records.build_record"],
        "records.json_dumps_s": total["records.json_dumps"],
        "records.fmt.calls": counts["records.fmt"],
        "records.out_bytes": sum(len(r.out) for r in reference),
        "cli.main_self_s": self_time["cli.main"],
        "trace.spans": len(tracer.spans),
    }


PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "out_bytes": "bytes"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _enough_passes(passes: int, elapsed: float, seconds: float, minimum: int) -> bool:
    """Stop once the minimum is met and another pass would overrun."""
    return passes >= minimum and elapsed + 0.5 * elapsed / passes > seconds


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse_args(argv)
    if not (SRC / "qes_rabi" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qes_rabi package under {SRC}; "
                         "run from the root of a qes-rabi checkout\n")
        return 2
    threads = min(2, os.cpu_count() or 1)
    os.environ["QES_RABI_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))
    from qes_rabi import cli
    if Path(cli.__file__).resolve().parent != SRC / "qes_rabi":
        sys.stderr.write(f"perfbench: imported qes_rabi from {cli.__file__}, not {SRC}\n")
        return 2

    from workloads import generate

    calls = generate(args.workload, args.seed)
    min_passes = max(2, math.ceil(MIN_CALL_SAMPLES / len(calls)))
    report = {"machine": _machine(args, threads), "calls_per_pass": len(calls)}

    # Reference pass: traced, checked, and the warm-up for what follows.
    reference, ref_tracer = _run_traced_pass(cli, calls)
    stats = _record_stats(calls, ref_tracer)
    failed_calls = _check_reference(calls, reference, args.seed)
    report["stdout_sha256"] = hashlib.sha256(b"".join(r.out for r in reference)).hexdigest()

    attempted = failed = 0
    mismatched = set()

    def tally(results):
        nonlocal attempted, failed
        bad = set(_mismatches(reference, results))
        mismatched.update(bad)
        for r in results:
            r.out = None  # only the reference's bytes are kept
        attempted += len(results)
        failed += len(bad | set(failed_calls))

    if args.trace == 0:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        setup = _setup_times(env)
        passes, elapsed = [], 0.0
        while not passes or not _enough_passes(len(passes), elapsed, args.seconds, min_passes):
            t0 = time.perf_counter()
            results = _run_pass(cli.main, calls)
            elapsed += time.perf_counter() - t0
            passes.append(results)
            tally(results)
        metrics = _end_to_end(calls, reference, passes, stats, setup)
        metrics["failed_ratio"] = (_ratio(failed, attempted), "ratio")
        report["setup_samples_s"] = setup
        report["call_samples"] = sum(len(p) for p in passes)
        report["passes"] = len(passes)
        report["pass_s"] = [sum(r.seconds for r in results) for results in passes]
        report["timed_s"] = elapsed
        declared = END_TO_END
    else:
        untraced, traced, layers, elapsed = [], [], [], 0.0
        while not layers or not _enough_passes(len(layers), elapsed, args.seconds, 2):
            t0 = time.perf_counter()
            plain = _run_pass(cli.main, calls)
            results, tracer = _run_traced_pass(cli, calls)
            elapsed += time.perf_counter() - t0
            untraced.append(sum(r.seconds for r in plain))
            traced.append(sum(r.seconds for r in results))
            layers.append(_per_layer(reference, tracer))
            tally(plain)
            tally(results)
        metrics = {name: (statistics.median(layer[name] for layer in layers), _unit(name))
                   for name in layers[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(untraced), "ratio")
        report["passes"] = len(layers)
        report["pass_s"] = {"untraced": untraced, "traced": traced}
        report["timed_s"] = elapsed
        declared = tuple(metrics)

    report["failed_calls"] = {" ".join(calls[i].argv): msg
                              for i, msg in sorted(failed_calls.items())}
    report["mismatched_calls"] = [" ".join(calls[i].argv) for i in sorted(mismatched)]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
