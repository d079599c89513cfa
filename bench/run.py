"""Run one workload of the nwave benchmark and print its result.

    python3 bench/run.py --workload tau-verify --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload tau-verify --seed 0 --seconds 15 --trace 1

Run it from the root of a source checkout: the benchmark imports nwave from
``src/`` and refuses to run without it.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (provenance, every job, and for a traced run
the spans) goes to ``bench/out/``.

Load model: a closed loop with one client.  One worker process, with no
threads, runs the workload's fixed job list in whole passes until
``--seconds`` have gone by.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Each workload runs in a fresh worker interpreter, so
set-up time and peak memory belong to it alone; set-up time is the median
over ``SETUP_PROBES`` extra interpreters plus the worker.

Job times are reported at a reference host speed: ``speed.Sampler`` reads
the host's speed before, during and after every job, and the job's
measured seconds are scaled to the reference speed.  The measured seconds
stay in the record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Interpreters started only to time set-up, besides the worker itself.
SETUP_PROBES = 8
#: Every process this run starts is killed after this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MiB",
    "out_terms": "count",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _arguments(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one pass over the first job of each kind (self-test)")
    p.add_argument("--role", choices=("parent", "setup", "worker"), default="parent",
                   help=argparse.SUPPRESS)
    p.add_argument("--result", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- worker side -------------------------------------------------------------------


def _import_program():
    """Import nwave from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nwave

    if Path(nwave.__file__).resolve().parent != (src / "nwave").resolve():
        raise BenchError(f"imported nwave from {nwave.__file__}, not from {src}")


def _set_up(args, work: Path):
    """Everything before the first timed job: imports and the frozen inputs."""
    _import_program()
    import jobs

    if args.workload not in jobs.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r} "
                         f"(expected one of {', '.join(jobs.WORKLOADS)})")
    work.mkdir(parents=True, exist_ok=True)
    job_list = jobs.WORKLOADS[args.workload](args.seed, work)
    if args.quick:
        kinds = {}
        for job in job_list:
            kinds.setdefault(job.kind, job)
        job_list = list(kinds.values())
    return job_list


def _ready(args, work: Path):
    """Set up under a speed sampler, then tell the parent process how it went."""
    with speed.Sampler() as sampler:
        job_list = _set_up(args, work)
    print(f"READY {sampler.probe_s!r} {sampler.factor()!r}", flush=True)
    return job_list


def _run_job(job, tracer):
    """Time one job, then check it outside the timed region."""
    error = ""
    # A traced run reports raw layer times, so it takes no speed samples.
    sampler = speed.Sampler() if tracer is None else None
    with sampler or contextlib.nullcontext():
        start = perf_counter()
        try:
            for _ in range(job.repeat):
                result = job.run()
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        spent = sampler.spent if sampler else 0.0
        seconds = (perf_counter() - start - spent) / job.repeat
    ok, terms = False, 0
    if not error:
        with tracer.pause() if tracer else contextlib.nullcontext():
            try:
                ok = bool(job.check(result))
                terms = job.terms(result)
            except Exception as exc:  # a broken output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
    record = {"job": job.name, "kind": job.kind, "seconds": seconds, "ok": ok,
              "terms": terms, "error": error, "known_defect": job.known_defect}
    if sampler:
        record["speed_samples"] = len(sampler.samples)
        record["ref_seconds"] = seconds * sampler.factor()
    return record


def _run_pass(job_list, tracer=None):
    start = perf_counter()
    records = [_run_job(job, tracer) for job in job_list]
    return records, perf_counter() - start


def _worker(args) -> None:
    work = OUT / f"work-{os.getpid()}"
    try:
        job_list = _ready(args, work)
        passes, layers = [], None
        if args.trace:
            untraced, untraced_wall = _run_pass(job_list)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                traced, traced_wall = _run_pass(job_list, tracer)
            finally:
                uninstall()
            passes = [untraced, traced]
            layers = spans.layer_metrics(tracer, untraced_wall, traced_wall)
        else:
            start = perf_counter()
            while not passes or (not args.quick and perf_counter() - start < args.seconds):
                passes.append(_run_pass(job_list)[0])
                if len(passes) == 1:
                    # Later passes repeat the same jobs: all they add to the
                    # high-water mark is allocator fragmentation.
                    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(work, ignore_errors=True)
    terms_per_pass = [sum(r["terms"] for r in p) for p in passes]
    doc = {
        "records": [r for p in passes for r in p],
        "passes": len(passes),
        "out_terms": terms_per_pass[0],
        "terms_repeat": len(set(terms_per_pass)) == 1,
        "peak_rss_mb": peak_kib / 1024.0,
        "layers": layers,
    }
    if args.trace:
        doc["spans"], doc["spans_dropped"] = tracer.spans, tracer.dropped
    Path(args.result).write_text(json.dumps(doc) + "\n")


# -- parent side ---------------------------------------------------------------------


def _child(args, role: str, result: Path = None):
    """Start one interpreter in ``role``; return (its start time, the process)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if result is not None:
        cmd += ["--result", str(result)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return start, proc


def _await(proc, start, deadline: float, what: str) -> tuple:
    """Wait for READY and then for exit.

    Returns the set-up seconds as measured (spawn to READY) and at the
    reference speed (without the child's speed samples, then scaled).
    """
    timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    fields = line.split()
    if len(fields) != 3 or fields[0] != "READY" or code != 0:
        raise BenchError(f"{what} exited with code {code} before finishing")
    probe_s, factor = float(fields[1]), float(fields[2])
    return ready, (ready - probe_s) * factor


def _provenance(args) -> dict:
    import mpmath

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "commit": _git_commit(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
        "speed_s_per_iter_start": speed.probe(3000),
    }


def _git_commit() -> str:
    """HEAD of the checkout from .git files, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _drive(args) -> int:
    if not (ROOT / "src" / "nwave" / "__init__.py").is_file():
        raise BenchError(f"no nwave sources under {ROOT / 'src'}: run from a source checkout")
    deadline = perf_counter() + DEADLINE_S
    provenance = _provenance(args)
    OUT.mkdir(exist_ok=True)
    setup = []
    probes = 0 if args.trace else (1 if args.quick else SETUP_PROBES)
    for _ in range(probes):
        start, proc = _child(args, "setup")
        setup.append(_await(proc, start, deadline, "set-up probe"))
    result_path = OUT / f"worker-{os.getpid()}.json"
    start, proc = _child(args, "worker", result_path)
    setup.append(_await(proc, start, deadline, "worker"))
    try:
        worker = json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)

    provenance["speed_s_per_iter_end"] = speed.probe(3000)
    records = worker["records"]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    attempted = len(records)
    raw = [r["seconds"] for r in records]
    measured = {"setup_s": statistics.median(t for t, _ in setup),
                "jobs_per_s": len(raw) / sum(raw), "job_s_p50": statistics.median(raw)}
    if args.trace:
        metrics = worker["layers"]
    else:
        durations = [r["ref_seconds"] for r in records]
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "jobs_per_s": len(durations) / sum(durations),
            "job_s_p50": statistics.median(durations),
            "peak_rss_mb": worker["peak_rss_mb"],
            "out_terms": worker["out_terms"],
            "ok_frac": (attempted - len(failed)) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = not unexpected and worker["terms_repeat"]
    record = {
        "provenance": provenance, "passes": worker["passes"],
        "setup_samples_s": [{"measured": t, "reference": r} for t, r in setup],
        "measured": measured, "job_samples": attempted, "fail_frac": len(failed) / attempted,
        "metrics": metrics, "records": records,
    }
    if args.trace:
        record["spans_dropped"] = worker["spans_dropped"]
        record["spans"] = worker["spans"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    out_file = OUT / f"{name}.json"
    out_file.write_text(json.dumps(record) + "\n")
    for r in failed:
        note = f" [known defect: {r['known_defect']}]" if r["known_defect"] else ""
        print(f"# FAILED {r['job']}: {r['error'] or 'wrong answer'}{note}")
    print(f"# {args.workload} seed={args.seed} passes={worker['passes']} "
          f"jobs={attempted} failed={len(failed)} fail_frac={len(failed) / attempted:.4f} "
          f"job_s_samples={attempted} loadavg={provenance['loadavg_start']} "
          f"speed_us_per_iter={provenance['speed_s_per_iter_start'] * 1e6:.2f},"
          f"{provenance['speed_s_per_iter_end'] * 1e6:.2f} "
          f"record={out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    try:
        if args.role == "setup":
            work = OUT / f"work-{os.getpid()}"
            try:
                _ready(args, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            return 0
        if args.role == "worker":
            _worker(args)
            return 0
        return _drive(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
