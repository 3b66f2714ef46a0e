"""Benchmark of wtanet training and serving through its command line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload train-iris --seed 0 --seconds 36 --trace 0

The program is imported from ``src/`` of the same checkout and driven
only through ``wtanet.cli.main``, called in-process by one client, back
to back (a closed loop).  Set-up runs once, then whole rounds of the
workload's operations run until ``--seconds`` of them have passed.
Set-up runs again before each of the next rounds, and after the last
one if needed, up to the workload's ``setup_repeats``; the median of
those times is ``setup_s``.

Every set-up, and every ``PROBE_EVERY_S`` of untraced operation time,
is followed by the fixed probe of ``hostspeed.py``.  Each time behind
the end-to-end metrics is scaled by ``PROBE_REF_S`` over the mean of
the probes taken right after it: it is the time the work would take on
a host where the probe takes ``PROBE_REF_S``.  The shared host this
runs on changes speed by a quarter and more over tens of seconds; the
scaling takes most of that out.  The unscaled figures are on the
``info wall_clock`` line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, with the
traced-minus-untraced time per round as ``trace.overhead_s``.  The
last line of standard output is one JSON object; the lines before it,
prefixed ``info``, are reference figures.  Without ``src/wtanet`` the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.5   # operation time between two host-speed probes
PROBE_REF_S = 0.015   # probe time of the reference host speed that timings are scaled to
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    pass


class Terminated(BaseException):
    """SIGTERM; not an Exception, so no operation's error handling swallows it."""


def _terminate(signum, frame):
    raise Terminated


def import_cli():
    """The program's command-line module, from this checkout's sources only."""
    if not (SRC / "wtanet" / "cli.py").is_file():
        raise ProgramMissing(f"no wtanet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wtanet.cli
    if SRC not in Path(wtanet.cli.__file__).resolve().parents:
        raise ProgramMissing(f"wtanet was imported from {wtanet.cli.__file__}, not {SRC}")
    return wtanet.cli


def machine() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "client": "closed loop, 1 client, in-process"}


def info(key: str, value) -> None:
    print(f"info {key} {json.dumps(value, sort_keys=True)}")


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from hostspeed import probe
    from tracing import Tracer
    from workloads import WORKLOADS, OpResult, run_op
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def program(argv):
        return cli.main(argv)  # looked up per call, so traced rounds see the wrapper

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGTERM, _terminate)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times, setup_wall = [], []   # scaled to the reference host speed; unscaled
        probes = []

        def set_up() -> float:
            t0 = time.perf_counter()
            workload.setup(program)
            seconds = time.perf_counter() - t0
            probes.append(probe())
            setup_wall.append(seconds)
            setup_times.append(seconds * PROBE_REF_S / probes[-1])
            return seconds

        set_up()
        ops = workload.round_ops()

        tracer = Tracer() if args.trace else None
        plain, traced = [], []
        scales = []   # per untraced op: reference probe time / the probes right after it
        since_probe = 0.0

        def take_probes(count: int) -> None:
            taken = [probe() for _ in range(count)]
            probes.extend(taken)
            scales.extend([PROBE_REF_S / statistics.fmean(taken)] * (len(plain) - len(scales)))

        def run_plain(op) -> OpResult:
            # one probe per PROBE_EVERY_S of operation time, right after the
            # operation, so that it samples the host speed the operation met
            nonlocal since_probe
            result = run_op(program, op)
            plain.append(result)
            since_probe += result.seconds
            if since_probe >= PROBE_EVERY_S:
                take_probes(int(since_probe // PROBE_EVERY_S))
                since_probe %= PROBE_EVERY_S
            return result

        plain_s = traced_s = 0.0
        rounds = 0
        deadline = time.perf_counter() + args.seconds
        while rounds == 0 or time.perf_counter() < deadline:
            # Set-up repetitions go between the first rounds, so that they
            # sample the same host speed as the operations do; a few
            # back-to-back repetitions span well under a second.
            if 0 < rounds < workload.setup_repeats:
                deadline += set_up()
            results = [run_plain(op) for op in ops]
            plain_s += sum(r.seconds for r in results)
            if tracer is not None:
                tracer.install()
                try:
                    results = [run_op(program, op) for op in ops]
                finally:
                    tracer.uninstall()
                traced += results
                traced_s += sum(r.seconds for r in results)
            rounds += 1
        if len(scales) < len(plain):
            take_probes(1)
        while len(setup_times) < workload.setup_repeats:
            set_up()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality_met, figures = workload.quality()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    everything = plain + traced
    by_kind: dict[str, dict] = {}
    for r in everything:
        entry = by_kind.setdefault(r.kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        if r.error is not None:
            entry["failed"] += 1
            entry.setdefault("first_error", r.error)
    for kind, entry in by_kind.items():
        entry["untraced_p50_ms"] = 1e3 * statistics.median(
            r.seconds for r in plain if r.kind == kind)
    # correct: the quality bound holds and only the known-failing kinds failed
    correct = quality_met and all(entry["failed"] == 0 for kind, entry in by_kind.items()
                                  if kind not in workload.known_failing)
    info("machine", machine())
    info("run", {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                 "ops_per_round": len(ops), "setup_repeats": len(setup_times)})
    info("ops", by_kind)
    info("quality", figures)
    scaled = [r.seconds * scale for r, scale in zip(plain, scales)]
    info("host_probe_ms", {"median": 1e3 * statistics.median(probes), "n": len(probes),
                           "reference": 1e3 * PROBE_REF_S})
    info("wall_clock", {"setup_s": statistics.median(setup_wall),
                        "rows_per_s": sum(r.rows for r in plain) / plain_s,
                        "op_p50_ms": 1e3 * statistics.median(r.seconds for r in plain)})
    singles = [r.seconds * 1e3 for r in plain if r.rows == 1]
    if len(singles) >= 40:
        info("single_row_latency_ms", {"p50": statistics.median(singles),
                                       "p95": quantile(singles, 0.95), "n": len(singles)})

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "rows_per_s": {"value": sum(r.rows for r in plain) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        if tracer.absent:
            info("absent", tracer.absent)
        metrics = tracer.layer_metrics(rounds, (traced_s - plain_s) / rounds)

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(everything),
        "failed": sum(1 for r in everything if r.error is not None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:  # the work directory is already removed
        sys.exit(128 + signal.SIGTERM)
