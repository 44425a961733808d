"""Benchmark for birange: end-to-end metrics, and per-layer spans when traced.

Usage, from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 35 --trace 0

Workloads (one caller in one process, closed loop, no threads):

* ``classify`` -- library ``check_general`` on disguised block forms; an op
  builds the ``BlockForm`` from plain complex entries and classifies it.
  The decision layers do all the work and the LAPACK oracles none.
* ``audit``    -- ``birange check --format json`` through in-process
  ``cli.main`` on JSON-array files of 100 documents, alternately in block
  and raw form.  The oracles dominate and the decision barely registers.
* ``verify``   -- ``birange verify`` on one document per call, on the
  documents of ``audit``: the same oracles plus the verify-only checks and
  a per-call load and parse that no batch amortizes.  Real case ii
  documents are left out: their matrices are unitarily reducible, and
  ``birange verify`` exits 3 on every one of them because it demands an
  irreducible matrix behind each positive verdict.
* ``verify_reducible`` -- ``birange verify`` on exactly those real case ii
  documents, so that this defect shows; it reports only ``error_rate``.
* ``affine``   -- ``check_general`` on the same families behind A -> tA + c
  over sixteen orders of magnitude.  It runs a fixed set of instances,
  whatever ``--seconds`` says, and reports only ``error_rate``: the time per
  instance depends on whether the trace gate wrongly short-circuits, so
  timing it would reward the defect.

The corpus comes from ``corpus.py`` and the seed alone; every document is
written before timing starts, its SHA-256 is printed, and a second
generation from the same seed must reproduce it byte for byte.  An op fails
when its verdict contradicts the label of the family that built it, when it
raises, when the CLI exits with another code than 0 (positive label) or 1
(negative label) or prints a traceback, or when a JSON report lists a
consistency failure.

With ``--trace 0`` the run prints the end-to-end metrics.  Every time is
CPU time (user + system), so that the time a call waits for a core held by
the rest of the host is not counted, scaled to a nominal host speed: a
fixed kernel that does not touch the program runs between calls, and each
call's time is multiplied by the kernel's nominal time over its time
measured next to the call (see ``speed.py``).  ``classify`` and ``setup_s``
are scaled by a pure-Python kernel, ``audit`` and ``verify`` by one of pure
Python and numpy.  ``setup_s`` is the median of fresh interpreters running
``import birange.cli``.  ``latency_*`` time one call the caller waits on:
one ``check_general`` call (classify), one 100-document ``birange check``
call (audit) or one ``birange verify`` call (verify).  ``batch_s`` is the time to get 100 instances through: on
``audit`` the median call, so there it equals ``latency_p50_ms``; elsewhere
100 x the mean call time per instance, so there it is
100 / ``throughput_per_s``.  ``throughput_per_s`` counts matrices or
documents per second of call time; ``peak_rss_mb`` is this process's peak
resident set in units of 2^20 bytes.  A line after the metrics gives the
unscaled wall-clock and CPU rates and the kernel's median time.  The two
workloads that reveal defects, ``affine`` and ``verify_reducible``, print
``error_rate`` as their only metric; on the others it is printed as a line,
and is ``failed / attempted`` of the JSON.

With ``--trace 1`` the run patches span wrappers in (see ``tracing.py``),
runs the workload traced for half of ``--seconds``, then runs the same ops
untraced to get the tracing overhead and to check that the outputs are
unchanged and that no wrapper is left behind.  It prints per-layer metrics,
per matrix or document, and writes the spans to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller and no threads: OpenBLAS starts no pool of its own, whose
# waiting threads would add to the process's CPU time.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import corpus  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CLASSIFY_INSTANCES = 2000
DOC_INSTANCES = 800
AFFINE_INSTANCES = 1200
BATCH = 100
SETUP_REPEATS = 15

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *(
        (f"{layer}.{kind}", unit, "lower")
        for layer in tracing.LAYER_NAMES
        for kind, unit in (("calls", "calls/op"), ("self_ms", "ms"), ("share", "ratio"))
    ),
    *((f"lapack.{name}_calls", "calls/op", "lower") for name in tracing.LAPACK),
    ("linalg.cmatrix_new", "count/op", "lower"),
    ("criteria.find_theta.found_ratio", "ratio", "higher"),
    ("nrcore.boundary_support.degenerate_directions", "count/op", "lower"),
    ("nrcore.flat_portions.flats_found", "count/op", "higher"),
    *(
        (f"criteria.reason.{r}", "ratio", "higher" if r == "BiElliptical" else "lower")
        for r in tracing.REASONS
    ),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def load_program():
    """Import the package from this checkout's ``src``, or exit with 2."""
    sys.path.insert(0, str(SRC))
    try:
        import birange.cli
    except ImportError as exc:
        print(f"error: cannot import birange from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(birange.cli.__file__).resolve().parents:
        print(f"error: birange was imported from outside {SRC}", file=sys.stderr)
        sys.exit(2)
    return birange.cli


class Op:
    """One call the caller waits on: ``size`` instances with their labels."""

    def __init__(self, payload, labels):
        self.payload = payload
        self.labels = labels

    @property
    def size(self) -> int:
        return len(self.labels)


class Classify:
    # The speed kernel (see speed.py) whose slowdowns the op's follow.
    kernel = "interpreted"

    def __init__(self, cli, instances, workdir):
        from birange import criteria, forms, linalg

        self.criteria, self.forms, self.linalg = criteria, forms, linalg
        self.ops = [Op(inst, (inst["label"],)) for inst in instances]
        self.warmup = self.ops[:20]

    def call(self, op):
        inst = op.payload
        cm = self.linalg.CMatrix
        bf = self.forms.normalize_block(inst["alpha"], inst["beta"], cm(inst["C"]), cm(inst["D"]))
        return self.criteria.check_general(bf).bielliptical

    def check(self, op, verdict):
        return int(verdict != op.labels[0]), verdict


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path: Path, obj) -> Path:
    path.write_bytes(corpus.dump(obj))
    return path


class Audit:
    kernel = "mixed"

    def __init__(self, cli, instances, workdir):
        self.cli = cli
        docs = [corpus.document(inst) for inst in instances]
        labels = [inst["label"] for inst in instances]
        self.ops = [
            Op(_write(workdir / f"batch{b:03d}.json", docs[b : b + BATCH]),
               tuple(labels[b : b + BATCH]))
            for b in range(0, len(docs), BATCH)
        ]
        self.warmup = [Op(_write(workdir / "warmup.json", docs[5:9]), tuple(labels[5:9]))]

    def call(self, op):
        return _run_cli(self.cli, ["check", "--format", "json", str(op.payload)])

    def check(self, op, result):
        code, out, err = result
        try:
            reports = json.loads(out)
        except json.JSONDecodeError:
            reports = None
        if isinstance(reports, dict):
            reports = [reports]
        if (not isinstance(reports, list) or len(reports) != op.size
                or not all(isinstance(rep, dict) for rep in reports)
                or "Traceback" in out + err):
            return op.size, (code, None)
        bad = sum(
            (rep.get("verdict") == "BiElliptical") != label
            or bool(rep.get("consistency_failures", True))
            for label, rep in zip(op.labels, reports)
        )
        if bad == 0 and code != (0 if all(op.labels) else 1):
            bad = op.size
        return bad, (code, tuple(rep.get("verdict") for rep in reports))


class Verify:
    kernel = "mixed"

    def __init__(self, cli, instances, workdir):
        self.cli = cli
        self.ops = [
            Op(_write(workdir / f"doc{k:04d}.json", corpus.document(inst)), (inst["label"],))
            for k, inst in enumerate(instances)
        ]
        self.warmup = self.ops[6:9]

    def call(self, op):
        return _run_cli(self.cli, ["verify", str(op.payload)])

    def check(self, op, result):
        code, out, err = result
        want = 0 if op.labels[0] else 1
        return int(code != want or "Traceback" in out + err), code


def _reducible(inst) -> bool:
    return inst["family"] == "real_case_ii"


# name -> (workload, instances generated, affine corpus, instance filter,
# timed).  An untimed workload runs its whole filtered corpus once and
# reports only error_rate.
WORKLOADS = {
    "classify": (Classify, CLASSIFY_INSTANCES, False, None, True),
    "audit": (Audit, DOC_INSTANCES, False, None, True),
    "verify": (Verify, DOC_INSTANCES, False, lambda i: not _reducible(i), True),
    "verify_reducible": (Verify, DOC_INSTANCES, False, _reducible, False),
    "affine": (Classify, AFFINE_INSTANCES, True, None, False),
}


def measure(work, ops, seconds: float, limit: int | None = None, tracer=None,
            pause=None, pauses: int = 0, host=None):
    """Closed loop over ``ops``, cycling: until ``seconds`` of wall time have
    passed since the loop began, or exactly ``limit`` ops when a limit is
    given.  Each call's CPU time goes to ``durations``, its wall time to
    ``walls``; a ``speed.Tracker`` given as ``host`` samples the host's speed
    between calls, outside the call time.

    ``pause`` is called ``pauses`` times between ops, at evenly spaced
    points of the loop, so that what it measures sees the same machine
    states as the ops do; its own time is not counted in any call.  The
    pauses and speed samples count against ``seconds``, so a slow host does
    not stretch the run.
    """
    durations, walls, sizes, failed, signatures = [], [], [], 0, []
    budget = seconds * 1e9
    start = time.perf_counter_ns()
    spent = done = k = 0
    while limit is None or k < limit:
        if done < pauses and spent >= done * budget / pauses:
            pause()
            done += 1
        op = ops[k % len(ops)]
        scope = tracer.op(k) if tracer is not None else contextlib.nullcontext()
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            with scope:
                result = work.call(op)
        except Exception as exc:  # an op that raises is a failed op
            t1, c1 = time.perf_counter_ns(), time.process_time_ns()
            bad, sig = op.size, f"raised {type(exc).__name__}: {exc}"
        else:
            t1, c1 = time.perf_counter_ns(), time.process_time_ns()
            bad, sig = work.check(op, result)
        durations.append(c1 - c0)
        walls.append(t1 - t0)
        if host is not None:
            host.after_call(c1 - c0)
        sizes.append(op.size)
        failed += bad
        signatures.append(sig)
        spent = time.perf_counter_ns() - start
        k += 1
        if limit is None and spent >= budget:
            break
    for _ in range(done, pauses):
        pause()
    if host is not None:
        host.close()
    return {"durations": durations, "walls": walls, "sizes": sizes, "failed": failed,
            "signatures": signatures}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SetupProbe:
    """CPU times (user + system) of fresh interpreters running
    ``import birange.cli``, scaled to the nominal host speed by kernel
    samples taken just before and after each import.

    The import is CPU-bound: its wall time exceeds its CPU time only by the
    time it waits for a core, which depends on the rest of the host.  A
    first, untimed import writes the bytecode caches."""

    KERNEL = "interpreted"

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", "import birange.cli"]
        self.times: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def __call__(self):
        before = speed.sample(self.KERNEL, 5)
        t0 = _child_cpu()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        cpu = _child_cpu() - t0
        after = speed.sample(self.KERNEL, 5)
        self.times.append(cpu * speed.scale(self.KERNEL, before, after))


def end_to_end(run, setup: list[float], host) -> tuple[dict, list[str]]:
    """End-to-end metrics from the calls' CPU times scaled to the reference
    host speed (see ``speed.py``)."""
    raw, sizes = run["durations"], run["sizes"]
    dur = host.scaled(raw)
    ms = [d / 1e6 for d in dur]
    n_ops = len(dur)
    instances = sum(sizes)
    p95 = nearest_rank(ms, 0.95)
    # When one call takes a whole batch (audit), batch_s is the median call.
    # Otherwise it is BATCH / throughput_per_s.
    whole = all(size == BATCH for size in sizes)
    batch_ns = statistics.median(dur) if whole else BATCH * sum(dur) / instances
    values = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": instances / (sum(dur) / 1e9),
        "latency_p50_ms": statistics.median(ms),
        "latency_p95_ms": p95,
        "batch_s": batch_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports spread over the run",
        "throughput_per_s": f"{instances} instances in {sum(dur) / 1e9:.2f} s of calls",
        "latency_p50_ms": f"{n_ops} calls",
        "latency_p95_ms": f"{n_ops} calls, {sum(x > p95 for x in ms)} above",
        "batch_s": (f"median of {n_ops} calls of {BATCH} documents" if whole
                    else f"{BATCH} x mean call time per instance"),
        "peak_rss_mb": "this process",
    }
    units = dict(END_TO_END)
    lines = [f"{name:<18} {values[name]:.6g} {units[name]}  ({notes[name]})" for name in values]
    wall, cpu = sum(run["walls"]), sum(raw)
    kernel = statistics.median(host.samples)
    lines.append(f"unscaled: {instances / (wall / 1e9):.6g} instances per second of wall time, "
                 f"{instances / (cpu / 1e9):.6g} per second of CPU time (CPU / wall {cpu / wall:.4f}); "
                 f"{host.kernel} kernel {kernel / 1e6:.4g} ms, median of {len(host.samples)} "
                 f"samples, against {speed.KERNELS[host.kernel][1] / 1e6:.4g} ms nominal")
    return values, lines


def per_layer(tracer, traced, untraced, hosts) -> tuple[dict, list[str], dict]:
    """Per-layer metrics, per matrix or document, from the traced run.

    Shares are of the traced calls' wall time, the clock of the spans; the
    overhead compares CPU times scaled to the nominal host speed, with
    ``hosts`` the speed trackers of the traced and the untraced run."""
    ops = sum(traced["sizes"])
    wall = sum(traced["walls"])
    summary = tracer.summary(wall, ops)
    values = {}
    for name, layer in summary["layers"].items():
        for kind in ("calls", "self_ms", "share"):
            values[f"{name}.{kind}"] = layer[kind]
    for key, val in summary["counts"].items():
        if key != "criteria.find_theta.found":
            values[key] = val
    values["trace.overhead_ratio"] = (sum(hosts[0].scaled(traced["durations"]))
                                      / sum(hosts[1].scaled(untraced["durations"])))
    values = {name: values[name] for name, _, _ in PER_LAYER}
    lines = [f"{'layer':<32} {'calls/op':>9} {'self ms':>9} {'incl ms':>9} {'share':>7}"]
    for name, layer in sorted(summary["layers"].items(), key=lambda kv: -kv[1]["share"]):
        lines.append(
            f"{name:<32} {layer['calls']:9.3f} {layer['self_ms']:9.4f} "
            f"{layer['incl_ms']:9.4f} {layer['share']:7.2%}"
        )
    lines += [f"{key:<46} {val:.6g}" for key, val in summary["counts"].items()]
    lines.append(f"result counters ({tracing.OBSERVE} spans): {summary['observe_share']:.2%} "
                 f"of traced call time, in no layer's self time")
    lines.append(f"tracing overhead: traced/untraced scaled CPU time {values['trace.overhead_ratio']:.4f}"
                 f" over the same {len(traced['durations'])} calls")
    return values, lines, summary


def write_spans(path: Path, tracer, summary) -> None:
    names = (tracing.ROOT, *tracing.LAYER_NAMES, tracing.OBSERVE)
    index = {name: k for k, name in enumerate(names)}
    with path.open("w") as fh:
        json.dump({"names": names, "summary": summary, "counts": tracer.counts,
                   "spans": [[index[n], s, e, p, o] for n, s, e, p, o in tracer.spans]}, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_program()
    kind, count, affine, keep, timed = WORKLOADS[args.workload]

    def instances():
        return [i for i in corpus.generate(args.seed, count, affine) if keep is None or keep(i)]

    chosen = instances()
    digest = corpus.digest(chosen)
    deterministic = corpus.digest(instances()) == digest
    print(f"workload {args.workload}  seed {args.seed}  corpus {len(chosen)} instances  "
          f"sha256 {digest}  regenerated identically: {deterministic}")

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        work = kind(cli, chosen, workdir)
        limit = None if timed else len(work.ops)
        measure(work, work.warmup, 0, len(work.warmup))
        if args.trace:
            tracer = tracing.Tracer()
            hosts = speed.Tracker(work.kernel), speed.Tracker(work.kernel)
            with tracer.installed():
                wrappers = tracer.wrappers()
                traced = measure(work, work.ops, args.seconds / 2, limit, tracer,
                                 host=hosts[0])
            untraced = measure(work, work.ops, 0, len(traced["durations"]), host=hosts[1])
            left = tracing.reachable(wrappers)
            same = traced["signatures"] == untraced["signatures"]
            values, lines, summary = per_layer(tracer, traced, untraced, hosts)
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            write_spans(spans_path, tracer, summary)
            lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
                         f"wrappers left after restore: {left}; untraced outputs "
                         f"{'match' if same else 'DIFFER from'} traced outputs")
            run, ok = traced, left == 0 and same
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            setup = SetupProbe() if timed else None
            host = speed.Tracker(work.kernel) if timed else None
            run = measure(work, work.ops, args.seconds, limit,
                          pause=setup, pauses=SETUP_REPEATS if timed else 0, host=host)
            ok = True
            values, lines = end_to_end(run, setup.times, host) if timed else ({}, [])
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(run["sizes"])
    failed = run["failed"]
    if not timed and not args.trace:
        values, units = {"error_rate": failed / attempted}, {"error_rate": "ratio"}
    lines.append(f"{'error_rate':<18} {failed / attempted:.6g} ratio  "
                 f"({failed} failed of {attempted} attempted)")
    for line in lines:
        print(line)
    result = {
        "correct": deterministic and ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
