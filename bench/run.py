#!/usr/bin/env python3
"""Benchmark of the rsdesitter command line and its layers.

Run from the repository root:

    python3 bench/run.py --workload long-trace --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and bench/design.json): ``long-trace``,
``sweep-grid`` and ``certify``.  One process drives the program through
``rsdesitter.cli.main`` in a closed loop with one client; only
``sweep-grid`` starts worker processes (the sweep's own pool, two workers).

``--trace 0`` times ops for ``--seconds`` seconds with no instrumentation
and reports the end-to-end metrics.  ``--trace 1`` is a separate run of a
fixed op list with spans around the public functions of every layer
(spans.py), and reports the per-layer metrics, the tracing overhead and
micro-timings of the hot layer functions at fixed inputs.  The same op list
runs without spans in two more interpreters (``--untraced-pass``), one
before and one after, so that every pass starts from a fresh import and the
same warm-up call.  Every op's outputs are checked; a failed check counts
the op as failed.

Each metric is printed as ``name value unit n=<samples>``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones BENCHMARK.json lists for the chosen trace mode.  The package is
imported from ``./src``; outputs go to ``./.bench_out``.  Without ``./src``
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

import numpy as np

from spans import NAMES, Tracer
from workloads import WORKLOADS, SweepGrid

OUT_DIR = ".bench_out"
LAYERS = ("algebra", "geometry", "wigner", "ansatz", "radial", "solver", "cli")
SETUP_REPEATS = 25
# the first call made by every fresh interpreter before it counts as set up
WARMUP_ARGV = [
    "integrate", "--j", "3/2", "--delta", "+1", "--eps", "1.3", "--mass", "0.7",
    "--from", "0.3", "--to", "0.5", "--tol", "1e-8",
]
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import rsdesitter.cli as cli
t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
print(json.dumps({"import_cli_s": t1 - t0, "code": code}))
"""
SETUP_HELPER = """
import json, subprocess, sys, time
for line in sys.stdin:
    t0 = time.perf_counter()
    proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall": wall, "code": proc.returncode,
                      "stdout": proc.stdout, "stderr": proc.stderr}), flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program(root: str) -> SimpleNamespace:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rsdesitter", "cli.py")):
        raise BenchError(f"no rsdesitter sources under {src}")
    sys.path.insert(0, src)
    import rsdesitter
    from rsdesitter import algebra, ansatz, cli, geometry, radial, solver, wigner

    if not os.path.abspath(rsdesitter.__file__).startswith(os.path.abspath(src) + os.sep):
        raise BenchError(f"imported rsdesitter from {rsdesitter.__file__}, not {src}")
    return SimpleNamespace(
        algebra=algebra, ansatz=ansatz, cli=cli, geometry=geometry,
        radial=radial, solver=solver, wigner=wigner,
    )


def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy, rsdesitter beyond numpy) cumulative import seconds."""
    numpy_us = pkg_us = 0
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cum, name = int(parts[1]), parts[2].strip()
        if name == "numpy":
            numpy_us = max(numpy_us, cum)
        elif name.startswith("rsdesitter"):
            pkg_us = max(pkg_us, cum)
    return numpy_us * 1e-6, (pkg_us - numpy_us) * 1e-6


class SetupSampler:
    """Fresh interpreters that import rsdesitter.cli and make the first call.

    A helper process starts them one at a time, on request, so that none is
    reaped by the benchmark process itself: its children's peak RSS then
    covers only the sweep's pool workers until the helper ends.
    """

    def __init__(self, root: str, outdir: str, importtime: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        self.flags = ["-X", "importtime"] if importtime else []
        self.outdir = outdir
        self.samples = {"wall": [], "import_cli": [], "numpy": [], "rsdesitter": []}
        self.helper = subprocess.Popen([sys.executable, "-c", SETUP_HELPER], cwd=root, env=env,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    @property
    def count(self) -> int:
        return len(self.samples["wall"])

    def sample(self) -> None:
        cmd = [sys.executable, *self.flags, "-c", SETUP_CHILD, *WARMUP_ARGV,
               "--out", os.path.join(self.outdir, "setup", str(self.count))]
        self.helper.stdin.write(json.dumps(cmd) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        run = json.loads(line) if line else {}
        info = json.loads(run["stdout"].strip().splitlines()[-1]) if run.get("stdout") else {}
        if run.get("code") != 0 or info.get("code") != 0:
            raise RuntimeError(f"set-up interpreter failed: {run.get('stderr', '')[-2000:]}")
        self.samples["wall"].append(run["wall"])
        self.samples["import_cli"].append(info["import_cli_s"])
        if self.flags:
            numpy_s, pkg_s = parse_importtime(run["stderr"])
            self.samples["numpy"].append(numpy_s)
            self.samples["rsdesitter"].append(pkg_s)

    def __enter__(self) -> "SetupSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait(timeout=150)


def run_ops(workload, ks) -> tuple[list[dict], float]:
    """Run ops ``ks`` back to back; returns their records and the total wall."""
    records = []
    t_start = time.perf_counter()
    for k in ks:
        records.append(guarded_op(workload, k))
    return records, time.perf_counter() - t_start


def guarded_op(workload, k: int, **kwargs) -> dict:
    t0 = time.perf_counter()
    try:
        rec = workload.run_op(k, **kwargs)
    except Exception:  # an op that crashes is a failed op, not a benchmark crash
        rec = {"k": k, "error": traceback.format_exc()}
    rec["seconds"] = time.perf_counter() - t0
    return rec


def check_all(workload, records: list[dict]) -> list[tuple[int, list[str]]]:
    failures = []
    for rec in records:
        if "error" in rec:
            fails = [rec["error"].strip().splitlines()[-1]]
        else:
            try:
                fails = workload.check(rec)
            except Exception:
                fails = [traceback.format_exc().strip().splitlines()[-1]]
        if fails:
            failures.append((rec["k"], fails))
    return failures


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its percentile.

    With fewer than 20 samples there is no such point above the median; the
    maximum is reported instead (percentile 100).
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(root, outdir, workload, seconds, rs, notes) -> tuple[dict, int, list]:
    # the set-up interpreters run between ops, spread evenly over the timed
    # window, so that they see the same changes in the machine's speed as the
    # ops; their time is not op time
    with SetupSampler(root, outdir, importtime=False) as sampler:
        with contextlib.redirect_stdout(io.StringIO()):
            rs.cli.main(WARMUP_ARGV + ["--out", os.path.join(outdir, "warmup")])
            records, wall = [], 0.0
            while not records or wall < seconds:
                while sampler.count < SETUP_REPEATS * wall / seconds:
                    sampler.sample()
                t0 = time.perf_counter()
                records.append(guarded_op(workload, len(records)))
                wall += time.perf_counter() - t0
            while sampler.count < SETUP_REPEATS:
                sampler.sample()
        rss = peak_rss_mb(with_children=isinstance(workload, SweepGrid))
    setup = sampler.samples
    failures = check_all(workload, records)
    times = [r["seconds"] for r in records]
    n = len(times)
    tail_s, tail_pct = tail(times)
    notes.append(f"op_s.tail is the p{tail_pct:.1f} op time of {n} ops")
    metrics = {
        "setup_s": (statistics.median(setup["wall"]), "s", len(setup["wall"])),
        "op_s.median": (statistics.median(times), "s", n),
        "op_s.tail": (tail_s, "s", n),
        "op_s.tail_percentile": (tail_pct, "%", n),
        "ops_per_s": (n / wall, "1/s", n),
        "failed_frac": (len(failures) / n, "ratio", n),
        "peak_rss_mb": (rss, "MB", 1),
    }
    return metrics, n, failures


def serial_vs_pool(outdir: str) -> str:
    """Whether the serial proxy wrote the same bytes as the pool's sweep."""
    pool, serial = os.path.join(outdir, "pool0"), os.path.join(outdir, "serial_untraced")
    names = sorted(f for f in os.listdir(serial) if f.startswith("sweep_"))
    same = all(
        os.path.exists(os.path.join(pool, f))
        and filecmp.cmp(os.path.join(pool, f), os.path.join(serial, f), shallow=False)
        for f in names
    )
    return f"serial jobs {'match' if same else 'DIFFER from'} the sweep's {len(names)} files"


def integrate_counts(tracer: Tracer) -> dict:
    """Step and evaluation counts of every traced ``solver.integrate`` call."""
    rhs = tracer.children_of("solver.integrate", "radial.RadialSystem.matrix")
    res = tracer.children_of("solver.integrate", "radial.ConstraintSet.residuals")
    acc = rej = 0
    for k, n_rhs in rhs.items():
        steps = getattr(tracer.results.get(k), "n_steps", 0)
        acc += steps
        # one evaluation at the start, then six per attempted step (FSAL pair)
        rej += (n_rhs - 1) // 6 - steps if n_rhs else 0
    return {
        "accepted": acc, "rejected": rej,
        "rhs": sum(rhs.values()), "residuals": sum(res.values()),
    }


def micro_timings(rs) -> dict:
    """Per-call microseconds of hot layer functions at the ROADMAP's fixed inputs."""
    mode = rs.ansatz.ModeLabel(j=1.5, m_j=0.5, eps=1.3, mass=0.7, delta=1)
    system = rs.radial.RadialSystem(mode=mode, dimension=8)
    cons = rs.radial.ConstraintSet(mode=mode)
    state = np.full(8, 1.0 + 0.5j)
    omega = 0.7

    def per_call_us(fn, loops: int, repeats: int = 7) -> tuple[float, int]:
        fn()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                fn()
            samples.append((time.perf_counter() - t0) / loops)
        return statistics.median(samples) * 1e6, repeats

    return {
        "radial.build_A8.micro_us": per_call_us(lambda: rs.radial.build_A8(mode, omega), 400),
        "radial.ConstraintSet.residuals.micro_us":
            per_call_us(lambda: cons.residuals(omega, state), 200),
        "solver.frobenius.micro_us":
            per_call_us(lambda: rs.solver.frobenius(system, "origin"), 10),
        "radial.assemble_from_angular.micro_us":
            per_call_us(lambda: rs.radial.assemble_from_angular(mode, omega), 1),
    }


def untraced_pass(workload, rs, outdir: str) -> dict:
    """The traced pass's ops without spans, run in a fresh interpreter after the warm-up."""
    d = os.path.join(outdir, "serial_untraced" if isinstance(workload, SweepGrid) else "untraced")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    with contextlib.redirect_stdout(io.StringIO()):
        rs.cli.main(WARMUP_ARGV + ["--out", os.path.join(outdir, "warmup_untraced")])
        if isinstance(workload, SweepGrid):
            t0 = time.perf_counter()
            codes = [rs.cli.run_integrate(ns, d, tag=tag) for ns, tag in workload.jobs(0)]
            wall = time.perf_counter() - t0
        else:
            workload.outdir = d
            records, wall = run_ops(workload, range(workload.trace_ops))
            codes = [c for r in records for c in r.get("codes", [1])]
    return {"wall": wall, "codes": codes}


def run_untraced_pass(root: str, args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
           "--size", args.size, "--untraced-pass"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"untraced pass failed: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def per_layer(root, outdir, workload, rs, args, notes) -> tuple[dict, int, list]:
    # the untraced pass runs before and after the traced one, so that a slow
    # drift of the machine's speed falls on both alike
    untraced = [run_untraced_pass(root, args)]
    tracer = Tracer(vars(rs))
    metrics = {}
    with contextlib.redirect_stdout(io.StringIO()):
        rs.cli.main(WARMUP_ARGV + ["--out", os.path.join(outdir, "warmup")])
        if isinstance(workload, SweepGrid):
            # the pool forks from this process, so it runs before the traced
            # pass could leave anything behind in it
            records = [guarded_op(workload, 0, opdir=os.path.join(outdir, f"pool{i}"))
                       for i in range(3)]
            pool_wall = statistics.median(r["seconds"] for r in records)
            # spans cannot leave the pool's workers: the same jobs run serially
            # in this process through cli.run_integrate for the layer numbers
            d = os.path.join(outdir, "serial_traced")
            os.makedirs(d)
            with tracer:
                t0 = time.perf_counter()
                codes = [rs.cli.run_integrate(ns, d, tag=tag) for ns, tag in workload.jobs(0)]
                traced_wall = time.perf_counter() - t0
            if any(codes):
                records.append({"k": 0, "error": f"serial traced jobs exited {codes}"})
        else:
            workload.outdir = os.path.join(outdir, "traced")
            with tracer:
                records, traced_wall = run_ops(workload, range(workload.trace_ops))
            workload.outdir = outdir
    untraced.append(run_untraced_pass(root, args))
    untraced_wall = statistics.mean(u["wall"] for u in untraced)
    codes = [c for u in untraced for c in u["codes"]]
    if any(codes):
        records.append({"k": 0, "error": f"untraced passes exited {codes}"})
    if isinstance(workload, SweepGrid):
        notes.append(serial_vs_pool(outdir))
        metrics["cli.sweep.pool_efficiency"] = (
            untraced_wall / (SweepGrid.WORKERS * pool_wall), "ratio", len(untraced)
        )
    else:
        metrics["cli.sweep.pool_efficiency"] = (0.0, "ratio", 0)
    failures = check_all(workload, records)
    if tracer.missing:
        notes.append("not found, so not traced: " + ", ".join(tracer.missing))

    summary = tracer.summary()
    for name in NAMES:
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count", 1)
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s", summary[name]["calls"])
    for module in LAYERS:
        own = [s for n, s in summary.items() if n.startswith(module + ".")]
        metrics[f"{module}.self_s"] = (
            sum(s["self_s"] for s in own), "s", sum(s["calls"] for s in own)
        )
    a8 = summary["radial.build_A8"]
    metrics["radial.build_A8.us_per_call"] = (
        a8["self_s"] / a8["calls"] * 1e6 if a8["calls"] else 0.0, "us", a8["calls"]
    )
    counts = integrate_counts(tracer)
    attempts = counts["accepted"] + counts["rejected"]
    integ = summary["solver.integrate"]
    metrics.update({
        "solver.integrate.accepted_steps": (counts["accepted"], "count", 1),
        "solver.integrate.rejected_steps": (counts["rejected"], "count", 1),
        "solver.integrate.rhs_evals": (counts["rhs"], "count", 1),
        "solver.integrate.residual_evals": (counts["residuals"], "count", 1),
        "solver.integrate.accept_ratio": (
            counts["accepted"] / attempts if attempts else 0.0, "ratio", attempts
        ),
        "solver.integrate.us_per_step": (
            integ["total_s"] / counts["accepted"] * 1e6 if counts["accepted"] else 0.0,
            "us", counts["accepted"],
        ),
        "cli.atomic_write.bytes": (tracer.counters["cli.atomic_write.bytes"], "B", 1),
        "trace.overhead_s": (traced_wall - untraced_wall, "s", len(untraced)),
        "trace.overhead_frac": (
            (traced_wall - untraced_wall) / untraced_wall, "ratio", len(untraced)
        ),
    })
    for name, (value, repeats) in micro_timings(rs).items():
        metrics[name] = (value, "us", repeats)
    with SetupSampler(root, outdir, importtime=True) as sampler:
        for _ in range(SETUP_REPEATS):
            sampler.sample()
    setup = sampler.samples
    metrics["setup.import_numpy_s"] = (statistics.median(setup["numpy"]), "s", SETUP_REPEATS)
    metrics["setup.import_rsdesitter_s"] = (
        statistics.median(setup["rsdesitter"]), "s", SETUP_REPEATS
    )
    metrics["setup.import_cli_s"] = (statistics.median(setup["import_cli"]), "s", SETUP_REPEATS)

    under_frob = sum(
        1 for k, n in enumerate(tracer.span_name)
        if n == tracer.index["radial.build_A8"] and tracer.has_ancestor(k, "solver.frobenius")
    )
    notes.append(f"radial.build_A8 calls under solver.frobenius: {under_frob} of {a8['calls']}")
    shares = sorted(((s["self_s"], n) for n, s in summary.items()), reverse=True)[:3]
    notes.append("largest self time: " + ", ".join(f"{n} {t:.3f} s" for t, n in shares))
    return metrics, len(records), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the reduced op lists of selftest.py")
    parser.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        spec_path = os.path.join(root, "BENCHMARK.json")
        if not os.path.isfile(spec_path):
            raise BenchError("run from the repository root: BENCHMARK.json not found")
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        rs = load_program(root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    # relative, so that the paths the CLI records do not depend on the checkout's place
    outdir = os.path.join(OUT_DIR, args.workload)
    workload = WORKLOADS[args.workload](rs, args.seed, outdir, args.size == "small")
    if args.untraced_pass:
        print(json.dumps(untraced_pass(workload, rs, outdir)))
        return 0
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    notes: list[str] = []
    if args.trace:
        metrics, attempted, failures = per_layer(root, outdir, workload, rs, args, notes)
    else:
        metrics, attempted, failures = end_to_end(root, outdir, workload, args.seconds, rs, notes)

    for k, fails in failures:
        for f in fails:
            print(f"FAILED op {k}: {f}")
    for note in notes:
        print(f"note: {note}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value!r} {unit} n={n}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {}
    for m in wanted:
        if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]:
            print(f"bench: metric {m['name']} [{m['unit']}] not produced", file=sys.stderr)
            return 1
        value = metrics[m["name"]][0]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
