"""Command-line entry point.

Subcommands
-----------
verify {algebra,geometry,wigner,ansatz}
    run the identity/oracle batteries and write a JSON report
reduce
    print the reduced 8x8 coefficient matrix and constraint rows at one omega
indices
    endpoint residue matrices, exponents and eigenvectors (JSON)
integrate
    one radial integration; CSV trace plus JSON manifest
sweep
    independent integrations over parameter lists, run in-process as one
    batched integration; every job is integrated before any file is written

Every command writes a JSON manifest naming each emitted data file with a
sha256 content hash, the tolerances applied, and the table of coefficient
adjudications baked into the package.  Exit status: 0 on success, 2 on
usage errors, 3 on numerical failure (a diagnostic manifest is still
written when possible).  Output is deterministic for a fixed seed.

Options may also be given in a config file of ``key = value`` lines
(``#`` comments allowed), each key an option of the subcommand without its
dashes; any other key is a usage error, and a value on the command line
always wins.  The default output directory is taken from RSDESITTER_OUTDIR
when set.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__, algebra, geometry, radial, solver, wigner
from .ansatz import (
    ADJUDICATIONS,
    ModeLabel,
    forced_zero_slots,
    random_state,
    verify_angular_operator,
    verify_divergence_constraint,
    verify_j03_action,
    verify_T_action,
    verify_trace_constraint,
)

USAGE_ERROR, NUMERICAL_ERROR = 2, 3
# 17 significant digits: every float written round-trips exactly
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def parse_half_integer(text: str, name: str = "value") -> Fraction:
    """Parse 'p/2' or an integer/half-integer literal exactly."""
    try:
        frac = Fraction(text.strip())
        float(frac)  # every later use takes the float; it must be finite
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be a half-integer like 3/2, got {text!r}") from exc
    except OverflowError as exc:
        raise ValueError(f"{name} = {text!r} is too large for a float") from exc
    if (2 * frac).denominator != 1:
        raise ValueError(f"{name} must be a half-integer like 3/2, got {text!r}")
    return frac


def parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex value {text!r}") from exc


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators require."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def read_config(path: str) -> list[tuple[int, str, str]]:
    """The (line number, key, value) entries of a ``key = value`` file."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            entries.append((lineno, key.strip(), val.strip()))
    return entries


def atomic_write(path: str, data: str) -> str:
    """Write ``data`` as UTF-8 through a temporary file; return the bytes' sha256."""
    raw = data.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(raw)
    os.replace(tmp, path)
    return hashlib.sha256(raw).hexdigest()


# stands in for the adjudication table while the rest of a manifest is encoded
_SPLICE = "\x00adjudications\x00"


@functools.cache
def _adjudications_json() -> str:
    """The adjudication table as it is encoded one level inside a manifest."""
    return json.dumps(list(ADJUDICATIONS), indent=2, sort_keys=True).replace("\n", "\n  ")


class Manifest:
    """Collects checks, outputs and warnings of one command run."""

    def __init__(self, command: str, config: dict):
        self.data = {
            "command": command,
            "config": {k: repr(v) for k, v in sorted(config.items())},
            "package_version": __version__,
            "numpy_version": np.__version__,
            "adjudications": list(ADJUDICATIONS),
            "checks": [],
            "outputs": [],
            "warnings": [],
            "status": "ok",
        }

    def check(self, name: str, residual: float, tolerance: float) -> bool:
        ok = bool(residual < tolerance)
        self.data["checks"].append(
            {
                "name": name,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "pass": ok,
            }
        )
        return ok

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)

    def add_output(self, path: str, kind: str, sha256: str) -> None:
        """Record a written file with the digest :func:`atomic_write` returned."""
        self.data["outputs"].append(
            {"path": os.path.basename(path), "kind": kind, "sha256": sha256}
        )

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.data["checks"])

    def write(self, path: str) -> str:
        """Write the manifest; return its sha256.

        A failed check turns status 'ok' into 'check-failed'.  The bytes are
        those of ``json.dumps(data, indent=2, sort_keys=True)``; the package's
        adjudication table, the bulk of every manifest, is encoded once per
        process and spliced in.
        """
        if self.data["status"] == "ok" and not self.all_passed:
            self.data["status"] = "check-failed"
        if self.data["adjudications"] != list(ADJUDICATIONS):
            return atomic_write(path, json.dumps(self.data, indent=2, sort_keys=True) + "\n")
        text = json.dumps(dict(self.data, adjudications=_SPLICE), indent=2, sort_keys=True)
        return atomic_write(path, text.replace(json.dumps(_SPLICE), _adjudications_json(), 1) + "\n")


# ---------------------------------------------------------------------------
# verification batteries
# ---------------------------------------------------------------------------

def run_verify_algebra(manifest: Manifest) -> None:
    manifest.check("clifford", algebra.clifford_residual(), 1e-13)
    for fam in ("bispinor", "vector", "tilde"):
        manifest.check(f"lorentz-{fam}", algebra.lorentz_algebra_residual(fam), 1e-13)
    for name, res in algebra.gamma_contraction_residuals().items():
        manifest.check(name, res, 1e-13)
    for name, res in algebra.tilde_similarity_residuals().items():
        manifest.check(f"tilde-similarity-{name}", res, 1e-13)
    for name, res in algebra.unitarity_residuals().items():
        manifest.check(f"unitarity-{name}", res, 1e-12)
    manifest.check("parity-involution", algebra.parity_involution_residual(), 1e-13)
    manifest.check(
        "momentum-conjugation", algebra.total_momentum_conjugation_residual(), 1e-6
    )


def run_verify_geometry(manifest: Manifest, n_points: int, seed: int) -> None:
    """Closed forms against their oracles at ``n_points`` seeded (omega, theta) points.

    Every quantity is evaluated once for all points; the points are drawn
    pair by pair, omega then theta.
    """
    if n_points < 1:
        raise ValueError(f"--points must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    omega, theta = np.array(
        [(rng.uniform(0.15, 1.35), rng.uniform(0.3, np.pi - 0.3)) for _ in range(n_points)]
    ).T
    r = np.sin(omega)
    e = geometry._closed_tetrad_at(r, theta)
    gram = e @ geometry._metric_at(r, theta) @ np.swapaxes(e, -1, -2)
    closed_g, closed_l = geometry._connections_at(r, theta)
    fd_g, fd_l = geometry._connections_fd_at(r, theta, 1e-5)
    dv = geometry._tetrad_divergences_at(r, theta)
    dv_fd = geometry._tetrad_divergences_fd_at(r, theta, 1e-5)
    manifest.check("tetrad-orthonormality", float(np.abs(gram - algebra.METRIC).max()), 1e-12)
    manifest.check("bispinor-connection-oracle", float(np.abs(closed_g - fd_g).max()), 1e-6)
    manifest.check("vector-connection-oracle", float(np.abs(closed_l - fd_l).max()), 1e-6)
    manifest.check("divergence-oracle", float(np.abs(dv - dv_fd).max()), 1e-6)


def run_verify_wigner(
    manifest: Manifest, j: Fraction, m: Fraction, grid: int, outdir: str
) -> None:
    if grid < 1:
        raise ValueError(f"--grid must be at least 1, got {grid}")
    thetas = np.linspace(0.02, np.pi - 0.02, grid)
    rows = wigner.recurrence_residuals(float(j), float(m), thetas)
    lines = ["relation,residual,residual_fd,fd_vs_analytic"]
    for row in rows:
        lines.append(
            f"{row['relation']},{_fmt(row['residual'])},"
            f"{_fmt(row['residual_fd'])},{_fmt(row['fd_vs_analytic'])}"
        )
        manifest.check(f"recurrence {row['relation']}", row["residual"], 1e-9)
        manifest.check(
            f"fd-agreement {row['relation']}", row["fd_vs_analytic"], 1e-6
        )
    path = os.path.join(outdir, f"wigner_j{j.numerator}_2_m{m.numerator}_2.csv".replace("-", "m"))
    manifest.add_output(path, "residual-table", atomic_write(path, "\n".join(lines) + "\n"))


def run_verify_ansatz(manifest: Manifest, mode: ModeLabel, seed: int, outdir: str) -> None:
    """The ansatz checks at ten seeded points; each check's worst residual is reported.

    Each point draws a state, its radial derivative, theta and phi, in that order.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(10):
        state = random_state(mode, rng)
        dstate = random_state(mode, rng)
        theta = rng.uniform(0.25, np.pi - 0.25)
        phi = rng.uniform(0.0, 2 * np.pi)
        ladder = verify_T_action(mode, state, theta, phi)
        row = {
            "ladder-t2": ladder["t2_part"],
            "ladder-t1": ladder["t1_part"],
            "ladder-sum": ladder["combined"],
            "boost": verify_j03_action(mode, state, theta, phi, omega=0.8),
            "angular": verify_angular_operator(mode, state, theta, phi),
            "trace": verify_trace_constraint(mode, state, theta, phi).consistency,
        }
        div = verify_divergence_constraint(mode, state, dstate, 0.7, theta, phi)
        row["divergence-collapse"] = div.collapse_residual
        row["divergence"] = div.residual
        rows.append(row)

    # np.max keeps a NaN residual, which then fails its check
    per_equation = {name: float(np.max([row[name] for row in rows])) for name in rows[0]}
    for name, res in per_equation.items():
        tol = 1e-8 if name.startswith("divergence") else 1e-9
        manifest.check(name, res, tol)
    path = os.path.join(outdir, f"ansatz_j{mode.two_j}_2_residuals.json")
    digest = atomic_write(path, json.dumps(per_equation, indent=2, sort_keys=True) + "\n")
    manifest.add_output(path, "residual-table", digest)


def run_verify(args, outdir: str) -> int:
    """Run one battery and write its manifest, also after a numerical failure.

    A usage error (a ValueError) propagates and writes no manifest.
    """
    manifest = Manifest(f"verify {args.suite}", vars(args))
    try:
        if args.suite == "algebra":
            run_verify_algebra(manifest)
        elif args.suite == "geometry":
            run_verify_geometry(manifest, args.points, args.seed)
        else:
            j, m = _label_from_args(args)
            if args.suite == "wigner":
                run_verify_wigner(manifest, j, m, args.grid, outdir)
            else:
                mode = ModeLabel(j=float(j), m_j=float(m), eps=1.3, mass=0.7)
                run_verify_ansatz(manifest, mode, args.seed, outdir)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        manifest.warn(f"numerical failure: {exc}")
        manifest.data["status"] = "numerical-failure"
    manifest.write(os.path.join(outdir, f"verify_{args.suite}.manifest.json"))
    for chk in manifest.data["checks"]:
        flag = "pass" if chk["pass"] else "FAIL"
        print(f"{flag}  {chk['name']}: {chk['residual']:.3e} < {chk['tolerance']:.0e}")
    return 0 if manifest.data["status"] == "ok" else NUMERICAL_ERROR


# ---------------------------------------------------------------------------
# data-producing commands
# ---------------------------------------------------------------------------

def _label_from_args(args) -> tuple[Fraction, Fraction]:
    """(j, m_j) from --j and --m; m_j defaults to min(j, 1/2)."""
    j = parse_half_integer(args.j, "--j")
    m_j = parse_half_integer(args.m, "--m") if getattr(args, "m", None) else min(
        j, Fraction(1, 2)
    )
    return j, m_j


def _mode_from_args(args) -> ModeLabel:
    if getattr(args, "j", None) is None:
        raise ValueError("--j is required (flag or config file)")
    j, m_j = _label_from_args(args)
    if getattr(args, "delta", None) is None:
        raise ValueError("--delta is required (flag or config file)")
    if args.delta not in ("+1", "-1", "1"):
        raise ValueError("--delta must be +1 or -1")
    return ModeLabel(
        j=float(j),
        m_j=float(m_j),
        eps=parse_complex(getattr(args, "eps", "0") or "0"),
        mass=float(getattr(args, "mass", 0.0) or 0.0),
        delta=1 if args.delta in ("+1", "1") else -1,
    )


def _complex_matrix_json(mat: np.ndarray) -> list[list[list[str]]]:
    return [[[_fmt(z.real), _fmt(z.imag)] for z in row] for row in np.asarray(mat)]


def run_reduce(args, outdir: str) -> int:
    mode = _mode_from_args(args)
    if args.omega is None:
        raise ValueError("--omega is required (flag or config file)")
    omega = float(args.omega)
    a8 = radial.build_A8(mode, omega)
    cons = radial.constraint_matrix(mode, omega)
    payload = {
        "j": args.j,
        "delta": mode.delta,
        "eps": [_fmt(mode.eps.real), _fmt(complex(mode.eps).imag)],
        "mass": _fmt(mode.mass),
        "omega": _fmt(omega),
        "coefficient_matrix": _complex_matrix_json(a8),
        "constraint_rows": _complex_matrix_json(cons),
    }
    manifest = Manifest("reduce", vars(args))
    path = os.path.join(outdir, "reduce.json")
    digest = atomic_write(path, json.dumps(payload, indent=2) + "\n")
    manifest.add_output(path, "reduced-system", digest)
    manifest.write(os.path.join(outdir, "reduce.manifest.json"))
    print(json.dumps(payload))
    return 0


def run_indices(args, outdir: str) -> int:
    mode = _mode_from_args(args)
    system = radial.RadialSystem(mode=mode, dimension=8)
    manifest = Manifest("indices", vars(args))
    payload = {}
    u = 1e-5
    for endpoint in ("origin", "horizon"):
        data = solver.frobenius(system, endpoint)
        d = data.direction
        # d u A(w0 + d u) = R + d u A0 + O(u^2): the closed forms leave an O(u^2) remainder
        omega = u if endpoint == "origin" else np.pi / 2 - u
        remainder = d * u * system.matrix(omega) - data.residue - d * u * data.subleading
        manifest.check(
            f"{endpoint}-laurent-remainder",
            float(np.abs(remainder).max()),
            1e-8 * (1.0 + abs(mode.eps) + abs(mode.mass)),
        )
        manifest.check(f"{endpoint}-eigen-residual", float(data.eigen_residuals.max()), 1e-10)
        payload[endpoint] = {
            "exponents": [[_fmt(l.real), _fmt(l.imag)] for l in data.exponents],
            "residue": _complex_matrix_json(data.residue),
            "regular_indices": data.regular_indices(),
        }
    path = os.path.join(outdir, "indices.json")
    digest = atomic_write(path, json.dumps(payload, indent=2) + "\n")
    manifest.add_output(path, "indicial-data", digest)
    manifest.write(os.path.join(outdir, "indices.manifest.json"))
    return 0 if manifest.all_passed else NUMERICAL_ERROR


def _trace_csv(trace: solver.SolutionTrace) -> str:
    names = [f"{g}{l}" for g in ("f", "g") for l in range(4)]
    header = ["omega"]
    for n in names:
        header += [f"re_{n}", f"im_{n}"]
    header += [f"residual_{k}" for k in range(1, 5)]
    # one real row per sample: omega, (re, im) of each amplitude, residuals
    table = np.concatenate(
        (trace.omegas[:, None], trace.states.view(float), trace.residuals), axis=1
    )
    row = ",".join([_FLOAT] * table.shape[1])
    return "\n".join([",".join(header)] + [row % tuple(r) for r in table.tolist()]) + "\n"


def _run_stats(trace: solver.SolutionTrace) -> dict:
    """Step and evaluation counts of one integration (deterministic, no timings)."""
    h_min, h_max = trace.step_range
    return {
        "accepted_steps": trace.n_steps,
        "rejected_steps": trace.rejected_steps,
        "rhs_evals": trace.rhs_evals,
        "min_step": h_min,
        "max_step": h_max,
    }


def _integrate_inputs(args) -> tuple[ModeLabel, float, float, float, int | None]:
    """Validated (mode, from, to, tol, launch index) of one integration; ValueError if bad."""
    mode = _mode_from_args(args)
    if args.frm is None or args.to is None:
        raise ValueError("--from and --to are required (flag or config file)")
    w_from, w_to, tol = float(args.frm), float(args.to), float(args.tol)
    if not (0.0 < w_from < np.pi / 2 and 0.0 < w_to < np.pi / 2):
        raise ValueError("--from/--to must lie inside (0, pi/2)")
    if not 1e-14 <= tol <= 1e-4:
        raise ValueError("--tol must lie in [1e-14, 1e-4]")
    launch = None
    if args.launch is not None:
        try:
            launch = int(args.launch)
        except ValueError:
            pass
        # the reduced system has eight exponents per endpoint
        if launch is None or not 0 <= launch < 8:
            raise ValueError(f"--launch must be an exponent index 0..7, got {args.launch!r}")
    return mode, w_from, w_to, tol, launch


class _Job(NamedTuple):
    """One integration, launched and with its manifest started, ready to run."""

    tag: str
    system: radial.RadialSystem
    constraints: radial.ConstraintSet
    w_from: float
    w_to: float
    tol: float
    y0: np.ndarray
    manifest: Manifest


def _prepare_job(args, tag: str) -> _Job:
    """Validate one integration and build its launch state and manifest."""
    mode, w_from, w_to, tol, launch_index = _integrate_inputs(args)
    system = radial.RadialSystem(mode=mode, dimension=8)
    cons = radial.ConstraintSet(mode=mode)
    manifest = Manifest(tag, vars(args))

    zero = tuple(k for k in forced_zero_slots(mode) if k < 8)
    if launch_index is not None:
        endpoint = "origin" if w_from <= np.pi / 4 else "horizon"
        ind = solver.frobenius(system, endpoint)
        offset = w_from if endpoint == "origin" else np.pi / 2 - w_from
        launch = solver.endpoint_launch(system, ind, launch_index, offset=offset)
        y0 = launch.state
        if launch.resonant:
            manifest.warn("resonant exponent: first-order correction is least-squares")
    else:
        rng = np.random.default_rng(args.seed)
        seed_state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y0 = solver.constraint_kernel_state(cons, w_from, seed_state, zero_slots=zero)

    launch_resid = float(np.abs(cons.matrix(w_from) @ y0).max())
    if launch_resid > 1e-8 * max(1.0, float(np.abs(y0).max())):
        manifest.warn(
            f"initial state violates the constraints (residual {launch_resid:.3e}); "
            "residual columns will be nonzero"
        )
    return _Job(tag, system, cons, w_from, w_to, tol, y0, manifest)


def _write_job(job: _Job, outcome, outdir: str) -> tuple[int, list[tuple[str, str, str]]]:
    """Write a job's CSV and manifest, or only its manifest if ``outcome`` is an error.

    Returns the exit status and the (path, kind, sha256) of each file written.
    """
    manifest, status, written = job.manifest, 0, []
    if isinstance(outcome, Exception):
        if isinstance(outcome, solver.SingularityError) and outcome.trace is not None:
            manifest.data["stats"] = _run_stats(outcome.trace)
        manifest.warn(f"integration failed: {outcome}")
        manifest.data["status"] = "numerical-failure"
        status = NUMERICAL_ERROR
    else:
        manifest.data["stats"] = _run_stats(outcome)
        path = os.path.join(outdir, f"{job.tag}.csv")
        written.append((path, "solution-trace", atomic_write(path, _trace_csv(outcome))))
        manifest.add_output(*written[0])
    path = os.path.join(outdir, f"{job.tag}.manifest.json")
    written.append((path, "job-manifest", manifest.write(path)))
    return status, written


def run_integrate(args, outdir: str, tag: str = "integrate") -> int:
    job = _prepare_job(args, tag)
    try:
        outcome = solver.integrate(
            job.system, job.constraints, job.w_from, job.w_to, job.y0, tol=job.tol
        )
    except (solver.SingularityError, solver.ToleranceError) as exc:
        outcome = exc
    return _write_job(job, outcome, outdir)[0]


def _sweep_jobs(args) -> list[_Job]:
    """Every job of the sweep, validated and launched; ValueError if any is bad."""
    if args.j is None or args.frm is None or args.to is None:
        raise ValueError("--j, --from and --to are required (flag or config file)")
    # (j, eps, mass, delta) with delta varying fastest
    lists = [[v for v in text.split(",") if v] for text in (args.j, args.eps_list, args.mass_list)]
    deltas = ("+1", "-1") if args.delta == "both" else (args.delta,)
    grid = list(itertools.product(*lists, deltas))
    if not grid:
        raise ValueError("the sweep has no jobs")
    if int(args.workers) < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    jobs = []
    for idx, (j, eps, mass, delta) in enumerate(grid):
        ns = argparse.Namespace(
            j=j, m=getattr(args, "m", None), delta=delta, eps=eps, mass=mass,
            frm=args.frm, to=args.to, tol=args.tol, launch=None, seed=args.seed + idx,
        )
        tag = f"sweep_{idx:03d}"
        try:
            jobs.append(_prepare_job(ns, tag))
        except ValueError as exc:
            raise ValueError(f"{tag}: {exc}") from exc
    return jobs


def run_sweep(args, outdir: str) -> int:
    """Integrate every job in one batched loop, then write each job's files and the index."""
    jobs = _sweep_jobs(args)
    outcomes = solver.integrate_many(
        [job.system for job in jobs],
        [job.constraints for job in jobs],
        [job.w_from for job in jobs],
        [job.w_to for job in jobs],
        [job.y0 for job in jobs],
        tol=[job.tol for job in jobs],
    )
    status = 0
    manifest = Manifest("sweep", vars(args))
    for job, outcome in zip(jobs, outcomes):
        job_status, written = _write_job(job, outcome, outdir)
        status = job_status or status
        for output in written:
            manifest.add_output(*output)
    manifest.write(os.path.join(outdir, "sweep.manifest.json"))
    return status


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing keeps no state in the parser: every ``parse_args`` call returns
    a fresh namespace filled from the declared defaults.
    """
    parser = argparse.ArgumentParser(
        prog="rsdesitter",
        description="spin-3/2 radial systems in static de Sitter coordinates",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override")
    common.add_argument(
        "--out", help="output directory (default: RSDESITTER_OUTDIR or '.')"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", parents=[common], help="run an identity/oracle battery")
    ver.add_argument("suite", choices=["algebra", "geometry", "wigner", "ansatz"])
    ver.add_argument("--j", default="1/2", help="half-integer, e.g. 3/2")
    ver.add_argument("--m", default=None, help="half-integer projection")
    ver.add_argument("--points", type=int, default=20)
    ver.add_argument("--grid", type=int, default=100)
    ver.add_argument("--seed", type=_seed, default=0)

    def mode_flags(p):
        p.add_argument("--j", help="half-integer, e.g. 1/2 (required)")
        p.add_argument("--m", default=None, help="half-integer projection")
        p.add_argument("--delta", default=None, help="+1 or -1")
        p.add_argument("--eps", default="0", help="energy (complex allowed)")
        p.add_argument("--mass", type=float, default=0.0)

    def range_flags(p):
        p.add_argument("--from", dest="frm", type=float)
        p.add_argument("--to", type=float)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--seed", type=_seed, default=0)

    red = sub.add_parser("reduce", parents=[common], help="reduced system at one omega")
    mode_flags(red)
    red.add_argument("--omega", type=float, help="radial angle (required)")

    ind = sub.add_parser("indices", parents=[common], help="endpoint indicial data")
    mode_flags(ind)

    integ = sub.add_parser("integrate", parents=[common], help="integrate the reduced system")
    mode_flags(integ)
    range_flags(integ)
    integ.add_argument("--launch", default=None, help="endpoint exponent index")

    swp = sub.add_parser(
        "sweep", parents=[common], help="parameter sweep, integrated in one batched loop"
    )
    swp.add_argument("--j", help="half-integer or comma list, e.g. 1/2,3/2")
    swp.add_argument("--m", default=None)
    swp.add_argument("--delta", default="both", help="+1, -1 or both")
    swp.add_argument("--eps-list", default="1.0")
    swp.add_argument("--mass-list", default="0.0")
    range_flags(swp)
    swp.add_argument(
        "--workers", type=int, default=2,
        help="accepted for compatibility and must be at least 1; has no effect "
        "(the sweep starts no worker processes)",
    )
    # argparse takes only -1 and -0.5 for numbers; read any '-' before a digit
    # or '.' as a value (-1/2, -1.3+0.4j, -1,2).  No option here looks like one.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"^-[\d.]")
    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse the subcommand's arguments again, over the config file's values.

    A config key is an option of the subcommand without its leading dashes
    ('_' may stand for '-'); its value is converted as the flag's would be.
    The values go into the namespace before parsing, and argparse fills in
    only what is missing, so every value on the command line wins.  Any
    other key, ``config`` included, is a ValueError naming the file and line.
    """
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command")
    sub = subcommands.choices[args.command]
    options = {
        name[2:]: action
        for action in sub._actions
        for name in action.option_strings
        if name.startswith("--") and action.dest not in ("config", "help")
    }
    config = argparse.Namespace(command=args.command)
    for lineno, key, text in read_config(args.config):
        action = options.get(key.replace("_", "-"))
        if action is None:
            raise ValueError(f"{args.config}:{lineno}: {key!r} is not an option of {args.command}")
        try:
            setattr(config, action.dest, action.type(text) if action.type else text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{args.config}:{lineno}: {key}: {exc}") from exc
    return sub.parse_args(argv[argv.index(args.command) + 1:], config)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        if args.config:
            args = _apply_config(args, argv)
        outdir = args.out or os.environ.get("RSDESITTER_OUTDIR") or "."
        os.makedirs(outdir, exist_ok=True)

        if args.command == "verify":
            return run_verify(args, outdir)
        if args.command == "reduce":
            return run_reduce(args, outdir)
        if args.command == "indices":
            return run_indices(args, outdir)
        if args.command == "integrate":
            return run_integrate(args, outdir)
        if args.command == "sweep":
            return run_sweep(args, outdir)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
