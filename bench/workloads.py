"""The three benchmark workloads: seeded inputs, one op, and its output checks.

Every op goes through ``rsdesitter.cli.main`` (plus, for ``certify``, the
two public routes to the 16x16 radial matrix).  Inputs come from the seed
alone, so two runs with one seed see the same inputs, and a run never
repeats a mode.  Energies and masses walk low-discrepancy sequences from
seeded offsets, so that every run covers the same spread of step counts
and a median over one run is steady from seed to seed.  The remaining draws
come from ``numpy.random.default_rng([seed, k])``, k being the op (for
long-trace, the block of six ops).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from fractions import Fraction

import numpy as np

EPS_RANGE = (0.5, 2.5)
MASS_RANGE = (0.0, 1.5)


# additive-recurrence steps: any run of consecutive k covers [0, 1) evenly
_GOLDEN = (5**0.5 - 1) / 2
_SILVER = 2**0.5 - 1


def _spread(offset: float, k: int, step: float) -> float:
    """k-th point of the low-discrepancy sequence frac(offset + k * step)."""
    return (offset + k * step) % 1.0


def _scale(bounds: tuple[float, float], u) -> np.ndarray:
    lo, hi = bounds
    return lo + (hi - lo) * np.asarray(u)


def _delta_flag(delta: int) -> str:
    return "+1" if delta > 0 else "-1"


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest_failures(path: str) -> list[str]:
    """Failed checks, warnings and a non-ok status of one CLI manifest."""
    if not os.path.exists(path):
        return [f"missing manifest {os.path.basename(path)}"]
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    out = [f"{os.path.basename(path)}: check {c['name']} failed"
           for c in data.get("checks", []) if not c.get("pass")]
    out += [f"{os.path.basename(path)}: warning {w}" for w in data.get("warnings", [])]
    if data.get("status") != "ok":
        out.append(f"{os.path.basename(path)}: status {data.get('status')}")
    return out


class LongTrace:
    """One ``rsdesitter integrate`` per op over omega 0.1 -> 1.45 at tol 1e-12.

    Ops come in blocks of six, j in (1/2, 3/2, 5/2) x delta in (+1, -1), so
    any three consecutive ops hold one mode of each j.  Each of the six slots
    walks its own energy and mass sequence from block to block; each block
    draws the seeds of the CLI's constraint-kernel launches.
    """

    name = "long-trace"
    J_VALUES = ("1/2", "3/2", "5/2")
    W_FROM, W_TO, TOL, REF_TOL = 0.1, 1.45, 1e-12, 1e-13
    CHECK_TOL = 1e-7

    def __init__(self, rs, seed: int, outdir: str, small: bool):
        self.rs, self.seed, self.outdir = rs, seed, outdir
        self.trace_ops = 2 if small else 6

    def mode(self, k: int) -> dict:
        block, slot = divmod(k, 6)
        offsets = np.random.default_rng([self.seed]).uniform(size=(2, 6))
        launch = np.random.default_rng([self.seed, block]).integers(0, 2**31 - 1, size=6)
        return {
            "j": self.J_VALUES[slot % 3],
            "delta": 1 if slot < 3 else -1,
            "eps": float(_scale(EPS_RANGE, _spread(offsets[0, slot], block, _GOLDEN))),
            "mass": float(_scale(MASS_RANGE, _spread(offsets[1, slot], block, _SILVER))),
            "seed": int(launch[slot]),
        }

    def run_op(self, k: int) -> dict:
        m = self.mode(k)
        opdir = os.path.join(self.outdir, f"op{k:04d}")
        argv = [
            "integrate", "--j", m["j"], "--delta", _delta_flag(m["delta"]),
            "--eps", repr(m["eps"]), "--mass", repr(m["mass"]),
            "--from", repr(self.W_FROM), "--to", repr(self.W_TO),
            "--tol", repr(self.TOL), "--seed", str(m["seed"]), "--out", opdir,
        ]
        return {"k": k, "dir": opdir, "codes": [self.rs.cli.main(argv)]}

    def reference_final_state(self, k: int) -> np.ndarray:
        """Final state of the same launch integrated by the library at REF_TOL."""
        rs, m = self.rs, self.mode(k)
        mode = rs.ansatz.ModeLabel(
            j=float(Fraction(m["j"])), m_j=0.5, eps=complex(m["eps"]),
            mass=m["mass"], delta=m["delta"],
        )
        rng = np.random.default_rng(m["seed"])
        seed_state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        zero = tuple(int(s) for s in rs.ansatz.forced_zero_slots(mode) if s < 8)
        y0 = rs.solver.constraint_kernel_state(
            rs.radial.ConstraintSet(mode=mode), self.W_FROM, seed_state, zero_slots=zero
        )
        system = rs.radial.RadialSystem(mode=mode, dimension=8)
        ref = rs.solver.integrate(system, None, self.W_FROM, self.W_TO, y0, tol=self.REF_TOL)
        return ref.states[-1]

    def check(self, rec: dict) -> list[str]:
        if rec["codes"] != [0]:
            return [f"exit {rec['codes'][0]}"]
        fails = _manifest_failures(os.path.join(rec["dir"], "integrate.manifest.json"))
        csv = os.path.join(rec["dir"], "integrate.csv")
        if not os.path.exists(csv):
            return fails + ["missing integrate.csv"]
        data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        worst = float(data[:, 17:21].max())
        if not worst <= self.CHECK_TOL:
            fails.append(f"constraint residual {worst:.3e} > {self.CHECK_TOL:.0e}")
        final = data[-1, 1:17:2] + 1j * data[-1, 2:17:2]
        ref = self.reference_final_state(rec["k"])
        dev = float(np.abs(final - ref).max() / np.abs(ref).max())
        if not dev <= self.CHECK_TOL:
            fails.append(f"final state off the tol-{self.REF_TOL:.0e} reference by {dev:.3e}")
        return fails


class SweepGrid:
    """One ``rsdesitter sweep --workers 2`` per op over a fresh seeded grid.

    The grid is j in (1/2, 3/2) x three energies x two masses x both deltas
    (24 modes) over omega 0.3 -> 1.2 at tol 1e-8.
    """

    name = "sweep-grid"
    J_LIST = ("1/2", "3/2")
    W_FROM, W_TO, TOL, WORKERS = 0.3, 1.2, 1e-8, 2

    def __init__(self, rs, seed: int, outdir: str, small: bool):
        self.rs, self.seed, self.outdir = rs, seed, outdir
        self.n_eps, self.n_mass = (1, 1) if small else (3, 2)

    @property
    def n_jobs(self) -> int:
        return len(self.J_LIST) * self.n_eps * self.n_mass * 2

    def grid(self, k: int) -> dict:
        """Energies and masses one per equal-width stratum, at a walking offset."""
        u_eps, u_mass = np.random.default_rng([self.seed]).uniform(size=2)
        eps = (np.arange(self.n_eps) + _spread(u_eps, k, _GOLDEN)) / self.n_eps
        mass = (np.arange(self.n_mass) + _spread(u_mass, k, _SILVER)) / self.n_mass
        return {
            "eps": [repr(float(x)) for x in _scale(EPS_RANGE, eps)],
            "mass": [repr(float(x)) for x in _scale(MASS_RANGE, mass)],
            "seed": int(np.random.default_rng([self.seed, k]).integers(0, 2**31 - 1000)),
        }

    def run_op(self, k: int, opdir: str | None = None) -> dict:
        g = self.grid(k)
        opdir = opdir or os.path.join(self.outdir, f"op{k:04d}")
        argv = [
            "sweep", "--j", ",".join(self.J_LIST), "--delta", "both",
            "--eps-list", ",".join(g["eps"]), "--mass-list", ",".join(g["mass"]),
            "--from", repr(self.W_FROM), "--to", repr(self.W_TO), "--tol", repr(self.TOL),
            "--seed", str(g["seed"]), "--workers", str(self.WORKERS), "--out", opdir,
        ]
        return {"k": k, "dir": opdir, "codes": [self.rs.cli.main(argv)]}

    def jobs(self, k: int) -> list[tuple[argparse.Namespace, str]]:
        """The sweep's jobs in its own order, as ``cli.run_integrate`` takes them."""
        g = self.grid(k)
        out = []
        for j in self.J_LIST:
            for eps in g["eps"]:
                for mass in g["mass"]:
                    for delta in ("+1", "-1"):
                        idx = len(out)
                        ns = argparse.Namespace(
                            j=j, m=None, delta=delta, eps=eps, mass=mass,
                            frm=self.W_FROM, to=self.W_TO, tol=self.TOL,
                            launch=None, seed=g["seed"] + idx,
                        )
                        out.append((ns, f"sweep_{idx:03d}"))
        return out

    def check(self, rec: dict) -> list[str]:
        if rec["codes"] != [0]:
            return [f"exit {rec['codes'][0]}"]
        path = os.path.join(rec["dir"], "sweep.manifest.json")
        if not os.path.exists(path):
            return ["missing sweep.manifest.json"]
        with open(path, encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
        fails = []
        for kind in ("solution-trace", "job-manifest"):
            n = sum(1 for o in outputs if o["kind"] == kind)
            if n != self.n_jobs:
                fails.append(f"sweep manifest lists {n} {kind} files, expected {self.n_jobs}")
        for o in outputs:
            f = os.path.join(rec["dir"], o["path"])
            if not os.path.exists(f) or _sha256(f) != o["sha256"]:
                fails.append(f"{o['path']}: sha256 does not match the file")
            elif o["kind"] == "job-manifest":
                with open(f, encoding="utf-8") as fh:
                    status = json.load(fh).get("status")
                if status != "ok":
                    fails.append(f"{o['path']}: status {status}")
        return fails


class Certify:
    """One certification pass per op, with no integration.

    The verify batteries (algebra, geometry, wigner j=7/2, ansatz j=5/2),
    ``indices`` of a seeded j=1/2 mode, and the angular re-derivation of the
    radial matrix against the hand-coded one at j in (3/2, 5/2) x omega in
    (0.4, 0.9, 1.3).
    """

    name = "certify"
    OMEGAS = (0.4, 0.9, 1.3)
    ROUTE_TOL = 1e-10
    MANIFESTS = (
        "verify_algebra.manifest.json", "verify_geometry.manifest.json",
        "verify_wigner.manifest.json", "verify_ansatz.manifest.json",
        "indices.manifest.json",
    )

    def __init__(self, rs, seed: int, outdir: str, small: bool):
        self.rs, self.seed, self.outdir = rs, seed, outdir
        self.trace_ops = 1 if small else 3

    def inputs(self, k: int) -> dict:
        rng = np.random.default_rng([self.seed, k])
        eps = _scale(EPS_RANGE, rng.uniform(size=3))
        mass = _scale(MASS_RANGE, rng.uniform(size=3))
        return {
            "geometry_seed": int(rng.integers(0, 2**31 - 1)),
            "ansatz_seed": int(rng.integers(0, 2**31 - 1)),
            "delta": int(rng.choice([1, -1])),
            "indices": (float(eps[0]), float(mass[0])),
            "routes": ((1.5, float(eps[1]), float(mass[1])), (2.5, float(eps[2]), float(mass[2]))),
        }

    def run_op(self, k: int) -> dict:
        rs, x = self.rs, self.inputs(k)
        opdir = os.path.join(self.outdir, f"op{k:04d}")
        out = ["--out", opdir]
        eps, mass = x["indices"]
        codes = [
            rs.cli.main(["verify", "algebra"] + out),
            rs.cli.main(["verify", "geometry", "--seed", str(x["geometry_seed"])] + out),
            rs.cli.main(["verify", "wigner", "--j", "7/2"] + out),
            rs.cli.main(["verify", "ansatz", "--j", "5/2", "--seed", str(x["ansatz_seed"])] + out),
            rs.cli.main(["indices", "--j", "1/2", "--delta", _delta_flag(x["delta"]),
                         "--eps", repr(eps), "--mass", repr(mass)] + out),
        ]
        route_diffs = []
        for j, e, m in x["routes"]:
            mode = rs.ansatz.ModeLabel(j=j, m_j=0.5, eps=e, mass=m)
            for w in self.OMEGAS:
                a = rs.radial.assemble_from_angular(mode, w)
                b = rs.radial.build_A16(mode, w)
                route_diffs.append(float(np.abs(a - b).max()))
        return {"k": k, "dir": opdir, "codes": codes, "route_diffs": route_diffs}

    def check(self, rec: dict) -> list[str]:
        fails = [f"command {n} exited {c}" for n, c in enumerate(rec["codes"]) if c != 0]
        for name in self.MANIFESTS:
            fails += _manifest_failures(os.path.join(rec["dir"], name))
        worst = max(rec["route_diffs"])
        if not worst <= self.ROUTE_TOL:
            fails.append(f"angular route vs build_A16: {worst:.3e} > {self.ROUTE_TOL:.0e}")
        return fails


WORKLOADS = {w.name: w for w in (LongTrace, SweepGrid, Certify)}
