import argparse
import hashlib
import json
import multiprocessing.process
import os
import subprocess
import sys

import numpy as np
import pytest

from rsdesitter import algebra, ansatz, cli, geometry, radial, solver, wigner
from rsdesitter.ansatz import ModeLabel


def run(args, **env):
    old = {k: os.environ.get(k) for k in env}
    os.environ.update({k: str(v) for k, v in env.items()})
    try:
        return cli.main(args)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def test_parse_half_integer():
    assert cli.parse_half_integer("3/2") == 1.5
    assert cli.parse_half_integer("-1/2") == -0.5
    assert cli.parse_half_integer("2") == 2
    with pytest.raises(ValueError):
        cli.parse_half_integer("1/3")
    with pytest.raises(ValueError):
        cli.parse_half_integer("x")


def test_verify_algebra_passes(tmp_path, capsys):
    code = run(["verify", "algebra", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "verify_algebra.manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert all(c["pass"] for c in manifest["checks"])
    assert all(c["residual"] < 1e-13 for c in manifest["checks"][:13])
    out = capsys.readouterr().out
    assert "clifford" in out


def test_verify_wigner_writes_csv(tmp_path):
    code = run(["verify", "wigner", "--j", "5/2", "--m", "1/2", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "verify_wigner.manifest.json").read_text())
    assert len(manifest["outputs"]) == 1
    csv_path = tmp_path / manifest["outputs"][0]["path"]
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("relation,")
    assert len(lines) == 9  # header + eight relations


def test_reduce_massless_delta_independent(tmp_path):
    for delta, name in (("+1", "plus"), ("-1", "minus")):
        out = tmp_path / name
        out.mkdir()
        code = run(
            ["reduce", "--j", "1/2", "--delta", delta, "--eps", "0", "--mass", "0",
             "--omega", "0.7854", "--out", str(out)]
        )
        assert code == 0
    plus = json.loads((tmp_path / "plus" / "reduce.json").read_text())
    minus = json.loads((tmp_path / "minus" / "reduce.json").read_text())
    assert plus["coefficient_matrix"] == minus["coefficient_matrix"]


def test_indices_command(tmp_path):
    code = run(
        ["indices", "--j", "1/2", "--delta", "+1", "--eps", "1.3", "--mass", "0.7",
         "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "indices.json").read_text())
    assert set(payload) == {"origin", "horizon"}
    assert len(payload["origin"]["exponents"]) == 8
    checks = json.loads((tmp_path / "indices.manifest.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "origin-laurent-remainder", "origin-eigen-residual",
        "horizon-laurent-remainder", "horizon-eigen-residual",
    ]
    assert all(c["pass"] for c in checks)
    # the remainder is O(u^2) at u = 1e-5, far above rounding and below the bound
    assert all(0.0 < c["residual"] < 1e-9 for c in checks[::2])


def test_integrate_deterministic_and_hashed(tmp_path):
    args = ["integrate", "--j", "1/2", "--delta", "+1", "--eps", "1.3", "--mass",
            "0.7", "--from", "0.3", "--to", "1.2", "--tol", "1e-10", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    data1 = (out1 / "integrate.csv").read_bytes()
    data2 = (out2 / "integrate.csv").read_bytes()
    assert data1 == data2
    manifest = json.loads((out1 / "integrate.manifest.json").read_text())
    listed = manifest["outputs"][0]
    assert listed["sha256"] == hashlib.sha256(data1).hexdigest()
    assert manifest["warnings"] == []


def test_integrate_incompatible_launch_warns(tmp_path):
    # an endpoint exponent whose eigenvector violates the constraints:
    # the trace is still produced, exit stays 0, the manifest records it
    code = run(
        ["integrate", "--j", "1/2", "--delta", "+1", "--eps", "1.3", "--mass", "0.7",
         "--from", "0.05", "--to", "0.9", "--tol", "1e-10", "--launch", "0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "integrate.manifest.json").read_text())
    assert any("constraint" in w for w in manifest["warnings"])
    rows = (tmp_path / "integrate.csv").read_text().strip().splitlines()[1:]
    last = [float(x) for x in rows[-1].split(",")]
    assert max(last[-4:]) > 1e-6


def test_integrate_failure_writes_only_the_manifest(tmp_path):
    code = run(
        ["integrate", "--j", "1/2", "--delta", "+1", "--eps", "1.3", "--mass", "0.7",
         "--from", "1.3", "--to", "1.5707963267948", "--tol", "1e-8",
         "--out", str(tmp_path)]
    )
    assert code == cli.NUMERICAL_ERROR
    assert sorted(p.name for p in tmp_path.iterdir()) == ["integrate.manifest.json"]
    manifest = json.loads((tmp_path / "integrate.manifest.json").read_text())
    assert manifest["status"] == "numerical-failure"
    assert manifest["outputs"] == []
    assert len(manifest["warnings"]) == 1
    assert manifest["warnings"][0].startswith("integration failed: step size underflow")
    stats = manifest["stats"]  # counts of the partial trace
    assert stats["accepted_steps"] > 0
    assert stats["rhs_evals"] == 1 + 6 * (stats["accepted_steps"] + stats["rejected_steps"])


@pytest.mark.parametrize("suite", ["wigner", "ansatz"])
def test_verify_numerical_failure_still_writes_the_manifest(tmp_path, capsys, monkeypatch, suite):
    # the overflow that d_weights raises from j = 601/2 on
    message = "integer division result too large for a float"

    def overflow(*labels):
        raise OverflowError(message)

    monkeypatch.setattr(wigner, "d_weights", overflow)
    code = run(["verify", suite, "--j", "601/2", "--out", str(tmp_path)])
    assert code == cli.NUMERICAL_ERROR
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [f"verify_{suite}.manifest.json"]
    manifest = json.loads((tmp_path / f"verify_{suite}.manifest.json").read_text())
    assert manifest["status"] == "numerical-failure"
    assert manifest["outputs"] == []
    assert manifest["warnings"] == [f"numerical failure: {message}"]


def test_manifest_lists_every_output_once(tmp_path):
    sweeps = [
        (["--j", "1/2", "--to", "1.0", "--eps-list", "1.0", "--mass-list", "0.0,0.5"], 0, 4, 4),
        # of these two jobs one underflows next to the horizon: it writes only its manifest
        (["--j", "3/2", "--to", "1.57079632679", "--tol", "1e-8", "--eps-list", "1.3",
          "--mass-list", "0.5"], cli.NUMERICAL_ERROR, 2, 1),
    ]
    for k, (argv, expected, jobs, csvs) in enumerate(sweeps):
        out = tmp_path / str(k)
        code = run(["sweep", *argv, "--from", "0.3", "--workers", "1", "--out", str(out)])
        assert code == expected
        manifest = json.loads((out / "sweep.manifest.json").read_text())
        listed = [o["path"] for o in manifest["outputs"]]
        assert len(listed) == len(set(listed))
        produced = sorted(p for p in os.listdir(out) if p.startswith("sweep_"))
        assert sorted(listed) == produced
        assert sum(p.endswith(".manifest.json") for p in produced) == jobs
        assert sum(p.endswith(".csv") for p in produced) == csvs
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("eps = 1.3\nmass = 0.7\nfrom = 0.3\nto = 1.2\ntol = 1e-10\n")
    code = run(
        ["integrate", "--j", "1/2", "--delta", "+1", "--config", str(conf),
         "--from", "0.4", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = (tmp_path / "integrate.csv").read_text().splitlines()
    first_omega = float(rows[1].split(",")[0])
    assert abs(first_omega - 0.4) < 1e-12  # flag wins over the config value


def test_manifest_bytes_are_sorted_indented_json(tmp_path):
    manifest = cli.Manifest("probe", {"eps": 1.3 + 0.2j, "seed": 7, "note": "a\nb"})
    plain = cli.Manifest("probe", {})
    plain.write(str(tmp_path / "empty.json"))
    manifest.check("passes", 1e-14, 1e-12)
    manifest.check("fails", 1.0, 1e-12)
    manifest.warn("launch residual 8.7e-02\nsecond line \u00e9")
    manifest.add_output("/some/dir/trace.csv", "trace-csv", "ab" * 32)
    manifest.data["stats"] = {"accepted_steps": 3, "step_range": [0.01, 0.2]}
    digest = manifest.write(str(tmp_path / "full.json"))
    edited = cli.Manifest("probe", {})
    edited.data["adjudications"] = edited.data["adjudications"][:2]
    edited.write(str(tmp_path / "edited.json"))
    for name, m in (("empty.json", plain), ("full.json", manifest), ("edited.json", edited)):
        expected = json.dumps(m.data, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / name).read_text(encoding="utf-8") == expected
    assert manifest.data["status"] == "check-failed"
    assert digest == hashlib.sha256((tmp_path / "full.json").read_bytes()).hexdigest()


def test_successive_main_calls_share_one_parser_and_no_values(tmp_path, monkeypatch):
    seen = []
    for name in ("run_verify", "run_reduce", "run_integrate"):
        monkeypatch.setattr(cli, name, lambda args, outdir: seen.append(vars(args).copy()) or 0)
    # a config key must be an option of the subcommand, so each gets its own file
    verify_conf, integrate_conf = tmp_path / "verify.conf", tmp_path / "integrate.conf"
    verify_conf.write_text("m = 3/2\ngrid = 7\n")
    integrate_conf.write_text("eps = 1.3\nmass = 0.7\ntol = 1e-9\n")
    out = ["--out", str(tmp_path)]
    calls = [
        ["verify", "wigner", "--j", "5/2", "--config", str(verify_conf), *out],
        ["verify", "wigner", "--j", "5/2", *out],
        ["integrate", "--j", "1/2", "--delta", "+1", "--config", str(integrate_conf),
         "--from", "0.3", "--to", "1.0", *out],
        ["reduce", "--j", "3/2", "--delta", "-1", "--omega", "0.5", *out],
        ["integrate", "--j", "1/2", "--delta", "+1", "--from", "0.3", "--to", "1.0", *out],
    ]
    for argv in calls:
        assert cli.main(argv) == 0
    assert cli._build_parser() is cli._build_parser()
    assert (seen[0]["m"], seen[0]["grid"]) == ("3/2", 7)
    assert (seen[1]["m"], seen[1]["grid"]) == (None, 100)
    assert (seen[2]["eps"], seen[2]["mass"], seen[2]["tol"]) == ("1.3", 0.7, 1e-9)
    assert (seen[3]["eps"], seen[3]["mass"], seen[3]["delta"]) == ("0", 0.0, "-1")
    assert "grid" not in seen[3] and "tol" not in seen[3]
    assert (seen[4]["eps"], seen[4]["mass"], seen[4]["tol"]) == ("0", 0.0, 1e-10)
    assert [s["command"] for s in seen] == ["verify", "verify", "integrate", "reduce", "integrate"]


def test_usage_errors(tmp_path):
    assert run(["integrate", "--j", "2/3", "--delta", "+1", "--from", "0.3",
                "--to", "1.0", "--out", str(tmp_path)]) == cli.USAGE_ERROR
    assert run(["reduce", "--j", "1/2", "--eps", "0", "--mass", "0",
                "--omega", "0.5", "--out", str(tmp_path)]) == cli.USAGE_ERROR  # no delta
    assert run(["integrate", "--j", "1/2", "--delta", "+1", "--from", "1.6",
                "--to", "1.7", "--out", str(tmp_path)]) == cli.USAGE_ERROR
    assert run(["integrate", "--j", "1/2", "--delta", "+1", "--from", "0.3",
                "--to", "1.0", "--tol", "1e-2", "--out", str(tmp_path)]) == cli.USAGE_ERROR
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert run(["verify", "algebra", "--out", str(blocker)]) == cli.USAGE_ERROR


def test_outdir_from_environment(tmp_path):
    code = run(["verify", "wigner", "--j", "1/2"], RSDESITTER_OUTDIR=str(tmp_path))
    assert code == 0
    assert (tmp_path / "verify_wigner.manifest.json").exists()


def test_non_finite_energy_or_mass_is_a_usage_error(tmp_path, capsys):
    base = ["integrate", "--j", "1/2", "--delta", "+1", "--from", "0.3", "--to", "1.0",
            "--out", str(tmp_path)]
    for flag, value in (("--eps", "nan"), ("--eps", "1+infj"), ("--mass", "inf")):
        assert run(base + [flag, value]) == cli.USAGE_ERROR
        assert flag.lstrip("-") in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_sweep_with_a_bad_entry_writes_nothing(tmp_path, capsys):
    code = run(
        ["sweep", "--j", "1/2,2", "--from", "0.3", "--to", "1.0", "--workers", "1",
         "--out", str(tmp_path)]
    )
    assert code == cli.USAGE_ERROR
    assert "j must be" in capsys.readouterr().err
    empty = ["sweep", "--j", ",", "--from", "0.3", "--to", "1.0", "--out", str(tmp_path)]
    assert run(empty) == cli.USAGE_ERROR
    assert "no jobs" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["--eps-list", "--mass-list"])
def test_sweep_with_an_empty_value_list_is_a_usage_error(tmp_path, capsys, flag):
    argv = ["sweep", "--j", "1/2", "--from", "0.3", "--to", "1.0", flag, "", "--out", str(tmp_path)]
    assert run(argv) == cli.USAGE_ERROR
    assert "no jobs" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [["verify", "geometry"], ["verify", "ansatz", "--j", "3/2"],
     ["integrate", "--j", "1/2", "--delta", "+1", "--from", "0.3", "--to", "1.0"],
     ["sweep", "--j", "1/2", "--from", "0.3", "--to", "1.0"]],
    ids=["verify-geometry", "verify-ansatz", "integrate", "sweep"],
)
def test_negative_seed_is_a_usage_error_naming_the_option(tmp_path, capsys, argv):
    assert run(argv + ["--seed", "-1", "--out", str(tmp_path)]) == cli.USAGE_ERROR
    assert "--seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    conf = tmp_path / "c.conf"
    conf.write_text("seed = -3\n")
    assert run(argv + ["--config", str(conf), "--out", str(tmp_path / "out")]) == cli.USAGE_ERROR
    assert f"{conf}:1: seed: must be a non-negative integer" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.conf"]


@pytest.mark.parametrize(
    "argv, flag",
    [(["verify", "wigner", "--j", "1e400"], "--j"),
     (["verify", "wigner", "--j", "1/2", "--m", "1e400"], "--m"),
     (["verify", "ansatz", "--j", "1e400"], "--j"),
     (["verify", "ansatz", "--j", "1/2", "--m=-1e400"], "--m"),
     (["reduce", "--j", "1e400", "--delta", "+1", "--omega", "0.5"], "--j"),
     (["indices", "--j", "1/2", "--m", "1e400", "--delta", "+1"], "--m"),
     (["integrate", "--j", "1e400", "--delta", "+1", "--from", "0.3", "--to", "0.5"], "--j"),
     (["sweep", "--j", "1/2,1e400", "--from", "0.3", "--to", "0.5"], "sweep_002: --j")],
)
def test_label_too_large_for_a_float_is_a_usage_error(tmp_path, capsys, argv, flag):
    assert run(argv + ["--out", str(tmp_path)]) == cli.USAGE_ERROR
    assert f"error: {flag} = " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _refuse_child_process(*args, **kwargs):
    raise AssertionError("the sweep started a child process")


def test_sweep_workers_validated_and_starts_no_process(tmp_path, monkeypatch):
    for name in ("fork", "forkpty", "posix_spawn", "posix_spawnp"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, _refuse_child_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_child_process)
    monkeypatch.setattr(subprocess, "Popen", _refuse_child_process)
    base = ["sweep", "--j", "1/2", "--from", "0.5", "--to", "0.7", "--tol", "1e-6",
            "--mass-list", "0.0,0.5"]
    assert run(base + ["--workers", "0", "--out", str(tmp_path / "zero")]) == cli.USAGE_ERROR
    assert not (tmp_path / "zero").exists() or os.listdir(tmp_path / "zero") == []
    outputs = []
    for workers in ("1", "2", "64"):
        out = tmp_path / f"w{workers}"
        assert run(base + ["--workers", workers, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    # --workers has no effect: the same files, apart from the option in the index
    for files in outputs[1:]:
        assert files.keys() == outputs[0].keys()
        assert all(files[k] == outputs[0][k] for k in files if k != "sweep.manifest.json")
    assert len(outputs[0]) == 2 * 4 + 1  # 2 masses x 2 deltas: CSV and manifest each, one index


def test_importing_the_cli_loads_no_process_pool():
    code = (
        "import sys, rsdesitter.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def _sweep_namespaces(j_list, eps_list, mass_list, frm, to, tol, seed):
    """The jobs of a sweep as cli.run_integrate takes them, in the sweep's order."""
    jobs = []
    for j in j_list:
        for eps in eps_list:
            for mass in mass_list:
                for delta in ("+1", "-1"):
                    idx = len(jobs)
                    ns = argparse.Namespace(
                        j=j, m=None, delta=delta, eps=eps, mass=mass, frm=frm, to=to,
                        tol=tol, launch=None, seed=seed + idx,
                    )
                    jobs.append((ns, f"sweep_{idx:03d}"))
    return jobs


@pytest.mark.parametrize(
    "j_list, eps_list, frm, to, tol",
    [
        (("1/2", "3/2", "5/2"), ("1.3", "0.7+0.4j"), 0.3, 1.2, 1e-8),
        (("1/2", "3/2"), ("1.3",), 1.3, 1.5707963267948, 1e-8),  # every job fails
    ],
)
def test_sweep_jobs_match_run_integrate_byte_for_byte(
    tmp_path, j_list, eps_list, frm, to, tol
):
    masses = ("0.0", "0.7")
    argv = ["sweep", "--j", ",".join(j_list), "--eps-list", ",".join(eps_list),
            "--mass-list", ",".join(masses), "--from", repr(frm), "--to", repr(to),
            "--tol", repr(tol), "--seed", "11", "--out", str(tmp_path / "sweep")]
    code = run(argv)
    jobs = _sweep_namespaces(j_list, eps_list, masses, frm, to, tol, 11)
    (tmp_path / "single").mkdir()
    codes = [cli.run_integrate(ns, str(tmp_path / "single"), tag=tag) for ns, tag in jobs]
    assert code == max(codes)
    swept = {p.name: p.read_bytes() for p in (tmp_path / "sweep").iterdir()}
    single = {p.name: p.read_bytes() for p in (tmp_path / "single").iterdir()}
    assert swept.pop("sweep.manifest.json")
    assert swept == single
    for (_, tag), job_code in zip(jobs, codes):
        manifest = json.loads(swept[f"{tag}.manifest.json"])
        assert (f"{tag}.csv" in swept) == (job_code == 0)
        assert manifest["status"] == ("ok" if job_code == 0 else "numerical-failure")


def _csv_by_element(trace):
    """_trace_csv written one format(x, ".17g") call per value."""
    header = ["omega"]
    for name in [f"{g}{l}" for g in ("f", "g") for l in range(4)]:
        header += [f"re_{name}", f"im_{name}"]
    header += [f"residual_{k}" for k in range(1, 5)]
    lines = [",".join(header)]
    for w, y, r in zip(trace.omegas, trace.states, trace.residuals):
        row = [format(float(w), ".17g")]
        for z in y:
            row += [format(float(z.real), ".17g"), format(float(z.imag), ".17g")]
        row += [format(float(x), ".17g") for x in r]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_trace_csv_matches_per_element_format():
    rng = np.random.default_rng(2)
    specials = np.array([-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1.0, -3.0, 2.0**60,
                         1e16, 0.1, 1 / 3, np.pi])
    states = rng.choice(specials, (5, 8)) + 1j * rng.choice(specials, (5, 8))
    states[0] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    trace = solver.SolutionTrace(
        omegas=np.array([0.1, 0.5, 1.0, 1.25, 1.5]),
        states=states,
        residuals=rng.choice(specials, (5, 4)),
        steps=np.zeros(5),
        errors=np.zeros(5),
    )
    assert cli._trace_csv(trace) == _csv_by_element(trace)
    for x in np.concatenate((specials, [np.inf, -np.inf, np.nan])):
        assert cli._fmt(x) == format(float(x), ".17g")
    mode = ModeLabel(j=0.5, m_j=0.5, eps=1.3, mass=0.7, delta=1)
    zero = solver.integrate(
        radial.RadialSystem(mode=mode), radial.ConstraintSet(mode=mode), 0.3, 1.2,
        np.zeros(8, dtype=complex), tol=1e-10,
    )
    assert np.abs(zero.residuals).max() == 0.0
    assert cli._trace_csv(zero) == _csv_by_element(zero)


def test_integrate_manifest_records_run_stats(tmp_path):
    args = ["integrate", "--j", "3/2", "--delta", "-1", "--eps", "1.3+0.2j", "--mass",
            "0.7", "--from", "0.3", "--to", "1.2", "--tol", "1e-10", "--seed", "5"]
    stats = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert run(args + ["--out", str(tmp_path / name)]) == 0
        stats.append(json.loads((tmp_path / name / "integrate.manifest.json").read_text())["stats"])
    assert stats[0] == stats[1]
    first = stats[0]
    assert sorted(first) == ["accepted_steps", "max_step", "min_step", "rejected_steps",
                             "rhs_evals"]
    rows = (tmp_path / "a" / "integrate.csv").read_text().strip().splitlines()[1:]
    assert first["accepted_steps"] == len(rows) - 1
    assert first["rhs_evals"] == 1 + 6 * (first["accepted_steps"] + first["rejected_steps"])
    assert 0.0 < first["min_step"] <= first["max_step"]


def test_integrate_inward_from_horizon_launch(tmp_path):
    args = ["integrate", "--j", "3/2", "--delta", "+1", "--eps", "1.3", "--mass", "0.7",
            "--from", "1.5", "--to", "0.5", "--launch", "3", "--out", str(tmp_path)]
    assert run(args) == 0
    rows = (tmp_path / "integrate.csv").read_text().strip().splitlines()[1:]
    omegas = np.array([float(row.split(",")[0]) for row in rows])
    assert omegas[0] == 1.5 and abs(omegas[-1] - 0.5) < 1e-12
    assert np.all(np.diff(omegas) < 0.0)
    manifest = json.loads((tmp_path / "integrate.manifest.json").read_text())
    assert manifest["stats"]["accepted_steps"] == len(rows) - 1


def test_delta_is_required(tmp_path, capsys):
    mode = ["--j", "1/2", "--eps", "1.3", "--mass", "0.7", "--out", str(tmp_path)]
    for command, extra in (("reduce", ["--omega", "0.5"]), ("indices", []),
                           ("integrate", ["--from", "0.3", "--to", "1.0"])):
        assert run([command] + mode + extra) == cli.USAGE_ERROR, command
        assert "--delta is required" in capsys.readouterr().err, command
    assert os.listdir(tmp_path) == []


def test_integrate_launch_index_out_of_range(tmp_path, capsys):
    base = ["integrate", "--j", "3/2", "--delta", "+1", "--eps", "1.3", "--mass", "0.7",
            "--from", "1.5", "--to", "0.5", "--out", str(tmp_path)]
    # -1 would index the last exponent; 99 is past the eight of the reduced system
    for index in ("99", "-1", "8", "x"):
        assert run(base + ["--launch", index]) == cli.USAGE_ERROR, index
        assert "--launch must be an exponent index 0..7" in capsys.readouterr().err, index
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, flag",
    [(["geometry", "--points", "0"], "--points"), (["geometry", "--points", "-2"], "--points"),
     (["wigner", "--grid", "0"], "--grid"), (["wigner", "--j", "3/2", "--grid", "-1"], "--grid")],
)
def test_verify_sample_counts_below_one_are_usage_errors(tmp_path, capsys, argv, flag):
    assert run(["verify"] + argv + ["--out", str(tmp_path)]) == cli.USAGE_ERROR
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_verify_manifests_match_with_cold_and_warm_caches(tmp_path):
    for cached in (algebra.generator_table, algebra._spin_table, geometry._connection_basis,
                   ansatz._xi_operators, wigner._weight_stack, wigner.d_weights):
        cached.cache_clear()
    manifests = []
    for _ in range(2):
        assert run(["verify", "algebra", "--out", str(tmp_path)]) == 0
        assert run(["verify", "geometry", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert run(["verify", "ansatz", "--j", "5/2", "--seed", "3", "--out", str(tmp_path)]) == 0
        manifests.append([(tmp_path / name).read_bytes() for name in (
            "verify_algebra.manifest.json", "verify_geometry.manifest.json",
            "verify_ansatz.manifest.json", "ansatz_j5_2_residuals.json",
        )])
    assert manifests[0] == manifests[1]
    assert algebra._spin_table.cache_info().misses == 1
    assert geometry._connection_basis.cache_info().misses == 1
    assert ansatz._xi_operators.cache_info().misses == 1


ANSATZ_CHECKS = [
    "ladder-t2", "ladder-t1", "ladder-sum", "boost", "angular", "trace",
    "divergence-collapse", "divergence",
]


@pytest.mark.parametrize("j", ["1/2", "5/2"])
def test_verify_ansatz_reports_eight_checks_and_their_residual_table(tmp_path, j):
    assert run(["verify", "ansatz", "--j", j, "--seed", "2", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "verify_ansatz.manifest.json").read_text())
    assert [c["name"] for c in manifest["checks"]] == ANSATZ_CHECKS
    assert all(c["pass"] for c in manifest["checks"]) and manifest["status"] == "ok"
    name = f"ansatz_j{j[0]}_2_residuals.json"
    (output,) = manifest["outputs"]
    assert (output["path"], output["kind"]) == (name, "residual-table")
    raw = (tmp_path / name).read_bytes()
    assert output["sha256"] == hashlib.sha256(raw).hexdigest()
    table = json.loads(raw)
    assert list(table) == sorted(ANSATZ_CHECKS)
    assert {c["name"]: c["residual"] for c in manifest["checks"]} == table


def _ansatz_residuals(tmp_path, argv):
    out = tmp_path / "_".join(argv).replace("/", "_")
    assert run(["verify", "ansatz", "--seed", "4", "--out", str(out)] + argv) == 0
    manifest = json.loads((out / "verify_ansatz.manifest.json").read_text())
    assert manifest["status"] == "ok"
    return [c["residual"] for c in manifest["checks"]]


@pytest.mark.parametrize(
    "j, m", [("5/2", "3/2"), ("5/2", "5/2"), ("5/2", "-3/2"), ("3/2", "-3/2"), ("7/2", "5/2")]
)
def test_verify_ansatz_runs_at_the_given_projection(tmp_path, j, m):
    default = _ansatz_residuals(tmp_path, ["--j", j])
    assert _ansatz_residuals(tmp_path, ["--j", j, "--m=1/2"]) == default
    given = _ansatz_residuals(tmp_path, ["--j", j, f"--m={m}"])
    assert given != default
    assert max(given) < 1e-12


@pytest.mark.parametrize(
    "argv", [["--j", "2"], ["--j", "x"], ["--j", "-1/2"], ["--j", "5/2", "--m", "7/2"],
             ["--j", "5/2", "--m", "1"], ["--j", "1/2", "--m", "3/2"], ["--j", "3/2", "--m", "y"]],
)
def test_verify_ansatz_bad_labels_are_usage_errors(tmp_path, capsys, argv):
    assert run(["verify", "ansatz", "--out", str(tmp_path)] + argv) == cli.USAGE_ERROR
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_verify_ansatz_and_the_angular_route_call_no_kron_once_warm(tmp_path, monkeypatch):
    ansatz._xi_operators.cache_clear()
    radial._angular_operators.cache_clear()
    calls = []
    kron = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
    mode = ModeLabel(j=2.5, m_j=0.5, eps=1.3, mass=0.7)

    def certify_part():
        assert run(["verify", "ansatz", "--j", "5/2", "--out", str(tmp_path)]) == 0
        radial.assemble_from_angular(mode, 0.9)

    certify_part()
    assert calls  # the tables are built on first use
    calls.clear()
    certify_part()
    assert calls == []


@pytest.mark.parametrize(
    "argv, conf, key, line",
    [
        (["verify", "algebra"], "suite = wigner\n", "suite", 1),
        (["verify", "algebra"], "# which command\ncommand = reduce\n", "command", 2),
        (["verify", "ansatz", "--j", "5/2"], "seed = 3\nconfig = other.conf\n", "config", 2),
        (["integrate", "--j", "1/2", "--delta", "+1", "--from", "0.3", "--to", "1.0"],
         "tol = 1e-9\ntolerance = 1e-3\n", "tolerance", 2),
        (["reduce", "--j", "1/2", "--delta", "+1", "--omega", "0.5"], "grid = 7\n", "grid", 1),
    ],
    ids=["suite", "command", "config", "misspelt", "other-subcommand"],
)
def test_config_key_that_is_no_option_is_a_usage_error(tmp_path, capsys, argv, conf, key, line):
    path = tmp_path / "c.conf"
    path.write_text(conf)
    out = tmp_path / "out"
    assert run(argv + ["--config", str(path), "--out", str(out)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err and repr(key) in err
    assert not out.exists()


def test_config_file_can_supply_the_reduce_omega(tmp_path, capsys):
    path = tmp_path / "c.conf"
    path.write_text("omega = 0.7\n")
    base = ["reduce", "--j", "3/2", "--delta", "+1", "--eps", "1.3"]
    assert run(base + ["--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert run(base + ["--omega", "0.7", "--out", str(tmp_path / "b")]) == 0
    reduced = [(tmp_path / d / "reduce.json").read_bytes() for d in ("a", "b")]
    assert reduced[0] == reduced[1]
    capsys.readouterr()
    assert run(base + ["--out", str(tmp_path / "c")]) == cli.USAGE_ERROR
    assert "--omega is required" in capsys.readouterr().err
    assert not (tmp_path / "c" / "reduce.json").exists()


def test_config_value_that_does_not_parse_names_its_line(tmp_path, capsys):
    path = tmp_path / "c.conf"
    path.write_text("to = 1.2\nseed = many\n")
    argv = ["integrate", "--j", "1/2", "--delta", "+1", "--from", "0.3", "--config", str(path)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == cli.USAGE_ERROR
    assert f"{path}:2: seed:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_command_line_beats_the_config_file(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_verify", lambda args, outdir: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "run_integrate", lambda args, outdir: seen.append(vars(args)) or 0)
    path = tmp_path / "c.conf"
    path.write_text("from = 0.5\nto = 1.2\nseed = 9\nmass = 0.7\ntol = 1e-9\n")
    out = ["--config", str(path), "--out", str(tmp_path)]
    # --fr abbreviates --from; --tol is given at its default value
    assert cli.main(["integrate", "--j", "1/2", "--delta", "+1", "--fr", "0.3",
                     "--tol", "1e-10", *out]) == 0
    path.write_text("m = 3/2\ngrid = 7\nseed = 9\n")
    assert cli.main(["verify", "wigner", "--j", "5/2", "--seed=2", "--m", "1/2", *out]) == 0
    integrate, verify = seen
    assert (integrate["frm"], integrate["to"], integrate["seed"]) == (0.3, 1.2, 9)
    assert (integrate["mass"], integrate["tol"], integrate["command"]) == (0.7, 1e-10, "integrate")
    assert (verify["suite"], verify["m"]) == ("wigner", "1/2")
    assert (verify["grid"], verify["seed"]) == (7, 2)


def _outputs_apart_from_out(directory):
    """Every file in ``directory`` by name: its bytes, or a manifest without any ``out`` entry."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            manifest["config"].pop("out", None)
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["reduce", "--j", "7/2", "--delta", "+1", "--omega", "0.8"], "--m", "-1/2"),
        (["reduce", "--j", "3/2", "--delta", "-1", "--omega", "0.8"], "--eps", "-1.3+0.4j"),
        (["sweep", "--j", "1/2", "--delta", "+1", "--mass-list", "0.7", "--from", "0.3",
          "--to", "0.6"], "--eps-list", "-1,2"),
    ],
)
def test_a_value_starting_with_a_minus_is_read_as_a_value(tmp_path, argv, flag, value):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(argv + [flag, value, "--out", str(spaced)]) == 0
    assert run(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert _outputs_apart_from_out(spaced) == _outputs_apart_from_out(joined)
