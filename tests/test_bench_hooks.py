"""The benchmark's hooks into the package still resolve.

``bench/spans.py`` wraps functions by attribute path, and ``bench/run.py``
and ``bench/workloads.py`` call a few public names directly.  A name that
no longer resolves would silently drop its per-layer counts to zero, so
this test reads the span table from the benchmark itself.  The command
lines the workloads pass to ``cli.main`` must keep parsing and validating,
so they are read from the workloads too.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from rsdesitter import algebra, ansatz, cli, geometry, radial, solver, wigner

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"rsdesitter.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_resolves_to_a_callable():
    targets = _load_spans().TARGETS
    assert targets
    for name, module, path in targets:
        assert callable(_resolve(module, path)), (name, module, path)


def test_names_the_benchmark_calls_exist():
    for module, path in (
        ("ansatz", "ModeLabel"),
        ("ansatz", "forced_zero_slots"),
        ("cli", "main"),
        ("cli", "run_integrate"),
        ("radial", "RadialSystem"),
        ("radial", "ConstraintSet"),
        ("radial", "ConstraintSet.residuals"),
        ("radial", "build_A8"),
        ("radial", "build_A16"),
        ("radial", "assemble_from_angular"),
        ("solver", "frobenius"),
        ("solver", "constraint_kernel_state"),
        ("solver", "integrate"),
    ):
        assert callable(_resolve(module, path)), (module, path)


def test_benchmark_command_lines_parse_and_validate(tmp_path):
    workloads = _load("workloads")
    recorded = []

    def main(argv):
        recorded.append(list(argv))
        return 0

    rs = SimpleNamespace(
        algebra=algebra, ansatz=ansatz, cli=SimpleNamespace(main=main), geometry=geometry,
        radial=radial, solver=solver, wigner=wigner,
    )
    sweep = None
    for name, workload in workloads.WORKLOADS.items():
        before = len(recorded)
        instance = workload(rs, 1, str(tmp_path / name), False)
        instance.run_op(0)
        assert len(recorded) > before, name
        if name == "sweep-grid":
            sweep = instance
    parser = cli._build_parser()
    commands = set()
    for argv in recorded:
        args = parser.parse_args(argv)  # an unknown or dropped option exits here
        commands.add(args.command)
        if args.command == "integrate":
            cli._integrate_inputs(args)
        elif args.command == "sweep":
            jobs = cli._sweep_jobs(args)
            # the traced pass runs the same jobs one by one through run_integrate
            expected = sweep.jobs(0)
            assert [job.tag for job in jobs] == [tag for _, tag in expected]
            assert [job.manifest.data["config"] for job in jobs] == [
                cli.Manifest(tag, vars(ns)).data["config"] for ns, tag in expected
            ]
        elif args.command == "indices":
            cli._mode_from_args(args)
    assert commands == {"integrate", "sweep", "verify", "indices"}
