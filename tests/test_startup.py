"""Start-up contract: a `gps` command loads only the modules it runs.

The package registers its library modules lazily; a module counts as
loaded once it is in sys.modules as a plain module (a registered module
that has not run yet is an instance of importlib's lazy subclass).  Each
check runs in a fresh interpreter, since the test process has long loaded
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpspec

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
HEAVY = {"harness", "maps", "topology"}

PROBE = """
import io, json, sys, types
from gpspec import cli
argv = json.loads(sys.argv[1])
if argv:
    cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
print(json.dumps(sorted(
    name for name, mod in sys.modules.items()
    if name.startswith("gpspec.") and type(mod) is types.ModuleType
)))
"""

# every name `gpspec` re-exported when it still imported all its modules
EXPORTED = """
    BaseRing GradedModule GradedSubmodule GradingGroup Ideal QuotientInvariants
    annihilator enumerate_submodules ideal_times_module quotient_module
    Model ParseError model_text parse_model
    CATALOG ROSTER CheckResult run_checks
    InducedSpectrumMap MapAnalysis PermutationMap analyze_natural_map reduced_ring
    RadicalResult Trilean graded_radical in_primary_spectrum is_cancellation
    is_graded_primary is_graded_prime is_multiplication spectrum_points
    FiniteSpace TopologyReport analyze_space basic_open build_ring_space
    build_space closure ideal_core is_primary_top_module radical_core
    ring_basic_open ring_variety variety variety_membership
""".split()


def python(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=ENV
    )


def loaded_after(*argv) -> set[str]:
    """The gpspec modules loaded after `cli.run(argv)` (none: just the import)."""
    proc = python("-c", PROBE, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("gpspec.") for name in json.loads(proc.stdout)}


def test_light_commands_load_no_heavy_module():
    # their renderers live in dsl next to those of the heavy commands
    for command in (["parse"], ["spec"], ["pspec"], ["max"], ["radical", "--submodule", "N3"]):
        for fmt in ("text", "json"):
            argv = [command[0], "models/z6.gps", *command[1:], "--format", fmt]
            assert not loaded_after(*argv) & HEAVY, argv
    assert not loaded_after("radical", "models/z.gps", "--submodule", "N") & HEAVY


def test_variety_loads_topology_but_not_harness():
    loaded = loaded_after("variety", "models/z6.gps", "--submodule", "N3")
    assert "topology" in loaded and "harness" not in loaded


def test_check_loads_every_heavy_module():
    assert HEAVY <= loaded_after("check", "models/z6.gps")


def test_imports_load_only_the_core():
    core = {"numtheory", "intlinalg", "algebra", "spectra"}
    proc = python("-c", "import json, sys, types, gpspec; print(json.dumps(sorted("
                  "n.removeprefix('gpspec.') for n, m in sys.modules.items() "
                  "if n.startswith('gpspec.') and type(m) is types.ModuleType)))")
    assert proc.returncode == 0 and set(json.loads(proc.stdout)) == core
    assert loaded_after() == core | {"dsl", "cli"}


def test_traced_layer_modules_are_registered_by_the_cli_import():
    # the benchmark's tracer imports gpspec.cli, then reads each layer's
    # module straight from sys.modules
    proc = python("-c", "import sys; sys.path.insert(0, 'perfbench'); import spans; "
                  "import gpspec.cli; print(sorted({m for m, _ in spans.LAYERS.values()} "
                  "- set(sys.modules)))")
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def test_run_as_module_writes_nothing_unexpected_to_stderr():
    proc = python("-m", "gpspec.cli", "pspec", "models/z6.gps")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == ["3Z6", "2Z6"]


def test_commands_run_clean_in_development_mode_with_warnings_as_errors():
    # -X dev turns on the resource and deprecation warnings that a plain
    # interpreter hides, and -W error makes each one fail the command
    for command in (["parse"], ["pspec"], ["radical", "--submodule", "N3"],
                    ["variety", "--submodule", "N3"], ["topology"], ["rho"], ["check"]):
        argv = [command[0], "models/z6.gps", *command[1:]]
        proc = python("-X", "dev", "-W", "error", "-m", "gpspec.cli", *argv)
        assert proc.returncode == 0 and proc.stderr == "", (argv, proc.stderr)
        assert proc.stdout, argv


def test_every_exported_name_resolves_through_the_package():
    for name in EXPORTED:
        home = sys.modules[f"gpspec.{gpspec._HOME[name]}"]
        assert getattr(gpspec, name) is getattr(home, name), name
    proc = python("-c", "import gpspec; from gpspec import run_checks, FiniteSpace; "
                  "print(run_checks.__module__, FiniteSpace.__module__, "
                  "gpspec.model_text.__module__)")
    assert proc.stdout.split() == ["gpspec.harness", "gpspec.topology", "gpspec.dsl"]


def test_traced_check_matches_untraced(tmp_path):
    # the benchmark's tracer still finds every layer under lazy imports
    argv = ["check", "models/z6.gps", "--format", "json"]
    trace = tmp_path / "trace.json"
    traced = python("perfbench/launch.py", "--trace-out", str(trace), *argv)
    plain = python("perfbench/launch.py", *argv)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    snapshot = json.loads(trace.read_text())
    assert snapshot["missing"] == []
    assert snapshot["calls"]["harness.run_checks"] == 1


def test_no_command_loads_dataclasses():
    # the value classes are plain slotted classes: no command pays for the
    # stdlib `dataclasses` (and the `inspect` it imports); `-S` keeps a site
    # hook of the machine from importing it first
    probe = ("import io, sys\n"
             "if sys.argv[1:]:\n"
             "    from gpspec import cli\n"
             "    code = cli.run(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())\n"
             "else:\n"
             "    import gpspec\n"
             "    code = 0\n"
             "print(code, 'dataclasses' in sys.modules)\n")
    for argv in (
        [],
        ["parse", "models/z6.gps"],
        ["pspec", "models/z6.gps"],
        ["radical", "models/z.gps", "--submodule", "N"],
        ["variety", "models/z6.gps", "--submodule", "N3"],
        ["topology", "models/z6.gps"],
        ["rho", "models/z6.gps"],
        ["check", "models/z6.gps"],
    ):
        proc = python("-S", "-c", probe, *argv)
        assert proc.stdout.split() == ["0", "False"], (argv, proc.stderr)
