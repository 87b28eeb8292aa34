import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gpspec.cli import run

MODELS = Path(__file__).parent.parent / "models"


def gps(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_echoes_canonical_form():
    code, out, err = gps("parse", str(MODELS / "z6.gps"))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "group = Z2"
    assert "submodule N3 = (3)" in out


def test_pspec_z6():
    code, out, _ = gps("pspec", str(MODELS / "z6.gps"))
    assert code == 0
    assert out.splitlines() == ["3Z6", "2Z6"]


def test_spec_and_max():
    code, out, _ = gps("spec", str(MODELS / "z8.gps"))
    assert code == 0 and out.strip() == "2Z8"
    code, out, _ = gps("max", str(MODELS / "z6.gps"))
    assert code == 0 and out.splitlines() == ["3Z6", "2Z6"]


def test_radical_command():
    code, out, _ = gps("radical", str(MODELS / "z.gps"), "--submodule", "N")
    assert code == 0 and out.strip() == "2Z"
    code, out, _ = gps(
        "radical", str(MODELS / "z.gps"), "--submodule", "N", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == "2Z" and payload["top"] is False


def refused_by_parser(capsys, *argv) -> str:
    """The argument parser's complaint about argv, which exits with code 2."""
    with pytest.raises(SystemExit) as exc:
        gps(*argv)
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


def test_dot_rejected_outside_topology(capsys):
    for cmd in (["parse"], ["pspec"], ["radical", "--submodule", "N3"]):
        err = refused_by_parser(capsys, cmd[0], str(MODELS / "z6.gps"), *cmd[1:],
                                "--format", "dot")
        assert "dot" in err


def test_seed_only_on_check(capsys):
    assert "--seed" in refused_by_parser(capsys, "spec", str(MODELS / "z6.gps"),
                                         "--seed", "1")
    code, out, _ = gps("check", str(MODELS / "z6.gps"), "--seed", "3")
    assert code == 0 and "0 failed" in out


def test_variety_command():
    code, out, _ = gps("variety", str(MODELS / "z6.gps"), "--submodule", "N3")
    assert code == 0 and out.strip() == "3Z6"
    code, out, _ = gps(
        "variety", str(MODELS / "z6.gps"), "--submodule", "Z0", "--star"
    )
    assert code == 0 and out.splitlines() == ["3Z6", "2Z6"]


def test_topology_text_and_json():
    code, out, _ = gps("topology", str(MODELS / "z8.gps"))
    assert code == 0
    assert "trivial_topology=True" in out
    code, out, _ = gps("topology", str(MODELS / "z8.gps"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["flags"]["trivial_topology"] is True
    assert payload["flags"]["t0"] is False


def test_topology_dot():
    code, out, _ = gps("topology", str(MODELS / "z6.gps"), "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_rho_command():
    code, out, _ = gps("rho", str(MODELS / "z8.gps"))
    assert code == 0
    assert "surjective: true" in out
    assert "injective: false" in out


def test_check_command_passes():
    code, out, _ = gps("check", str(MODELS / "z6.gps"))
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_check_single_theorem():
    code, out, _ = gps("check", str(MODELS / "zxz.gps"), "--theorem", "CE2.1")
    assert code == 0 and "PASS CE2.1" in out


def test_check_json_format():
    code, out, _ = gps("check", str(MODELS / "z8.gps"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "check_report"
    assert all(r["status"] in ("pass", "skip") for r in payload["results"])


def test_exit_code_on_failing_check():
    code, out, _ = gps("check", str(MODELS / "z6.gps"), "--theorem", "selftest.fail")
    assert code == 1
    assert "FAIL" in out


def test_exit_code_on_malformed_file(tmp_path):
    bad = tmp_path / "bad.gps"
    bad.write_text("module = Z@0\n")
    code, out, err = gps("pspec", str(bad))
    assert code == 2 and out == "" and "error" in err


def test_huge_integer_is_a_parse_error(tmp_path):
    # past Python's cap on the length of an integer string int() raises
    # ValueError; the parser reports it with its line and column
    huge = tmp_path / "huge.gps"
    huge.write_text("group = Z2\nring = Z\nmodule = Z@0\nsubmodule N = (" + "7" * 5000 + ")\n")
    code, out, err = gps("parse", str(huge))
    assert code == 2 and out == ""
    assert err.startswith("error: line 4, column 16: integer too long (5000 digits)")
    assert err.count("\n") == 1 and err.endswith("\n")


BIG_PRIME = 10**30 + 57  # past the proven range of the primality test


@pytest.mark.parametrize("command", ["radical (p)", "radical (3p)", "check Z_p"])
def test_big_prime_is_refused_within_a_second(tmp_path, command):
    # trial division never finished on these; primality past the proven
    # range is refused with exit 3 and one error line
    model = tmp_path / "big.gps"
    if command == "check Z_p":
        model.write_text(f"group = Z2\nring = Z{BIG_PRIME}\nmodule = Z{BIG_PRIME}@0\n")
        argv = ["check", str(model)]
    else:
        gen = BIG_PRIME if command == "radical (p)" else 3 * BIG_PRIME
        model.write_text(f"group = Z2\nring = Z\nmodule = Z@0\nsubmodule N = ({gen})\n")
        argv = ["radical", str(model), "--submodule", "N"]
    start = time.perf_counter()
    code, out, err = gps(*argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: primality of ") and err.count("\n") == 1


def test_radical_past_the_bound_on_a_multiplication_module(tmp_path):
    # |M| = 1000003 * 1000033 is past the enumeration bound, but M is cyclic,
    # so the multiplication identity answers: the radical of 0 is 0
    model = tmp_path / "big.gps"
    model.write_text("group = Z2\nring = Z\nmodule = Z1000003@0 x Z1000033@1\n"
                     "submodule Z0 = 0\n")
    code, out, err = gps("radical", str(model), "--submodule", "Z0")
    assert (code, out, err) == (0, "0\n", "")


def test_exit_code_on_missing_file():
    code, _, err = gps("parse", "no_such_file.gps")
    assert code == 2 and "error" in err


def test_exit_code_on_unknown_theorem():
    code, _, err = gps("check", str(MODELS / "z6.gps"), "--theorem", "T0.0")
    assert code == 2 and "unknown check id" in err


def test_exit_code_on_infinite_enumeration():
    # rho meets the same enumeration gate as pspec, topology and variety
    for stem, module in (("z", "Z@0"), ("zxz", "Z@0 x Z@1")):
        for argv in (["rho"], ["rho", "--space", "spec"], ["topology"], ["pspec"],
                     ["variety", "--submodule", "N"]):
            code, out, err = gps(argv[0], str(MODELS / f"{stem}.gps"), *argv[1:])
            assert (code, out, err) == (3, "", f"error: module {module} is infinite\n"), argv


@pytest.mark.parametrize("space", ["pspec", "spec"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rho_of_the_zero_module_is_refused(tmp_path, space, fmt):
    # R/Ann(0) is the zero ring, which has no prime spectrum to map into;
    # the model itself is valid input
    model = tmp_path / "zero.gps"
    model.write_text("group = Z2\nring = Z\nmodule = 0\n")
    assert gps("parse", str(model))[0] == 0
    code, out, err = gps("rho", str(model), "--space", space, "--format", fmt)
    assert (code, out, err) == (3, "", "error: the zero module has the zero ring as reduction\n")


def test_exit_code_on_enum_bound():
    code, _, err = gps("pspec", str(MODELS / "z30.gps"), "--enum-bound", "10")
    assert code == 3 and "bound" in err


def test_env_var_enum_bound(monkeypatch):
    monkeypatch.setenv("GPS_ENUM_BOUND", "10")
    code, _, err = gps("pspec", str(MODELS / "z30.gps"))
    assert code == 3 and "bound" in err


def test_env_var_enum_bound_not_an_integer(monkeypatch):
    monkeypatch.setenv("GPS_ENUM_BOUND", "abc")
    code, out, err = gps("pspec", str(MODELS / "z6.gps"))
    assert code == 2 and out == ""
    assert err == "error: GPS_ENUM_BOUND must be an integer, got 'abc'\n"
    # an explicit --enum-bound takes precedence over the environment
    code, out, _ = gps("pspec", str(MODELS / "z6.gps"), "--enum-bound", "100")
    assert code == 0 and out.splitlines() == ["3Z6", "2Z6"]
    # an integer that int() refuses for its length is refused in the model
    # parser's words, quoting its first 10 characters, not all its digits
    monkeypatch.setenv("GPS_ENUM_BOUND", "9" * 5000)
    code, out, err = gps("pspec", str(MODELS / "z6.gps"))
    assert code == 2 and out == ""
    assert err == "error: GPS_ENUM_BOUND: integer too long (5000 digits), got '9999999999'\n"


HUGE = "9" * 5000
OUTSIDE_INTEGER_REFUSALS = [
    # (environment, argv, the one stderr line after "error: ")
    ({}, ["radical", "z12.gps", "--submodule", "N", "--enum-bound", "0"],
     "--enum-bound must be at least 1, got '0'"),
    ({}, ["pspec", "z6.gps", "--enum-bound", "-5"], "--enum-bound must be at least 1, got '-5'"),
    ({"GPS_ENUM_BOUND": "0"}, ["pspec", "z6.gps"], "GPS_ENUM_BOUND must be at least 1, got '0'"),
    ({"GPS_ENUM_BOUND": "-5"}, ["pspec", "z6.gps"],
     "GPS_ENUM_BOUND must be at least 1, got '-5'"),
    ({}, ["pspec", "z6.gps", "--enum-bound", HUGE],
     "--enum-bound: integer too long (5000 digits), got '9999999999'"),
    ({}, ["check", "z6.gps", "--seed", HUGE],
     "--seed: integer too long (5000 digits), got '9999999999'"),
]


@pytest.mark.parametrize("env, argv, message", OUTSIDE_INTEGER_REFUSALS, ids=[
    "flag-0", "flag-negative", "variable-0", "variable-negative", "flag-5000-digits",
    "seed-5000-digits"])
def test_bounds_below_1_and_overlong_integers_are_input_errors(monkeypatch, env, argv, message):
    # a bound below 1 bounds nothing, and an integer past the interpreter's
    # digit limit is quoted by its first 10 characters, not echoed whole
    monkeypatch.delenv("GPS_ENUM_BOUND", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = gps(argv[0], str(MODELS / argv[1]), *argv[2:])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 120


def test_unknown_submodule_is_input_error():
    code, _, err = gps("radical", str(MODELS / "z6.gps"), "--submodule", "missing")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["pspec", "models/nope.gps"], "cannot read models/nope.gps: No such file or directory"),
    (["radical", "models/z6.gps", "--submodule", "Q"], "no submodule named 'Q' in the model"),
])
def test_input_errors_without_a_position_print_none(monkeypatch, argv, message):
    monkeypatch.chdir(MODELS.parent)
    assert gps(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("module", [
    " x ".join(["Z2@0"] * 10),
    " x ".join(["Z2@0"] * 5 + ["Z2@1"] * 5),
], ids=["Z2^10", "Z2^5@0+Z2^5@1"])
def test_too_many_submodules_are_refused_quickly(tmp_path, module):
    # |M| = 1024 is inside the enumeration bound, but Z2^10 has 229,755,605
    # subgroups and Z2^5 + Z2^5 in two degrees 374^2 = 139,876 graded
    # submodules, past the submodule bound; each was answered slowly or not
    # at all, and is now refused before the submodules are built
    model = tmp_path / "big.gps"
    model.write_text(f"group = Z2\nring = Z\nmodule = {module}\n")
    proc = subprocess.run([sys.executable, "-m", "gpspec.cli", "spec", str(model)],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: graded submodules exceed submodule bound 20000\n"


def test_byte_identical_repeated_runs():
    for argv in (
        ["pspec", str(MODELS / "z6.gps")],
        ["topology", str(MODELS / "z8.gps"), "--format", "json"],
        ["check", str(MODELS / "z6.gps"), "--format", "json"],
        ["topology", str(MODELS / "z12.gps"), "--format", "dot"],
    ):
        a = gps(*argv)
        b = gps(*argv)
        assert a == b


def test_byte_identical_across_processes():
    # separate interpreter processes (fresh hash seeds) must emit the same bytes
    argv = [
        sys.executable,
        "-c",
        "from gpspec.cli import run; raise SystemExit(run("
        "['check', 'models/z6.gps', '--format', 'json']))",
    ]
    runs = [
        subprocess.run(argv, capture_output=True, cwd=Path(__file__).parent.parent)
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_variety_json_on_prime_space():
    code, out, _ = gps(
        "variety", str(MODELS / "z6.gps"), "--submodule", "N2",
        "--space", "spec", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [1]
    assert payload["points"] == ["3Z6", "2Z6"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpspec.cli", str(MODELS / "z6.gps")],
        capture_output=True,
        text=True,
    )
    # no subcommand: argparse errors out with usage on stderr
    assert proc.returncode != 0
    proc = subprocess.run(
        [sys.executable, "-c", "from gpspec.cli import run; raise SystemExit(run(['pspec', 'models/z6.gps']))"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["3Z6", "2Z6"]


def test_internal_invariant_survives_optimize_and_exits_4():
    # under `python -O` a failed invariant still raises InvariantError, and
    # the CLI maps it to exit code 4; here `pspec` is made to ask for the
    # natural image of the zero submodule of Z6, which is not a prime point
    script = (
        "from gpspec import cli, maps\n"
        "cli.spectrum_points = lambda M, kind, bound: [maps.primary_point_image(M.zero_submodule)]\n"
        "raise SystemExit(cli.run(['pspec', 'models/z6.gps']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == "internal error: natural image (0) of 0 is not prime\n"
