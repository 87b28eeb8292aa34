import io
import json
import subprocess
import sys
from pathlib import Path

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


def test_dot_rejected_outside_topology():
    for cmd in (["parse"], ["pspec"], ["radical", "--submodule", "N3"]):
        code, out, err = gps(cmd[0], str(MODELS / "z6.gps"), *cmd[1:], "--format", "dot")
        assert code == 2 and "dot" in err


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


def test_exit_code_on_missing_file():
    code, _, err = gps("parse", "no_such_file.gps")
    assert code == 2 and "error" in err


def test_exit_code_on_unknown_theorem():
    code, _, err = gps("check", str(MODELS / "z6.gps"), "--theorem", "T0.0")
    assert code == 2 and "unknown check id" in err


def test_exit_code_on_infinite_enumeration():
    code, _, err = gps("pspec", str(MODELS / "zxz.gps"))
    assert code == 3 and "infinite" in err


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


def test_unknown_submodule_is_input_error():
    code, _, err = gps("radical", str(MODELS / "z6.gps"), "--submodule", "missing")
    assert code == 2


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
        "cli.spectrum_points = lambda M, kind, bound: [maps.prime_point_image(M.zero_submodule)]\n"
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
