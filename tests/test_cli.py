"""Tests for the command-line front end."""

import json
import math
import shutil
import subprocess
import sys
import warnings

import pytest

from mehler.cli import build_parser, load_config_file, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hermite_eval(capsys):
    code, out, _ = run_cli(capsys, "hermite-eval", "--beta", "2", "--x", "1.0")
    assert code == 0
    assert float(out) == pytest.approx(2.0 / math.sqrt(8.0), abs=1e-15)


def test_hermite_eval_multidim(capsys):
    code, out, _ = run_cli(capsys, "hermite-eval", "--beta", "1,1", "--x", "0.5,0.25")
    assert code == 0
    # product of two degree-1 factors: (2x/sqrt(2)) * (2y/sqrt(2))
    assert float(out) == pytest.approx(math.sqrt(2) * 0.5 * math.sqrt(2) * 0.25, abs=1e-14)


def test_coeff(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--function", "x2", "--beta", "2")
    assert code == 0
    assert float(out) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


def test_ou_apply_routes_agree(capsys):
    args = ("ou-apply", "--function", "h_2", "--x", "1.0", "--t", "1.0")
    code, spectral, _ = run_cli(capsys, *args, "--route", "spectral")
    assert code == 0
    assert float(spectral) == pytest.approx(math.exp(-2.0) * 2.0 / math.sqrt(8.0), abs=1e-14)
    code, change, _ = run_cli(capsys, *args, "--route", "change_of_var")
    assert code == 0
    assert float(change) == pytest.approx(float(spectral), abs=1e-10)


@pytest.mark.parametrize("command", ["ou-apply", "poisson-apply"])
def test_apply_rejects_nan_time(capsys, command):
    code, out, err = run_cli(capsys, command, "--function", "one", "--x", "0.3", "--t", "nan")
    assert code == 2
    assert out == ""
    assert "time must be nonnegative, got nan" in err


def test_ou_apply_has_no_kernel_route(capsys):
    # the kernel integral is the change_of_var integral, so it is no route
    with pytest.raises(SystemExit) as exc:
        main(["ou-apply", "--function", "h_2", "--x", "1.0", "--t", "1.0", "--route", "kernel"])
    assert exc.value.code == 2
    assert "invalid choice: 'kernel'" in capsys.readouterr().err


def test_poisson_apply(capsys):
    code, out, _ = run_cli(
        capsys, "poisson-apply", "--function", "h_1", "--x", "1.0", "--t", "1.0"
    )
    assert code == 0
    assert float(out) == pytest.approx(math.exp(-1.0) * math.sqrt(2.0), abs=1e-12)


def test_maximal_plain_and_cone(capsys):
    code, out, _ = run_cli(capsys, "maximal", "--function", "h_2", "--x", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0.0
    assert payload["grid_size"] == 65
    code, out, _ = run_cli(
        capsys, "maximal", "--function", "h_2", "--x", "0.5",
        "--cone", "truncated-parabolic",
    )
    assert code == 0
    payload = json.loads(out)
    y_star, t_star = payload["argmax"]
    assert len(y_star) == 1 and t_star > 0.0


def test_maximal_poisson_cone_pairing(capsys):
    code, out, _ = run_cli(
        capsys, "maximal", "--function", "h_1", "--x", "0.5",
        "--semigroup", "poisson", "--cone", "gaussian",
    )
    assert code == 0
    assert json.loads(out)["value"] > 0.0
    code, _, err = run_cli(
        capsys, "maximal", "--function", "h_1", "--x", "0.5",
        "--semigroup", "poisson", "--cone", "parabolic-gaussian",
    )
    assert code == 2
    assert "gaussian" in err


def test_converge_csv_deterministic(capsys):
    args = ("converge", "--function", "h_2", "--apex", "1.0", "--path-points", "40")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert first.startswith("apex,alpha,sup_error,y_star,t_star\n")
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second


def test_converge_out_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, stdout, _ = run_cli(
        capsys, "converge", "--function", "h_1", "--apex", "0.5",
        "--path-points", "40", "--out", str(out),
    )
    assert code == 0
    assert stdout == ""
    text = out.read_text()
    assert text.startswith("apex,alpha,sup_error,y_star,t_star\n")
    assert len(text.strip().split("\n")) == 13  # header + 12 alphas


def test_converge_json(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--function", "h_2", "--apex", "1.0",
        "--path-points", "40", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    assert set(rows[0]) == {"apex", "alpha", "sup_error", "y_star", "t_star"}


def test_converge_alphas_flag(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--function", "h_1", "--apex", "1.0",
        "--path-points", "30", "--alphas", "0.1,0.01",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# two apexes, shallow decay\n"
        "function = h_1\n"
        "apex = 2.0\n"
        "apex = -1.0\n"
        "decay = 0.6\n"
        "path-points = 40\n"
    )
    code, from_file, _ = run_cli(capsys, "converge", "--config", str(cfg))
    assert code == 0
    body = from_file.strip().split("\n")[1:]
    apexes = {line.split(",")[0] for line in body}
    assert apexes == {"2.0", "-1.0"}
    # flag wins over the file value
    code, overridden, _ = run_cli(capsys, "converge", "--config", str(cfg), "--decay", "0.7")
    assert code == 0
    code, pure_flags, _ = run_cli(
        capsys, "converge", "--function", "h_1", "--apex", "2.0", "--apex", "-1.0",
        "--decay", "0.7", "--path-points", "40",
    )
    assert code == 0
    assert overridden == pure_flags
    assert overridden != from_file


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("decay 0.6\n")
    code, _, err = run_cli(capsys, "converge", "--config", str(bad))
    assert code == 2
    assert "key=value" in err
    for line in ("decay =", "= 0.6"):
        bad.write_text(line + "\n")
        code, _, err = run_cli(capsys, "converge", "--config", str(bad))
        assert code == 2
        assert f"bad.cfg:1: expected key=value, got {line!r}" in err
    code, _, err = run_cli(capsys, "converge", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_config_file_values_reach_their_flags(tmp_path, capsys):
    # each key maps to its flag by option string: "format" sets the flag
    # whose dest is fmt, and file values win over the argparse defaults
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function = one\napex = 0.5\nformat = json\nrefine = 3\n")
    code, out, _ = run_cli(capsys, "dominate", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["refine_factor"] == 3
    code, out, _ = run_cli(capsys, "dominate", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out.startswith("apex,maximal,hl_maximal,ratio\n")
    args = ("ou-apply", "--function", "h_2", "--x", "1.0", "--t", "1.0")
    cfg.write_text("route = spectral\n")
    code, from_file, _ = run_cli(capsys, *args, "--config", str(cfg))
    assert code == 0
    code, spectral, _ = run_cli(capsys, *args, "--route", "spectral")
    code, change, _ = run_cli(capsys, *args, "--route", "change_of_var")
    assert from_file == spectral != change


def test_config_file_apex_list_is_replaced_by_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function = h_1\napex = 2.0\napex = -1.0\npath-points = 40\n")
    code, out, _ = run_cli(capsys, "converge", "--config", str(cfg), "--apex", "0.5")
    assert code == 0
    assert {line.split(",")[0] for line in out.strip().split("\n")[1:]} == {"0.5"}


@pytest.mark.parametrize("line,needle", [
    ("functon = bump", "'functon'"),
    ("format = xml", "format must be one of"),
    ("refine = two", "refine:"),
    ("config = other.cfg", "'config'"),
    ("x = 0.3", "'x' names no optional flag of dominate"),
    ("semigroup = poisson", "'semigroup' names no optional flag of dominate"),
])
def test_config_file_bad_keys_exit_2(tmp_path, capsys, line, needle):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "dominate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert needle in err


def test_config_file_cannot_preload_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x = 0.3\n")
    code, _, err = run_cli(capsys, "maximal", "--function", "one", "--x", "0.1", "--config", str(cfg))
    assert code == 2
    assert "'x' names no optional flag of maximal" in err


@pytest.mark.parametrize("command", ["ou-apply", "poisson-apply"])
def test_spectral_route_on_a_pointwise_entry_exits_2(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--function", "bump", "--x", "0.3", "--t", "0.5", "--route", "spectral"
    )
    assert code == 2
    assert out == ""
    assert err == "error: spectral route needs a Hermite series representation\n"


def test_config_file_seed_is_verify_only(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\n")
    code, out, err = run_cli(capsys, "converge", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "'seed' names no optional flag of converge" in err


def test_load_config_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("dim = 2  # inline comment\n\nfunction=bump\napex=0.5,0.5\n")
    values = load_config_file(str(cfg))
    assert values == {"dim": "2", "function": "bump", "apex": ["0.5,0.5"]}


def test_dominate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "dominate", "--function", "one", "--apex", "0.0", "--apex", "1.5"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "apex,maximal,hl_maximal,ratio"
    assert lines[1] == "0.0,1.0,1.0,1.0"
    assert lines[2] == "1.5,1.0,1.0,1.0"


def test_dominate_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "dominate", "--function", "bump", "--apex", "0.0", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_ratio"] > 1.0
    assert report["bound_rows"][0]["ratio"] < 1.0


def test_dominate_far_apex_names_the_empty_ball(capsys):
    # the gamma-mass of B(30, 1e-3) underflows to 0: no 0/0 and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dominate", "--function", "bump", "--apex", "30")
    assert code == 2 and out == ""
    assert "radius 0.001 about (30.0,) underflows to 0" in err


def test_contrast_csv(capsys):
    code, out, _ = run_cli(
        capsys, "contrast", "--function", "h_1", "--apex", "1.0",
        "--path-points", "10", "--exponent", "0.3",
    )
    assert code == 0
    assert out.startswith("apex,path,t,y,error,in_cone\n")
    assert ",tangential," in out


def test_verify_fast(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, first, _ = run_cli(capsys, "verify", "--level", "fast", "--out", str(out_path))
    assert code == 0
    report = json.loads(first)
    assert report["pass"] is True
    assert out_path.read_text() == first
    code, second, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    assert first == second


def test_error_exits(capsys):
    code, _, err = run_cli(capsys, "ou-apply", "--function", "nope", "--x", "0", "--t", "1")
    assert code == 2
    assert "no catalog entry" in err
    code, _, err = run_cli(capsys, "ou-apply", "--function", "h_2", "--x", "0,0", "--t", "1")
    assert code == 2
    assert "coordinates" in err
    code, _, err = run_cli(capsys, "converge", "--function", "h_2", "--apex", "1.0",
                           "--path-points", "5")
    assert code == 2
    assert "alpha" in err


# the flags each subcommand's handler reads, and no others
FLAGS = {
    "hermite-eval": {"--beta", "--x"},
    "coeff": {"--config", "--dim", "--gh-nodes", "--function", "--beta"},
    **{
        command: {"--config", "--dim", "--gh-nodes", "--function", "--x", "--t", "--route"}
        for command in ("ou-apply", "poisson-apply")
    },
    "maximal": {"--config", "--dim", "--gh-nodes", "--function", "--x", "--semigroup", "--cone"},
    **{
        command: {
            "--config", "--dim", "--gh-nodes", "--function", "--apex", "--out", "--format",
            "--semigroup", "--cone", "--eta", "--decay", "--path-points", extra,
        }
        for command, extra in (("converge", "--alphas"), ("contrast", "--exponent"))
    },
    "dominate": {
        "--config", "--dim", "--gh-nodes", "--function", "--apex", "--out", "--format", "--refine",
    },
    "verify": {"--config", "--gh-nodes", "--seed", "--level", "--out"},
}


def test_each_subcommand_parses_only_the_flags_it_reads():
    commands = build_parser().commands
    flags = {
        name: {opt for a in sub._actions if a.dest != "help" for opt in a.option_strings}
        for name, sub in commands.items()
    }
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 67


REQUIRED = {
    "hermite-eval": ("--beta", "1", "--x", "0.5"),
    "coeff": ("--function", "x", "--beta", "1"),
    "ou-apply": ("--function", "one", "--x", "0.3", "--t", "0.5"),
    "poisson-apply": ("--function", "one", "--x", "0.3", "--t", "0.5"),
    "maximal": ("--function", "one", "--x", "0.3"),
}
REMOVED = [
    *(("hermite-eval", flag, value) for flag, value in (
        ("--config", "run.cfg"), ("--dim", "2"), ("--gh-nodes", "8"), ("--seed", "7"))),
    *((command, "--seed", "7") for command in (
        "coeff", "ou-apply", "poisson-apply", "maximal", "converge", "contrast", "dominate")),
    ("contrast", "--alphas", "0.1,0.01"),
    *(("dominate", flag, value) for flag, value in (
        ("--semigroup", "poisson"), ("--cone", "gaussian"), ("--eta", "0.9"),
        ("--decay", "0.2"), ("--path-points", "3"), ("--alphas", "0.5"))),
    ("verify", "--dim", "2"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED)
def test_a_flag_no_handler_reads_exits_2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED.get(command, ()), flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_dominate_rejects_another_semigroup_and_cone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dominate", "--function", "bump", "--semigroup", "poisson", "--cone", "gaussian"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,needle", [
    (("converge", "--alphas", "0.1,x"), "argument --alphas: expected comma-separated numbers"),
    (("dominate", "--apex", "1,x"), "argument --apex: expected comma-separated numbers"),
    (("ou-apply", "--function", "one", "--x", "x", "--t", "1"), "argument --x: expected"),
    (("hermite-eval", "--beta", "1.5", "--x", "0"), "expected comma-separated integers"),
])
def test_a_malformed_list_flag_exits_2(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert needle in captured.err


def test_console_script_installed():
    exe = shutil.which("mehler")
    assert exe is not None
    proc = subprocess.run(
        [exe, "hermite-eval", "--beta", "1", "--x", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(math.sqrt(2) * 0.5, abs=1e-14)


def test_module_entry_matches_script(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "mehler.cli", "coeff", "--function", "x", "--beta", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
