import ast
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsplit import anomaly, cli, groundstate, modeops, symbolic
from pointsplit.cli import RunConfig, main
from pointsplit.trigpoly import TrigPoly

from golden import make_reports


def run_cli(args):
    return main(args)


def test_verify_default_passes(capsys):
    assert run_cli(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS continuity" in out


def test_verify_at_n_max_8_passes_every_check(capsys):
    # beyond the reach of the normal-ordering oracle in test time
    assert run_cli(["verify", "--n-max", "8", "--eps", "0.3", "--eps", "0.7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)


def test_verify_at_n_max_32_passes_every_check(capsys):
    # kernel-level checks reach lattices the dict-of-monomials route could not
    assert run_cli(["verify", "--n-max", "32", "--eps", "0.3", "--eps", "0.9", "--f-harmonic", "1:0.5:0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)


def test_verify_at_n_max_128_passes_every_check(capsys):
    # the Hamiltonian's commutators are elementwise, so this lattice takes seconds
    assert run_cli(["verify", "--n-max", "128", "--eps", "0.3", "--eps", "0.9", "--f-harmonic", "1:0.5:0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)


def test_verify_at_large_momenta_passes_every_check(capsys):
    # momenta up to 256, where z and each shift must enter the kernels as separate
    # per-slot factors for the split identities to hold to round-off
    assert run_cli(["verify", "--n-max", "32", "--delta-p", "8", "--eps", "0.3", "--eps", "0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)


def test_verify_rejects_bad_lattice(capsys):
    assert run_cli(["verify", "--n-max", "0"]) == 2
    assert "n_max" in capsys.readouterr().err


def test_verify_corrupted_sign_fails(capsys):
    assert run_cli(["verify", "--corrupt-sign-hook"]) == 1
    out = capsys.readouterr().out
    assert "FAIL continuity" in out


_SUBCOMMAND_HELP = """\
usage: pointsplit {name} [-h] [--config CONFIG] [--mass MASS]
{pad}[--delta-p DELTA_P] [--n-max N_MAX] [--eps EPS]
{pad}[--f-harmonic F_HARMONICS] [--eta ETA]
{pad}[--cutoff CUTOFF] [--format {{json,csv}}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON file with the same keys as the flags
  --mass MASS
  --delta-p DELTA_P
  --n-max N_MAX
  --eps EPS             repeatable
  --f-harmonic F_HARMONICS
                        smearing harmonic n:re:im (n >= 0, mirrored to -n);
                        repeatable
  --eta ETA
  --cutoff CUTOFF
  --format {{json,csv}}
  --out OUT
"""


@pytest.mark.parametrize("name", ["verify", "anomaly", "vacuum", "kernel", "derive"])
def test_every_subcommand_keeps_its_help_text_and_unknown_flag_error(monkeypatch, capsys, name):
    """Each subcommand reads the shared flags from one parent parser; the help
    and the error lines are those of a parser that declared them per subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run_cli([name, "--help"])
    assert stop.value.code == 0
    pad = " " * len(f"usage: pointsplit {name} ")
    assert capsys.readouterr().out == _SUBCOMMAND_HELP.format(name=name, pad=pad)
    assert run_cli([name, "--bogus"]) == 2
    assert capsys.readouterr().err == "error: pointsplit: unrecognized arguments: --bogus\n"
    assert run_cli([name, "--n-max", "x"]) == 2
    assert capsys.readouterr().err == f"error: pointsplit {name}: argument --n-max: invalid int value: 'x'\n"


def test_the_parser_is_built_once_and_keeps_no_parse_state(tmp_path, monkeypatch, capsys):
    """Calls with different --eps and --f-harmonic lists through the one cached
    parser each write what a fresh parser's call writes, and a subcommand's help
    is laid out at the COLUMNS of the call that asks for it."""
    assert cli._build_parser() is cli._build_parser()
    runs = [
        ["verify", "--n-max", "1", "--eps", "0.3", "--eps", "0.9", "--f-harmonic", "1:0.5:0"],
        ["verify", "--n-max", "1", "--eps", "0.7", "--f-harmonic", "2:0.2:0.1", "--f-harmonic", "1:0.1:0"],
    ]

    def run(argv, name):
        code = run_cli(argv + ["--out", str(tmp_path / name)])
        return code, capsys.readouterr(), (tmp_path / name).read_bytes()

    alone = []
    for i, argv in enumerate(runs):
        cli._build_parser.cache_clear()
        alone.append(run(argv, f"alone-{i}.json"))
    assert [run(argv, f"together-{i}.json") for i, argv in enumerate(runs)] == alone
    assert json.loads(alone[1][2])["config"]["eps"] == [0.7]
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run_cli(["verify", "--help"])
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run_cli(["verify", "--help"])
    pad = " " * len("usage: pointsplit verify ")
    assert capsys.readouterr().out == _SUBCOMMAND_HELP.format(name="verify", pad=pad)


def _assert_each_call_matches_a_fresh_interpreter(argvs, tmp_path, capsys):
    """Run each argv here, one after another, and in a fresh interpreter of its own: the
    exit code, stdout, stderr and --out bytes must agree."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for i, argv in enumerate(argvs):
        fresh, here = tmp_path / f"fresh-{i}.json", tmp_path / f"here-{i}.json"
        cmd = [sys.executable, "-m", "pointsplit.cli", *argv, "--out", str(fresh)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        code = run_cli([*argv, "--out", str(here)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert here.read_bytes() == fresh.read_bytes(), argv


def test_back_to_back_calls_match_a_fresh_interpreter_each(tmp_path, capsys):
    """Every benchmark ladder's calls, run one after another in this process, where
    the parser, the CAR sweeps and the mode tables are cached, each write the --out
    bytes, stdout and exit code of a fresh interpreter running that call alone."""
    ladders = ("verify-ladder", "anomaly-ladder", "vacuum-kernel")
    argvs = [argv for workload in ladders for argv in make_reports.ladder(workload, 1)]
    _assert_each_call_matches_a_fresh_interpreter(argvs, tmp_path, capsys)


def test_anomaly_edge_calls_match_a_fresh_interpreter_each(tmp_path, capsys):
    """Amplitudes near 1e3, shifts of both signed zeros and a large lattice with a
    negative eps, each run twice in this process, write what a fresh interpreter writes."""
    large = ["--f-harmonic", "1:1000:0.37", "--f-harmonic", "2:1000:-0.21", "--f-harmonic", "3:0.3:1000"]
    argvs = [
        ["anomaly", "--n-max", "8", *large, "--eps", "0.05"],
        ["anomaly", "--n-max", "8", "--f-harmonic", "1:0.5:0", "--eps", "0"],
        ["anomaly", "--n-max", "8", "--f-harmonic", "1:0.5:0", "--eps=-0.0"],
        ["anomaly", "--n-max", "64", "--f-harmonic", "1:0.5:0", "--f-harmonic", "2:0.3:0.1", "--eps", "0.3", "--eps=-0.7"],
    ]
    _assert_each_call_matches_a_fresh_interpreter(argvs + argvs, tmp_path, capsys)


_FLAG_NAMES = sorted(cli._FLAGS) + [cli._SIGN_HOOK]
# values each flag's type takes, edge forms and the "--" that argparse drops from an '=' included,
# then values some flag rejects
_GOOD_VALUES = {
    float: ["1", "0.5", "1e-3", "-1e-3", "nan", "-inf", "1_0", " 2 "],
    int: ["1", "3", "1_0", " 2", "-1"],
    str: ["a.json", "", "a b", "x=y", "json", "csv", "-x", "--"],
    cli._parse_harmonic: ["1:0.5:0", "2:-0.3:1e-2", "0:1:0"],
}
_BAD_VALUES = ["x", "-", "-h", "--eps", "xml", "1:2", "1:x:0", "1.5"]


@st.composite
def _flag_tokens(draw, plain: bool):
    """One flag with its value in the next token or after an '='; unless plain, the flag may be
    abbreviated or unknown to the subcommand and the value missing, rejected or dash-led."""
    name = draw(st.sampled_from(_FLAG_NAMES))
    if name == cli._SIGN_HOOK and plain:
        return [name]
    flag = cli._FLAGS.get(name)
    values = _GOOD_VALUES[flag.type] if flag else _BAD_VALUES
    value = draw(st.sampled_from(values) if plain else st.sampled_from(values + _BAD_VALUES) | st.text(max_size=3))
    forms = [[name, value], [f"{name}={value}"]]
    if not plain:
        forms.append([name])
        if draw(st.booleans()):
            name = name[: draw(st.integers(3, len(name) - 1))]
            forms += [[name], [name, value], [f"{name}={value}"]]
    return draw(st.sampled_from(forms))


_JUNK_TOKENS = st.sampled_from(["-h", "--help", "--", "-", "verify", "--bogus", "--n-max=2=3"]) | st.text(max_size=3)


@st.composite
def _argvs(draw):
    """Half the argvs are a subcommand and flags only, the rest mix in junk and malformed flags."""
    plain = draw(st.booleans())
    commands = list(cli._COMMANDS) + ([] if plain else ["", "verif", "--help", "--n-max"])
    tokens = _flag_tokens(plain) if plain else _flag_tokens(plain) | _flag_tokens(True) | _JUNK_TOKENS.map(lambda t: [t])
    return [draw(st.sampled_from(commands))] + [t for ts in draw(st.lists(tokens, max_size=6)) for t in ts]


def _parsed(namespace) -> str:
    return repr(sorted(vars(namespace).items()))  # repr, so that nan equals nan and -0.0 differs from 0.0


@given(_argvs())
@settings(max_examples=400, deadline=None)
def test_the_plain_argv_reader_returns_what_argparse_returns(argv):
    """Wherever the reader takes an argv, the parser takes it too and returns equal values."""
    read = cli._read_plain_argv(argv)
    if read is not None:
        assert _parsed(read) == _parsed(cli._build_parser().parse_args(cli._attach_negative_values(argv)))


def test_the_plain_argv_reader_takes_every_benchmark_call():
    ladders = ("verify-ladder", "anomaly-ladder", "vacuum-kernel")
    argvs = [argv + ["--out", "report.json"] for workload in ladders for argv in make_reports.ladder(workload, 1)]
    argvs += [["anomaly", "--eps=-0.3", "--f-harmonic=1:0.5:0", "--format=csv", "--out="], ["verify", "--corrupt-sign-hook"]]
    for argv in argvs:
        read = cli._read_plain_argv(argv)
        assert read is not None, argv
        assert _parsed(read) == _parsed(cli._build_parser().parse_args(argv)), argv


def test_a_plain_call_builds_no_parser_and_loads_no_locale():
    """argparse's first message lookup imports locale; a plain call of each subcommand in a
    fresh interpreter never builds the parser, so neither happens."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys\n"
        "import pointsplit.cli as cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(codes, 'locale' in sys.modules, cli._build_parser.cache_info().misses)\n"
    )
    argvs = [
        ["verify", "--n-max", "1", "--eps", "0.3"],
        ["anomaly", "--n-max", "2", "--f-harmonic", "1:0.5:0", "--eps=0.1"],
        ["vacuum", "--n-max", "1", "--eps", "2", "--format", "csv"],
        ["kernel", "--eps", "0.3"],
        ["derive"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0] False 0\n"


def test_anomaly_evaluates_each_split_kernel_once_and_formats_one_transcript(tmp_path, monkeypatch):
    """With k eps values the split vacuum kernel and the shift weight run at eps and -eps
    once each, 2k calls each: the kernels shared by the pointsplit and kernel tables, each
    kernel row holding its own shift's value, and the weights by the pointsplit and
    continuum tables.  F's band is built once for both exact routes, and the formal route
    formats only the transcript the report prints."""
    kernel = anomaly.split_vev_kernel
    calls = {}

    def count(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for module in (anomaly, cli, modeops, symbolic):  # wherever a module binds fn, so no call goes uncounted
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)

    count("kernel", anomaly.split_vev_kernel)
    count("format", symbolic.format_expr)
    count("smeared_kernel", modeops.smeared_kernel)
    count("weight", anomaly._shift_weight)
    eps = ["--eps", "0.1", "--eps", "0", "--eps=-0.4"]
    argv = ["anomaly", "--n-max", "4", "--f-harmonic", "1:0.5:0", *eps, "--out", str(tmp_path / "a.json")]
    assert run_cli(argv) == 0
    assert calls == {"kernel": 6, "format": 1, "smeared_kernel": 1, "weight": 6}
    rows = json.loads((tmp_path / "a.json").read_text())["tables"]["kernel"]
    cfg = RunConfig(n_max=4).lattice()
    shifts = (-0.4, -0.1, 0.0, -0.0, 0.1, 0.4)
    assert [(row["g"], row["kernel_imag"]) for row in rows] == [(g, kernel(g, cfg).imag) for g in shifts]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "2", "--f-harmonic", "1:0.5:0"],
        ["verify", "--n-max", "2"],  # verify's default smearing
        ["anomaly", "--n-max", "2", "--f-harmonic", "1:0.5:0", "--f-harmonic", "2:0.1:0.2"],
    ],
)
def test_a_run_builds_its_smearing_once(tmp_path, monkeypatch, argv):
    """RunConfig builds and checks f, and verify and anomaly read that one TrigPoly."""
    builds = []
    build = TrigPoly.from_harmonics.__func__
    counted = classmethod(lambda cls, *args: builds.append(args) or build(cls, *args))
    monkeypatch.setattr(TrigPoly, "from_harmonics", counted)
    assert run_cli(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["anomaly", "--corrupt-sign-hook"], "pointsplit: unrecognized arguments: --corrupt-sign-hook"),
        (["derive", "--format", "xml"], "pointsplit derive: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
        (["vacuum", "--f-harmonic", "1:2"], "pointsplit vacuum: argument --f-harmonic: expected n:re:im, got '1:2'"),
        (["verify", "--eps"], "pointsplit verify: argument --eps: expected one argument"),
    ],
)
def test_shared_flags_keep_their_error_lines(capsys, argv, err):
    """The sign hook stays on verify alone, and each shared flag's error names
    the subcommand it was given to."""
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_corrupted_sign_residual_is_one_over_pi(tmp_path):
    # flipping the positron energies leaves [H, rho] off by n_max/pi at the worst monomial
    out = tmp_path / "control.json"
    assert run_cli(["verify", "--n-max", "1", "--corrupt-sign-hook", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["continuity"]["passed"] is False
    assert checks["continuity"]["residual"] == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert all(c["passed"] for name, c in checks.items() if name != "continuity")


def test_verify_nan_eps_fails(capsys):
    # a non-finite input is rejected before any check runs
    assert run_cli(["verify", "--eps", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eps must be a finite number, got nan\n"


def test_invariant_failure_exits_1_with_one_error_line(monkeypatch, capsys):
    # the two exact anomaly routes disagreeing is an internal invariant failure
    monkeypatch.setattr(cli, "double_commutator_spectral", lambda kernel, cfg: 1.0e3)
    assert run_cli(["anomaly", "--f-harmonic", "1:0.5:0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exact routes disagree") and err.count("\n") == 1


def test_a_negative_spectral_sum_exits_1_with_one_error_line(monkeypatch, capsys):
    # the spectral route sums squared moduli, so a negative value is an internal invariant failure
    monkeypatch.setattr(cli, "double_commutator_spectral", lambda kernel, cfg: -1.0)
    assert run_cli(["anomaly", "--f-harmonic", "1:0.5:0"]) == 1
    assert capsys.readouterr() == ("", "error: spectral sum came out negative: -1.0\n")


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308])
    | st.text(alphabet=st.sampled_from(list('{},"\n:[] \\aé∂\u2028')) | st.characters())
)
JSON_KEYS = st.text(alphabet=st.sampled_from(list('{},"\n ab\u00e9')), max_size=4)
JSON_ROWS = st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=4), max_size=4)  # tables, some rows empty
JSON_TREES = st.recursive(
    JSON_SCALARS | JSON_ROWS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
def test_report_writer_writes_what_the_reference_encoder_writes(tree):
    assert cli._json_report(tree) == json.dumps(tree, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("value, name", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_a_non_finite_report_value_exits_2_naming_the_value(tmp_path, monkeypatch, capsys, value, name):
    # the JSON encoder and the CSV writer both refuse the value, and main names the run's inputs
    monkeypatch.setattr(cli, "kernel_asymptote", lambda *args: anomaly.kernel_asymptote(*args)[:3] + (value,))
    for fmt in ("json", "csv"):
        out = tmp_path / f"kernel-{name}.{fmt}"
        assert run_cli(["kernel", "--eps", "0.1", "--format", fmt, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the kernel run leaves the float range at mass=1.0, eps=[0.1], eta=None, cutoff=None\n"
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "module, builder, argv",
    [(modeops, "_sandwich_at", ["verify"]), (cli, "smeared_kernel", ["anomaly", "--f-harmonic", "1:0.5:0"])],
)
def test_kernel_out_of_memory_exits_2_with_one_error_line(monkeypatch, capsys, module, builder, argv):
    # an allocation the OS refuses: verify streams its kernels in row blocks and
    # anomaly builds F's band alone, so even --n-max 30000 runs its O(N^2) work
    # rather than failing here, and the builder is patched to raise as numpy does;
    # the line names the run's inputs, not numpy's array shape
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 13.4 GiB for an array with shape (60002, 60002)")

    monkeypatch.setattr(module, builder, refuse)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    inputs = "mass=1.0, delta_p=1.0, n_max=2, eps=[0.3], f_harmonics=[(1, 0.5, 0.0)]"
    assert err == f"error: the {argv[0]} run runs out of memory at {inputs}\n"


def test_an_empty_memory_error_still_names_the_inputs(monkeypatch, capsys):
    # a MemoryError raised by Python itself carries no text at all; before the
    # config is read, as on a config file too large to load, there are no inputs to name
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "kernel_asymptote", refuse)
    assert run_cli(["kernel", "--eps", "0.1", "--eta", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err == "error: the kernel run runs out of memory at mass=1.0, eps=[0.1], eta=0.01, cutoff=None\n"
    monkeypatch.setattr(cli, "_load_config", refuse)
    assert run_cli(["kernel", "--eps", "0.1"]) == 2
    assert capsys.readouterr().err == "error: out of memory reading the arguments\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "1"],
        ["anomaly", "--n-max", "1", "--f-harmonic", "1:0.5:0"],
        ["vacuum", "--n-max", "1", "--eps", "1"],
        ["kernel", "--eps", "0.1"],
        ["derive"],
    ],
)
@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_an_unwritable_out_path_exits_2_with_one_line_naming_it(tmp_path, capsys, argv, target):
    # a missing directory and a directory as the target: the run completes, and the
    # failed write ends in exit 2 and one error line that names the path
    out = str(tmp_path / target)
    assert run_cli(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the report to {out!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [["derive", "--out"], ["verify", "--config"]])
def test_an_error_line_keeps_the_spaces_of_the_path_it_names(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "a  b.json")
    assert run_cli(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert repr(path) in err


@pytest.mark.parametrize("n_max", [2.5, "3", True])
def test_config_file_non_integer_n_max(tmp_path, capsys, n_max):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"n_max": n_max}))
    assert run_cli(["verify", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n_max" in err


@pytest.mark.parametrize("key, value", [("eps", 0.3), ("f_harmonics", [[1, 0.5]]), ("mass", "x"), ("out", 5)])
def test_config_file_mistyped_value(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({key: value}))
    assert run_cli(["derive", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["anomaly", "--f-harmonic", "1:nan:0"],
        ["verify", "--f-harmonic", "1:0.5:inf"],
        ["kernel", "--eps", "nan"],
        ["kernel", "--cutoff", "nan"],
        ["kernel", "--eta", "-1"],
        ["vacuum", "--eps", "nan"],
        ["vacuum", "--eps", "inf"],
        ["anomaly", "--f-harmonic", "1:0.5:0", "--eps", "inf"],
        ["verify", "--delta-p", "inf"],
    ],
)
def test_non_finite_input_exits_2_before_any_work(capsys, argv):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, in_file, value",
    [
        (["vacuum", "--n-max", "1", "--eps", "2", "--eps", "2", "--format", "csv"], None, "2.0"),
        (["anomaly", "--f-harmonic", "1:0.5:0", "--eps", "0.3", "--eps=-0.0", "--eps", "0"], None, "0.0"),
        (["kernel", "--eps", "0.01", "--eps", "0.1", "--eps", "1e-2"], None, "0.01"),
        (["verify", "--n-max", "1"], {"eps": [0.3, 0.9, 0.3]}, "0.3"),
    ],
)
def test_a_repeated_eps_exits_2_naming_it(tmp_path, capsys, argv, in_file, value):
    # by float equality, so 0.0 and -0.0 are one value; a config file's list is read alike
    if in_file is not None:
        (tmp_path / "run.json").write_text(json.dumps(in_file))
        argv = argv + ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "report"
    assert run_cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: eps must not repeat a value, got {value} more than once\n"


def test_no_benchmark_call_repeats_an_eps():
    """A repeated eps exits 2, so no benchmark call may carry one: the ladders' drawn eps, rounded
    to 6 significant digits, are distinct by float equality in every call at seeds 0-999."""
    repeats = [
        (workload, seed, argv)
        for workload in make_reports.LADDERS
        for seed in range(1000)
        for argv in make_reports.ladder(workload, seed)
        if len(eps := [float(v) for flag, v in zip(argv, argv[1:]) if flag == "--eps"]) != len(set(eps))
    ]
    assert repeats == []


@pytest.mark.parametrize("command", ["vacuum", "kernel", "derive", "verify", "anomaly"])
def test_a_cutoff_past_the_float_range_exits_2_naming_both_inputs(capsys, command):
    assert run_cli([command, "--delta-p", "1e307", "--n-max", "64", "--f-harmonic", "1:0.5:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the cutoff n_max * delta_p overflows to inf at delta_p=1e+307, n_max=64\n"


@pytest.mark.parametrize("flag, key", [("--eps", "eps"), ("--mass", "mass"), ("--delta-p", "delta_p")])
def test_negative_flag_value_in_exponent_or_non_finite_form(capsys, flag, key):
    # argparse alone reads -1e-3 and -inf as options and stops with "expected one argument"
    runs = []
    for argv in ([f"{flag}=-1e-3"], [flag, "-1e-3"]):
        code = run_cli(["vacuum", "--n-max", "1", *argv])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert run_cli(["vacuum", "--n-max", "1", flag, "-inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be a finite number, got -inf\n"


def test_anomaly_requires_smearing(capsys):
    assert run_cli(["anomaly"]) == 2
    assert "f-harmonic" in capsys.readouterr().err


def test_anomaly_constant_smearing_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["anomaly", "--f-harmonic", "0:1:0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["exact_direct"] == pytest.approx(0.0, abs=1e-12)
    assert report["summary"]["exact_spectral"] == pytest.approx(0.0, abs=1e-12)
    assert report["summary"]["formal_zero"] is True


def test_anomaly_cosine_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["anomaly", "--f-harmonic", "1:0.5:0", "--eps", "0.1", "--eps", "0.05", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["exact_direct"] > 0
    assert report["summary"]["formal_zero"] is True
    assert report["formal_transcript"] == "0"
    eps_column = [row["eps"] for row in report["tables"]["continuum"]]
    assert eps_column == sorted(eps_column)
    for row in report["tables"]["continuum"]:
        assert row["abs_error"] == pytest.approx(abs(row["finite_difference"] - row["limit"]))
    # finite differences approach the derivative-squared limit from below
    errs = [row["abs_error"] for row in report["tables"]["continuum"]]
    assert errs == sorted(errs)


def test_anomaly_deterministic_bytes(tmp_path):
    args = ["anomaly", "--f-harmonic", "1:0.5:0", "--eps", "0.1"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_anomaly_at_n_max_128_routes_agree(tmp_path):
    out = tmp_path / "report.json"
    args = ["anomaly", "--n-max", "128", "--f-harmonic", "1:0.5:0", "--f-harmonic", "2:0.3:0", "--eps", "0.01"]
    assert run_cli(args + ["--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["exact_direct"] == pytest.approx(summary["exact_spectral"], rel=1e-10, abs=0)


def test_anomaly_rejects_out_of_range_harmonic(capsys):
    assert run_cli(["anomaly", "--f-harmonic", "5:1:0", "--n-max", "2"]) == 2
    assert "harmonic" in capsys.readouterr().err


def test_vacuum_report(tmp_path):
    out = tmp_path / "vac.json"
    code = run_cli(["vacuum", "--n-max", "3", "--eps", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    rows = {r["quantity"]: r["value"] for r in report["tables"]["ground_state"]}
    expected = 4.0 * (math.sqrt(2.0) * math.cos(2.0) + math.sqrt(5.0) * math.cos(4.0))
    assert rows["bruteforce_minimum[eps=2.0]"] == pytest.approx(expected, abs=1e-10)
    assert rows["bruteforce_degeneracy[eps=2.0]"] == 1
    assert rows["bruteforce_matches_redefined_vacuum[eps=2.0]"] is True
    negatives = [r["j"] for r in report["tables"]["spectrum"] if r["negative"]]
    assert sorted(negatives) == [-2, -1, 1, 2]


def test_vacuum_writes_each_energy_as_a_float_when_the_negative_set_is_empty(tmp_path):
    """Below the threshold the additive and the operator energies are sums over no mode; they
    are written 0.0, as the brute-force minimum is, not the int 0, in JSON and in CSV.  The
    degeneracy and the match flag are an int and a bool by design."""
    energies = ("redefined_vacuum_energy[", "redefined_vacuum_energy_operator[", "bruteforce_minimum[")
    argv = ["vacuum", "--n-max", "1", "--eps", "0.1"]
    json_out, csv_out = tmp_path / "vacuum.json", tmp_path / "vacuum.csv"
    assert run_cli(argv + ["--out", str(json_out)]) == 0
    assert run_cli(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    rows = json.loads(json_out.read_text())["tables"]["ground_state"]
    values = {row["quantity"]: row["value"] for row in rows if row["quantity"].startswith(energies)}
    assert len(values) == 3 and all(type(value) is float for value in values.values())
    block = csv_out.read_text().split("\n\n")[0].splitlines()
    assert block[:2] == ["# table: ground_state", "quantity,value"]
    cells = dict(line.split(",") for line in block[2:])
    assert {quantity: cells[quantity] for quantity in values} == {quantity: "0.0" for quantity in values}


@pytest.mark.parametrize("n_max, per_eps", [(5, 2), (16, 1)])
def test_vacuum_builds_one_split_spectrum_per_eps_and_one_for_the_brute_force(monkeypatch, n_max, per_eps):
    # both views read the spectrum cmd_vacuum builds; the brute force, run up to 24 slots
    # (22 at n_max 5, 66 at n_max 16), builds its own as the independent check
    builds, build = [], groundstate.split_spectrum
    counted = lambda eps, cfg: builds.append(eps) or build(eps, cfg)
    monkeypatch.setattr(cli, "split_spectrum", counted)
    monkeypatch.setattr(groundstate, "split_spectrum", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["vacuum", "--n-max", str(n_max), "--eps", "0.7", "--eps", "2", "--eps=-1.3"]) == 0
    assert sorted(builds) == sorted([-1.3, 0.7, 2.0] * per_eps)


def test_vacuum_fails_when_the_operator_route_disagrees(monkeypatch, tmp_path):
    # above 24 slots the brute force is skipped, and <state|H_eps|state> is the one cross-check
    argv = ["vacuum", "--n-max", "16", "--eps", "2", "--out", str(tmp_path / "vac.json")]
    assert run_cli(argv) == 0
    build = cli.split_hamiltonian
    monkeypatch.setattr(cli, "split_hamiltonian", lambda cfg, eps: 1.001 * build(cfg, eps))
    assert run_cli(argv) == 1
    report = json.loads((tmp_path / "vac.json").read_text())
    rows = {r["quantity"]: r["value"] for r in report["tables"]["ground_state"]}
    assert rows["bruteforce_skipped[eps=2.0]"] == "enumeration bound"
    additive = rows["redefined_vacuum_energy[eps=2.0]"]
    assert rows["redefined_vacuum_energy_operator[eps=2.0]"] == pytest.approx(1.001 * additive, rel=1e-12)


def test_vacuum_warns_below_threshold(capsys):
    # cutoff*eps = 0.2 < pi/2: no negative modes possible, warning emitted
    assert run_cli(["vacuum", "--n-max", "2", "--eps", "0.1"]) == 0
    err = capsys.readouterr().err
    assert "WARNING" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_vacuum_keeps_its_notice_out_of_a_report_on_stdout(tmp_path, capsys, fmt):
    """Without --out the report alone is on stdout and the notice on stderr; with --out the
    notice is on stdout, as verify's PASS lines are, and stderr stays empty."""
    notice = (
        "WARNING eps=0.1: cutoff*|eps| = 0.100 <= pi/2; "
        "no mode can reach a negative split energy at this cutoff\n"
    )
    argv = ["vacuum", "--n-max", "1", "--eps", "0.1", "--format", fmt]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == notice
    if fmt == "json":
        assert json.loads(captured.out)["tables"]["spectrum"]
    out = tmp_path / f"vacuum.{fmt}"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == (notice, "")
    assert out.read_text() == captured.out


def test_kernel_report(tmp_path):
    out = tmp_path / "kernel.json"
    assert run_cli(["kernel", "--eps", "0.05", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (row,) = report["tables"]["kernel_asymptote"]
    assert 0.9 < row["eps_times_extrapolated"] < 1.1


def test_kernel_names_the_underflowed_default_eta(capsys):
    # every value passed is positive; only the derived eta = eps*eps is 0
    assert run_cli(["kernel", "--eps", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the default eta = eps*eps underflows to 0 at eps 1e-300; pass --eta\n"


def test_kernel_names_the_overflowed_default_eta(capsys):
    # every value passed is finite; only the derived eta = eps*eps is inf
    assert run_cli(["kernel", "--eps", "1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the default eta = eps*eps overflows to inf at eps 1e+200; pass --eta\n"


def test_kernel_names_the_overflowed_default_cutoff(capsys):
    # eta is given, so only the derived cutoff = max(1e4, 100/eps) is out of range;
    # the check comes before any quadrature
    assert run_cli(["kernel", "--eps", "1e-307", "--eta", "0.001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the default cutoff = max(1e4, 100/eps) overflows to inf at eps 1e-307; pass --cutoff\n"
    )


def test_importing_the_cli_does_not_load_scipy():
    # the kernel quadrature is numpy-only and reads pinned Gauss-Legendre tables, so
    # neither an import nor a kernel run loads numpy.polynomial; verify checks z-free
    # kernels and draws nothing, so neither verify nor vacuum loads numpy.random
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "import pointsplit.cli as cli\n"
        "loaded = lambda top: sorted(m for m in sys.modules if m == top or m.startswith(top + '.'))\n"
        "print(loaded('scipy'), loaded('numpy.polynomial'))\n"
        "for argv in (['verify', '--n-max', '1'], ['vacuum', '--n-max', '3', '--eps', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, loaded('numpy.random'), loaded('scipy'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['kernel', '--eps', '0.01'])\n"
        "print(code, loaded('scipy'), loaded('numpy.polynomial'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n0 [] []\n0 [] []\n0 [] []\n"


# one config per subcommand whose report reads spinor sandwiches or a quadrature sum
# vacuum just past eps = pi/2 walks all 2^22 states of n_max 5 through exact ties, kernel at
# eps 0.001 and 0.05 integrates along all three legs on graded panels, and verify at n_max 24
# read spinor_identities 3.331e-16 natively and 2.220e-16 under Nehalem while it called zdotc
CROSS_KERNEL_RUNS = [
    ["anomaly", "--n-max", "16", "--f-harmonic", "1:0.5:0"],
    ["kernel", "--eps", "0.3", "--eps", "0.9"],
    ["verify", "--n-max", "16", "--eps", "0.3", "--f-harmonic", "1:0.5:0"],
    ["vacuum", "--n-max", "5", "--eps", "1.5708"],
    ["kernel", "--eps", "0.001", "--eps", "0.05"],
    ["verify", "--n-max", "24", "--mass", "0.0032400388466084285", "--delta-p", "0.0017830873055899937"],
]


# the settings the byte-identity tests compare: neither variable set, numpy's AVX2 and AVX-512
# dispatch off, and OpenBLAS's Nehalem kernel, one without fused multiply-add
SETTINGS = {
    "native": {},
    "simd_off": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
}


def _reports_under(tmp_path, setting: dict[str, str], runs) -> list[tuple]:
    """(exit code, stderr, --out bytes or None) of each run, all in one fresh interpreter with the
    setting's environment variables set and the other SETTINGS variables unset, within 10 s."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import contextlib, io, json, sys\n"
        "import pointsplit.cli as cli\n"
        "results = []\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv + ['--out', f'{sys.argv[2]}/{i}.json'])\n"
        "    results.append([code, err.getvalue()])\n"
        "json.dump(results, sys.stdout)\n"
    )
    env = {k: v for k, v in os.environ.items() if not any(k in other for other in SETTINGS.values())}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(setting)
    argv = [sys.executable, "-c", code, json.dumps(runs), str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    outcomes = []
    for i, (code, err) in enumerate(json.loads(proc.stdout)):
        out = tmp_path / f"{i}.json"
        outcomes.append((code, err, out.read_bytes() if out.exists() else None))
    return outcomes


@pytest.fixture(scope="module")
def reports_under(tmp_path_factory):
    """reports_under(name, runs): the outcomes of runs, SIMD_RUNS or DRAWN_RUNS, under SETTINGS[name].
    One child per setting runs SIMD_RUNS + DRAWN_RUNS for all the byte-identity tests together."""
    outcomes = {}

    def under(name: str, runs) -> list[tuple]:
        if name not in outcomes:
            outcomes[name] = _reports_under(tmp_path_factory.mktemp(name), SETTINGS[name], SIMD_RUNS + DRAWN_RUNS)
        return outcomes[name][: len(SIMD_RUNS)] if runs is SIMD_RUNS else outcomes[name][len(SIMD_RUNS) :]

    return under


# numpy calls that may reach a BLAS kernel, whose rounding depends on the CPU it selects
_BLAS_CALLS = {"vdot", "dot", "inner", "outer", "matmul", "einsum", "tensordot"}


def _blas_calls(tree: ast.AST):
    """(line, text) of each np.<BLAS call>, .dot( call, np.linalg.* name and @ operator in tree, and
    of each import of one of these names from numpy."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            if node.attr in _BLAS_CALLS or node.attr == "linalg":
                yield node.lineno, f"np.{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
            yield node.lineno, ".dot("
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module == "numpy.linalg" or any(a.name in _BLAS_CALLS | {"linalg"} for a in node.names):
                yield node.lineno, f"from {node.module} import"


def test_the_package_calls_no_blas_kernel():
    """No module of the package calls a BLAS-backed numpy function, so no report bit depends on the
    BLAS kernel the CPU selects; the runs below sample that, this reads every line."""
    source = Path(cli.__file__).parent
    modules = sorted(source.glob("*.py"))
    assert {path.stem for path in modules} >= {"checks", "cli", "lattice", "modeops"}
    found = [
        f"{path.name}:{line}: {text}"
        for path in modules for line, text in _blas_calls(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_blas_scan_sees_every_form():
    code = "np.vdot(u, v)\nnp.linalg.norm(x)\nh @ u\nx @= y\na.dot(b)\nnumpy.einsum('i,i', a, b)\nnp.tensordot(a, b)\n"
    code += "from numpy import outer\nfrom numpy.linalg import norm\n"
    texts = [text for _, text in _blas_calls(ast.parse(code))]
    expected = ["np.vdot", "np.linalg", "@", "@", ".dot(", "np.einsum", "np.tensordot"]
    expected += ["from numpy import", "from numpy.linalg import"]
    assert sorted(texts) == sorted(expected)
    assert list(_blas_calls(ast.parse("np.abs(x).max()\nnp.sum(a * b)\nnp.take(a, b)\n"))) == []


def test_the_package_holds_no_code_that_only_tests_run():
    """Every function and method of the package is named somewhere in the package past its own
    def and __init__'s re-exports, or in a demo, or is the console script cli.entry, the argparse
    hook _Parser.error or a dunder.  Names are matched without types, so a method sharing its
    name with another name that is used passes."""
    package = Path(cli.__file__).parent
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in [*package.glob("*.py"), *(root / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exempt = {("cli", "entry"), ("cli", "error")}
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name not in used
        and (path.stem, node.name) not in exempt
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unused == []


def test_reports_are_byte_identical_under_another_blas_kernel(reports_under):
    """The reports do not depend on which OpenBLAS kernel the CPU selects: run
    natively and with OPENBLAS_CORETYPE=Nehalem (a kernel without fused
    multiply-add), every fixed run exits 0 and writes the same --out bytes.
    A BLAS that ignores the variable runs the same kernel twice and passes
    this trivially."""
    native = reports_under("native", SIMD_RUNS)
    assert [(code, out is not None) for code, _, out in native] == [(0, True)] * len(SIMD_RUNS)
    assert native == reports_under("nehalem", SIMD_RUNS)


# verify at small and large momenta and masses, where the split identities
# read the corrected current's cos and sin factors, and at n_max 64, where
# N = 258 spans two row blocks of verify's 1 MiB kernel budget
SIMD_RUNS = CROSS_KERNEL_RUNS + [
    ["verify", "--n-max", "3", "--mass", "2", "--eps", "0.7", "--eps", "1.9"],
    ["verify", "--n-max", "8", "--delta-p", "8", "--mass", "0.3", "--eps", "0.3", "--eps", "0.9"],
    ["verify", "--n-max", "64", "--eps", "0.3", "--eps", "0.9"],
    ["kernel", "--eps", "1e-4", "--eps", "10"],
    ["kernel", "--eps", "0.05", "--eta", "100"],
    ["kernel", "--eps", "2", "--eps", "3", "--mass", "2.5"],
]


def test_reports_are_byte_identical_with_numpy_simd_dispatch_off(reports_under):
    """The reports do not depend on which SIMD kernels numpy dispatches: run
    natively and with NPY_DISABLE_CPU_FEATURES naming numpy's AVX2 and AVX-512
    targets, every fixed run exits 0 and writes the same --out bytes.  The
    variable disables only what the host offers, so on a host without AVX-512
    the two runs use nearly the same kernels and this passes trivially."""
    off = reports_under("simd_off", SIMD_RUNS)
    assert [(code, out is not None) for code, _, out in off] == [(0, True)] * len(SIMD_RUNS)
    assert reports_under("native", SIMD_RUNS) == off


def _near_zero_eps(rng: random.Random, delta_p: float, n_max: int) -> float:
    """An eps near a zero of cos(p_j eps), (k + 1/2) pi / p_j for a drawn mode j and half-period k,
    moved off it by a drawn relative amount, none included."""
    j, k = rng.randint(1, n_max), rng.randint(0, 2)
    nudge = rng.choice([0.0, 1e-16, -1e-16, 1e-13, -1e-12, 1e-9, -1e-9])
    return (k + 0.5) * math.pi / (j * delta_p) * (1.0 + nudge)


def _drawn_runs(rng: random.Random, count: int) -> list[list[str]]:
    """count argvs over the five subcommands, in the property tests' ranges: lattices of mass 0.05-5
    or 1, 2, 1e10 and spacing 0.1-3 or 0.25, 1, 16, eps in [-3, 3] or near a zero of cos(p_j eps),
    smearings of up to three harmonics, and kernel eps, eta, cutoff and mass over decades."""
    runs = []
    for _ in range(count):
        # derive reads no input, so it is drawn a quarter as often as the others
        command = rng.choices(["verify", "anomaly", "vacuum", "kernel", "derive"], weights=[4, 4, 4, 4, 1])[0]
        argv = [command, f"--format={rng.choice(['json', 'csv'])}"]
        if command == "kernel":
            eps = {10 ** rng.uniform(-4, 1) for _ in range(rng.randint(1, 3))}
            if rng.random() < 0.5:
                argv.append(f"--eta={min(eps) * 10 ** rng.uniform(-1, 1)!r}")
            if rng.random() < 0.3:
                argv.append(f"--cutoff={10 ** rng.uniform(0, 4)!r}")
            if rng.random() < 0.5:
                argv.append(f"--mass={10 ** rng.uniform(-1, 1)!r}")
        elif command != "derive":
            n_max = rng.randint(1, {"verify": 8, "anomaly": 12, "vacuum": 6}[command])
            mass = rng.choice([rng.uniform(0.05, 5.0), 1.0, 2.0, 1e10])
            delta_p = rng.choice([rng.uniform(0.1, 3.0), 0.25, 1.0, 16.0])
            argv += [f"--n-max={n_max}", f"--mass={mass!r}", f"--delta-p={delta_p!r}"]
            draw = lambda: _near_zero_eps(rng, delta_p, n_max) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
            eps = {draw() for _ in range(rng.randint(1, 3))}
            if command == "anomaly" or (command == "verify" and rng.random() < 0.5):
                for n in rng.sample(range(2 * n_max + 1), rng.randint(1, 3)):
                    re_, im = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) if n else 0.0
                    argv.append(f"--f-harmonic={n}:{re_!r}:{im!r}")
        if command != "derive":
            argv += [f"--eps={x!r}" for x in sorted(eps)]
        runs.append(argv)
    return runs


DRAWN_RUNS = _drawn_runs(random.Random(20260), 200)


def test_drawn_reports_are_byte_identical_under_every_simd_and_blas_setting(reports_under):
    """Every report, exit code and error line of 200 argvs drawn from a fixed seed over all five
    subcommands is the same run natively, with numpy's AVX2 and AVX-512 dispatch off and under
    OpenBLAS's Nehalem kernel; the children run them after the fixed runs the two tests above
    check.  The three children take about 2.5 s together on a 2-vCPU x86-64 VM; each has 10 s,
    so the draw stays within a 30 s budget."""
    native = reports_under("native", DRAWN_RUNS)
    assert sum(out is not None for _, _, out in native) > len(DRAWN_RUNS) // 2  # most runs write a report
    off, nehalem = reports_under("simd_off", DRAWN_RUNS), reports_under("nehalem", DRAWN_RUNS)
    for argv, a, b, c in zip(DRAWN_RUNS, native, off, nehalem):
        assert a == b == c, argv


def test_kernel_above_eps_065_matches_the_bessel_limit(tmp_path):
    # with QAWO the damped value read 3.9e-22 at eps 1 and eps_times_extrapolated 1.105 at eps 2;
    # as eta -> 0 the kernel is m K1(m eps), here with m = 1
    from scipy.special import k1

    out = tmp_path / "kernel.json"
    assert run_cli(["kernel", "--eps", "1", "--eps", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tables"]["kernel_asymptote"]
    assert [row["eps"] for row in rows] == [1.0, 2.0]
    for row in rows:
        assert 0 < row["eps_times_extrapolated"] <= 1
        assert row["eps_times_extrapolated"] == pytest.approx(row["eps"] * k1(row["eps"]), rel=0.02)


def test_kernel_rows_take_five_integrals_per_eps_and_equal_the_public_functions(tmp_path, monkeypatch):
    # the damped column is the first of the extrapolation's five integrals, not a sixth
    calls = []
    integral = anomaly.damped_kernel_integral
    monkeypatch.setattr(anomaly, "damped_kernel_integral", lambda *args: calls.append(args) or integral(*args))
    out = tmp_path / "kernel.json"
    assert run_cli(["kernel", "--eps", "0.05", "--eps", "0.3", "--mass", "0.7", "--out", str(out)]) == 0
    assert len(calls) == 10
    for row in json.loads(out.read_text())["tables"]["kernel_asymptote"]:
        assert row["damped"] == integral(row["eps"], row["eta"], row["cutoff"], 0.7)
        assert row["extrapolated"] == anomaly.kernel_asymptote(row["eps"], m=0.7)[3]


def test_derive_golden_structure(tmp_path):
    out = tmp_path / "derive.json"
    assert run_cli(["derive", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = report["tables"]["derivation"]
    finals = {r["pipeline"]: r["expression"] for r in rows if r["step"] == "final"}
    assert finals["coincident"] == "0"
    assert "psi+(z+e).sx.psi(z)" in finals["split"]
    assert "f'(z)" in finals["split"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_derive_report_is_pinned_byte_for_byte(tmp_path, fmt):
    """All ten rows of derive, every step of both pipelines, in the exact bytes it writes."""
    out = tmp_path / f"derive.{fmt}"
    assert run_cli(["derive", "--format", fmt, "--out", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"derive.{fmt}"
    assert out.read_bytes() == golden.read_bytes()


def test_every_benchmark_report_matches_its_pinned_digests():
    """Every ladder call at seeds 1-10, in JSON and CSV with --out, writes the report, exit code,
    stdout and stderr whose digests tests/golden/make_reports.py pinned."""
    pinned = json.loads(make_reports.GOLDEN.read_text())
    runs = make_reports.measure()
    assert sorted(runs) == sorted(pinned["runs"])
    moved = [
        f"{argv}: " + ", ".join(key for key in digests if digests[key] != pinned["runs"][argv][key])
        for argv, digests in runs.items()
        if digests != pinned["runs"][argv]
    ]
    numpy_note = []
    if np.__version__ != pinned["numpy"]:
        numpy_note = [f"numpy is {np.__version__}, the digests were taken with numpy {pinned['numpy']}"]
    assert not moved, "\n".join(numpy_note + [f"{len(moved)} of {len(runs)} calls moved:"] + moved)


# one call of every subcommand, and every row-building path: anomaly's empty continuum
# table at eps 0, vacuum below and above the brute-force enumeration bound
SCHEMA_CALLS = [
    ["verify", "--n-max", "1"],
    ["anomaly", "--n-max", "2", "--f-harmonic", "1:0.5:0", "--eps", "0"],
    ["anomaly", "--n-max", "2", "--f-harmonic", "1:0.5:0", "--eps", "0.1"],
    ["vacuum", "--n-max", "3", "--eps", "2"],
    ["vacuum", "--n-max", "16", "--eps", "2"],
    ["kernel", "--eps", "0.01", "--eps", "0.1"],
    ["derive"],
]


def test_csv_emission(tmp_path):
    """JSON and CSV carry one schema: the same tables, each JSON row keyed by exactly the table's
    _COLUMNS, which head its CSV section, and each CSV cell _csv_cell of the JSON value."""
    empty = []
    for argv in SCHEMA_CALLS:
        reports = {}
        for fmt in ("json", "csv"):
            out = tmp_path / f"report.{fmt}"
            assert run_cli(argv + ["--format", fmt, "--out", str(out)]) == 0, argv
            reports[fmt] = out.read_text()
        tables = json.loads(reports["json"])["tables"]
        first, *sections = reports["csv"].split("# table: ")
        assert first == "", argv
        csv_tables = {}
        for section in sections:
            name, header, body = (section.rstrip("\n") + "\n").split("\n", 2)
            assert header.split(",") == cli._COLUMNS[name], (argv, name)
            assert all(len(cells) == len(cli._COLUMNS[name]) for cells in csv.reader(io.StringIO(body))), (argv, name)
            csv_tables[name] = body
        assert sorted(csv_tables) == sorted(tables), argv
        for name, rows in tables.items():
            cols = cli._COLUMNS[name]
            assert all(sorted(row) == sorted(cols) for row in rows), (argv, name)
            cells = "".join(",".join(cli._csv_cell(row[c]) for c in cols) + "\n" for row in rows)
            assert csv_tables[name] == cells, (argv, name)
            if not rows:
                empty.append((argv, name))
                assert f"# table: {name}\n{','.join(cols)}\n\n" in reports["csv"]
    assert empty == [(SCHEMA_CALLS[1], "continuum")]


def test_readme_states_the_frozen_columns_of_cli():
    """README's table of frozen column names is cli._COLUMNS: every table, in order, with its columns in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("names are frozen:") :].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    stated = {name.strip(" `"): [col.strip() for col in cols.strip(" `").split(",")] for name, cols in rows}
    assert list(stated.items()) == list(cli._COLUMNS.items())


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(
        json.dumps({"n_max": 3, "eps": [2.0], "f_harmonics": [[1, 0.5, 0.0]], "mass": 1.0})
    )
    out = tmp_path / "rep.json"
    code = run_cli(["anomaly", "--config", str(cfg_file), "--n-max", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["n_max"] == 2  # flag wins
    assert report["config"]["eps"] == [2.0]  # file survives where no flag given


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"masss": 1.0}))
    assert run_cli(["verify", "--config", str(cfg_file)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_runconfig_echo_excludes_output_path(tmp_path):
    cfg = RunConfig(out=str(tmp_path / "x.json"))
    assert "out" not in cfg.to_dict()


@pytest.mark.parametrize(
    "argv, err",
    [
        # the id says what leaves the float range; the error line names the run's inputs
        pytest.param(
            ["vacuum", "--delta-p", "1e306", "--n-max", "64"],
            "the vacuum run leaves the float range at mass=1.0, delta_p=1e+306, n_max=64, eps=[0.3]",
            id="argv0-the redefined vacuum energy leaves the float range",
        ),
        pytest.param(
            ["vacuum", "--delta-p", "1e307", "--n-max", "17"],
            "the vacuum run leaves the float range at mass=1.0, delta_p=1e+307, n_max=17, eps=[0.3]",
            id="argv1-the redefined vacuum energy leaves the float range",
        ),
        pytest.param(
            ["anomaly", "--delta-p", "1e307", "--n-max", "8", "--f-harmonic", "1:0.5:0"],
            "the anomaly run leaves the float range at "
            "mass=1.0, delta_p=1e+307, n_max=8, eps=[0.3], f_harmonics=[(1, 0.5, 0.0)]",
            id="argv2-the integral of f'(z)^2 leaves the float range",
        ),
        pytest.param(
            ["vacuum", "--delta-p", "1e307", "--n-max", "5"],
            "the vacuum run leaves the float range at mass=1.0, delta_p=1e+307, n_max=5, eps=[0.3]",
            id="argv3-a state's energy leaves the float range",
        ),
        pytest.param(
            ["verify", "--delta-p", "1e307", "--n-max", "2"],
            "the verify run leaves the float range at "
            "mass=1.0, delta_p=1e+307, n_max=2, eps=[0.3], f_harmonics=[(1, 0.5, 0.0)]",
            id="argv4-the verify kernels leave the float range",
        ),
        pytest.param(
            ["anomaly", "--n-max", "8", "--f-harmonic", "1:1e300:1e300", "--f-harmonic", "2:0.5:0"],
            "the anomaly run leaves the float range at "
            "mass=1.0, delta_p=1.0, n_max=8, eps=[0.3], f_harmonics=[(1, 1e+300, 1e+300), (2, 0.5, 0.0)]",
            id="argv5-the direct route's <0|[F,[H,F]]|0> leaves the float range",
        ),
        pytest.param(
            ["anomaly", "--n-max", "2", "--f-harmonic", "1:1e154:0", "--eps", "0", "--format", "csv"],
            "the anomaly run leaves the float range at "
            "mass=1.0, delta_p=1.0, n_max=2, eps=[0.0], f_harmonics=[(1, 1e+154, 0.0)]",
            id="argv6-the direct route's <0|[F,[H,F]]|0> leaves the float range",
        ),
        (
            ["vacuum", "--n-max", "1", "--delta-p", "1e308", "--eps", "2"],
            "the phase p * eps leaves the float range at eps=2.0, delta_p=1e+308, n_max=1",
        ),
        (
            ["anomaly", "--n-max", "1", "--delta-p", "1e308", "--f-harmonic", "1:0.5:0", "--eps", "2"],
            "the phase k_n * g leaves the float range at harmonic 1, g=2.0, delta_p=1e+308",
        ),
        (
            ["anomaly", "--n-max", "14", "--delta-p", "1e307", "--f-harmonic", "1:0.5:0", "--eps", "2"],
            "the phase p * eps leaves the float range at eps=2.0, delta_p=1e+307, n_max=14",
        ),
        (
            ["vacuum", "--mass", "1e308", "--n-max", "1", "--eps", "2"],
            "the vacuum run leaves the float range at mass=1e+308, delta_p=1.0, n_max=1, eps=[2.0]",
        ),
        (
            ["anomaly", "--mass", "1e308", "--n-max", "2", "--f-harmonic", "1:0.5:0"],
            "the anomaly run leaves the float range at "
            "mass=1e+308, delta_p=1.0, n_max=2, eps=[0.3], f_harmonics=[(1, 0.5, 0.0)]",
        ),
    ]
    + [
        (
            ["verify", "--mass", "1e308", "--n-max", "1", *out],
            "the verify run leaves the float range at "
            "mass=1e+308, delta_p=1.0, n_max=1, eps=[0.3], f_harmonics=[(1, 0.5, 0.0)]",
        )
        for out in ([], ["--out=report.json"], ["--format=csv", "--out=report.csv"])
    ],
)
def test_a_sum_past_the_float_range_exits_2_naming_the_inputs(tmp_path, monkeypatch, capsys, argv, err):
    """The cutoff fits the float range, but a sum the run forms does not: the
    vacuum's additive energy, the brute force's positive energies, the
    smearing's integral of f'^2, a verify kernel or residual, the direct
    anomaly route, or a phase p * eps or k_n * g.  A phase is an input check
    with its own message; everything else is main's one line."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"
    assert list(tmp_path.iterdir()) == []


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# mostly values a run can use, so that most runs reach the computation; one
# draw in eight is any float at all, nan, infinities and negatives included
_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])
_FLOATS = st.integers(0, 7).flatmap(lambda i: _ANY_FLOAT if i == 0 else st.floats(0.05, 4.0))
_JUNK = st.none() | st.booleans() | st.text(max_size=2) | st.lists(st.integers(), max_size=2)


@st.composite
def _runs(draw):
    """A subcommand plus run values, each given as a flag or through a config file."""
    command = draw(st.sampled_from(["vacuum", "anomaly", "kernel", "derive", "verify"]))
    n_max = 1 if command == "verify" else draw(st.integers(1, 3))
    values = {"n_max": n_max, "eps": draw(st.lists(_FLOATS, max_size=2))}
    for key in ("mass", "delta_p", "eta", "cutoff"):
        if draw(st.booleans()):
            values[key] = draw(_FLOATS)
    harmonic = st.tuples(st.integers(0, 2 * n_max + 1), _FLOATS, _FLOATS)
    values["f_harmonics"] = draw(st.lists(harmonic, min_size=command == "anomaly", max_size=2))
    in_file = {key: values.pop(key) for key in draw(st.sets(st.sampled_from(sorted(values))))}
    junk = draw(st.sets(st.sampled_from(sorted(in_file)), max_size=1)) if in_file else set()
    in_file.update({key: draw(_JUNK) for key in junk})
    return command, values, in_file


def _argv(command, values):
    argv = [command]
    for key, value in values.items():
        if key == "eps":
            argv += [f"--eps={x!r}" for x in value]
        elif key == "f_harmonics":
            argv += [f"--f-harmonic={n}:{re!r}:{im!r}" for n, re, im in value]
        else:
            argv.append(f"--{key.replace('_', '-')}={value!r}")
    return argv


@given(_runs())
@settings(max_examples=120, deadline=None)
def test_every_input_ends_in_a_report_or_one_error_line(run):
    command, values, in_file = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        argv = _argv(command, values) + [f"--out={out}"]
        if in_file:
            (Path(tmp) / "run.json").write_text(json.dumps(in_file))
            argv.append(f"--config={Path(tmp) / 'run.json'}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        stderr = err.getvalue()
        assert stderr == "" or (stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n"))
        # a run either writes a strict-JSON report or explains itself on stderr
        assert out.exists() == (stderr == "")
        if out.exists():
            json.loads(out.read_text(), parse_constant=_no_constant)


_INPUT_NAMES = ("delta_p", "n_max", "harmonic", "eps", "mass", "cutoff")
# what numpy, math, cmath, float ** and the json encoder say on their own, without naming an input
_BARE_MESSAGES = (
    "encountered in",
    "Numerical result out of range",
    "math domain error",
    "math range error",
    "absolute value too large",
    "too large to convert",
    "JSON compliant",
)


def _powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


@st.composite
def _runs_at_the_float_range(draw):
    """A run whose mass, spacing, lattice, smearing amplitudes and shifts reach the ends of the float range."""
    command = draw(st.sampled_from(["verify", "anomaly", "vacuum", "kernel", "derive"]))
    n_max = draw(st.integers(1, 16 if command == "verify" else 64))
    scale = _powers_of_ten(-3, 308) | st.sampled_from([1e306, 1e307, 1e308])
    mass, delta_p = draw(scale), draw(scale)
    amplitude = _powers_of_ten(-300, 300) | st.sampled_from([0.0, 0.5, 1e154, 1e300, -1e300])
    harmonic = st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), amplitude, amplitude if n else st.just(0.0)))
    harmonics = draw(st.lists(harmonic, min_size=command == "anomaly", max_size=3))
    eps = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 2.0]) | _powers_of_ten(-300, 300), max_size=2))
    argv = [command, f"--n-max={n_max}", f"--mass={mass!r}", f"--delta-p={delta_p!r}"]
    argv.append(f"--format={draw(st.sampled_from(['json', 'csv']))}")
    return argv + [f"--f-harmonic={n}:{re!r}:{im!r}" for n, re, im in harmonics] + [f"--eps={x!r}" for x in eps]


@given(_runs_at_the_float_range())
@settings(max_examples=500, deadline=None)
def test_a_run_at_the_float_range_names_its_input_or_reports_finite_numbers(argv):
    """An exit 2 names the input that drove the arithmetic out of range, never in numpy's, math's
    or the JSON encoder's own words, a float-range line names every input its command reads, and
    a report holds no inf or nan."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + [f"--out={out}"])
        stderr = err.getvalue()
        if code == 2:
            assert any(name in stderr for name in _INPUT_NAMES), stderr
            assert not any(bare in stderr for bare in _BARE_MESSAGES), stderr
            # past the input checks that reject a phase or a quadrature input, main's line names the inputs
            if "float range" in stderr and not re.match(r"error: the (phase|kernel quadrature) ", stderr):
                assert all(f"{name}=" in stderr for name in cli._COMMANDS[argv[0]].reads), stderr
        elif out.exists():  # an internal invariant that fails writes no report
            tokens = set(re.split(r"[\s,:\[\]{}]+", out.read_text()))
            assert not tokens & {"inf", "-inf", "nan", "Infinity", "-Infinity", "NaN"}, tokens

