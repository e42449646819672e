"""Command line behavior: golden outputs, byte determinism, JSON structure,
exit codes, and file output."""

import json
import os
import resource
import subprocess
import sys

import pytest

import agcodes
from agcodes import cli, code, grassmann, matrices, minors, verify
from agcodes.cli import main
from agcodes.code import build


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_text_golden(capsys):
    code, out, err = run(capsys, "params", "--q", "2", "--l", "2", "--lp", "2")
    assert code == 0 and err == ""
    assert out == (
        "q                 2\n"
        "l                 2\n"
        "lp                2\n"
        "n                 16\n"
        "k                 6\n"
        "d                 6\n"
        "min_weight_count  16\n"
        "group_order       96\n"
        "stabilizer_order  6\n"
    )


def test_params_refuses_a_group_order_too_long_to_print(capsys, monkeypatch):
    """lp = 2000 took 31 s in the closed forms before failing to print; it
    is refused before any of them runs.  At lp = 119 the group order has
    4299 digits and prints."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code, out, err = run(capsys, "params", "--q", "2", "--l", "1", "--lp", "119")
    assert (code, err) == (0, "")
    assert len(out.splitlines()[7].split()[1]) == 4299

    def computed(p):
        raise AssertionError("a closed form ran before the refusal")

    for name in ("dimension_formula", "min_distance_formula", "min_weight_count_formula",
                 "group_order_formula", "stabilizer_order_formula"):
        monkeypatch.setattr(cli, name, computed)
    code, out, err = run(capsys, "params", "--q", "2", "--l", "1", "--lp", "2000")
    assert (code, out) == (2, "")
    assert err == (
        "error: the group order of CodeParams(q=2, l=1, lp=2000) has 1204722 digits, above the "
        "interpreter's 4300-digit limit for printing an integer (sys.get_int_max_str_digits())\n"
    )


def test_params_json(capsys):
    code, out, err = run(capsys, "params", "--q", "3", "--l", "1", "--lp", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "q": 3,
        "l": 1,
        "lp": 2,
        "n": 9,
        "k": 3,
        "d": 6,
        "min_weight_count": 24,
        "group_order": 432,
        "stabilizer_order": 18,
    }


def test_build_text_golden(capsys):
    code, out, err = run(capsys, "build", "--q", "2", "--l", "1", "--lp", "1")
    assert code == 0
    assert out == "2 1 1 2 2\n1 1\n0 1\n"


def test_build_json_structure(capsys):
    code, out, err = run(capsys, "build", "--q", "2", "--l", "2", "--lp", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "2^1"
    assert data["basis"][0] == "-|-"
    assert data["basis"][-1] == "1,2|1,2"
    assert len(data["rows"]) == 6 and len(data["rows"][0]) == 16


def test_build_l_zero_is_the_constant_code(capsys):
    code, out, err = run(capsys, "build", "--q", "2", "--l", "0", "--lp", "2", "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert (data["n"], data["k"]) == (1, 1)
    assert data["basis"] == ["-|-"] and data["rows"] == [[1]]


def test_mindist_and_check(capsys):
    code, out, err = run(capsys, "mindist", "--q", "2", "--l", "2", "--lp", "2")
    assert (code, out) == (0, "6\n")
    code, out, err = run(capsys, "mindist", "--q", "2", "--l", "2", "--lp", "3", "--check")
    assert (code, out) == (0, "24\n")


def test_outputs_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "weightdist", "--q", "2", "--l", "2", "--lp", "2")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    first = runs[0].splitlines()[0]
    assert first == "0 1"


def test_threads_option_is_gone(capsys):
    # scans run in one thread; the old option is now an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["weightdist", "--q", "2", "--l", "2", "--lp", "2", "--threads", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--threads" in captured.err


def test_weightdist_json(capsys):
    code, out, err = run(capsys, "weightdist", "--q", "3", "--l", "1", "--lp", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert sum(data["weights"].values()) == 9


def test_minwords_verify(capsys):
    code, out, err = run(capsys, "minwords", "--q", "2", "--l", "1", "--lp", "2", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "6"
    assert len(lines) == 7
    assert all(w.count("1") == 2 for w in lines[1:])


@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 2, 2), (3, 1, 2), (11, 1, 2)], ids=str)
def test_minwords_streams_what_joining_would_print(capsys, tmp_path, shape):
    """minwords writes a word at a time, to stdout or --out, byte for byte
    the output of joining every line first; q = 11 has two-digit entries."""
    args = [f"--{name}={value}" for name, value in zip(("q", "l", "lp"), shape)]
    words = [list(w) for w in code.min_weight_codewords(build(agcodes.CodeParams(*shape)))]
    joined = {
        "text": "\n".join([str(len(words))] + [" ".join(str(x) for x in w) for w in words]) + "\n",
        "json": cli._json({"count": len(words), "words": words}),
    }
    for fmt, expected in joined.items():
        assert run(capsys, "minwords", *args, "--format", fmt) == (0, expected, "")
        out = tmp_path / f"{fmt}.out"
        assert run(capsys, "minwords", *args, "--format", fmt, "--out", str(out)) == (0, "", "")
        assert out.read_text(encoding="utf-8") == expected


def test_minwords_over_the_points_cap_exits_2(capsys):
    """Under a points cap of 200, (2,2,2) builds (k·n = 96) and scans, and
    its minimum words (256 entries) are refused with exit 2: the cap named
    on stderr, no traceback, nothing on stdout."""
    src = os.path.dirname(os.path.dirname(agcodes.__file__))
    env = {**os.environ, "AGCODES_POINTS_CAP": "200", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "agcodes", "minwords", "--q", "2", "--l", "2", "--lp", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource cap: listing the minimum weight words of ")
    assert "needs 256 points, above the cap 200 (override with AGCODES_POINTS_CAP)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_autocheck(capsys):
    code, out, err = run(
        capsys, "autocheck", "--q", "2", "--l", "2", "--lp", "2", "--trials", "20", "--seed", "1"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "cauchy-binet" in out


def test_autocheck_rejects_trials_below_one(capsys, monkeypatch):
    def no_suite(name, body):
        raise RuntimeError(f"suite {name} ran")

    monkeypatch.setattr(verify, "_check", no_suite)
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "autocheck", "--q", "2", "--l", "2", "--lp", "2", "--trials", trials)
        assert (code, out) == (2, "")
        assert f"need trials >= 1, got {trials}" in err


def test_autocheck_rejects_trials_above_the_bound(capsys, monkeypatch):
    def no_suite(name, body):
        raise RuntimeError(f"suite {name} ran")

    monkeypatch.setattr(verify, "_check", no_suite)
    trials = str(verify.MAX_TRIALS + 1)
    code, out, err = run(capsys, "autocheck", "--q", "2", "--l", "2", "--lp", "2", "--trials", trials)
    assert (code, out) == (2, "")
    assert f"need trials <= {verify.MAX_TRIALS}, got {trials}" in err


def test_autocheck_rejects_l_zero_before_a_suite_runs(capsys, monkeypatch):
    def no_suite(name, body):
        raise RuntimeError(f"suite {name} ran")

    monkeypatch.setattr(verify, "_check", no_suite)
    code, out, err = run(capsys, "autocheck", "--q", "2", "--l", "0", "--lp", "2")
    assert (code, out) == (2, "")
    assert "the identity suites need l >= 1, got l=0" in err


def test_autocheck_and_criterion_6_share_suites(capsys, monkeypatch):
    # a broken specialization plan, which every specialization reads, must
    # fail the weight partition suite in both callers, with a detail naming
    # the parameters: a plan with no terms makes every specialization zero
    monkeypatch.setattr(minors, "_specialization_plan", lambda l, lp, line, is_row: ((), ()))
    code, out, err = run(capsys, "autocheck", "--q", "2", "--l", "2", "--lp", "2", "--trials", "20")
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "ok substitution-pointwise",
        "ok permutation-consistency",
        "FAIL weight-partition",
        "ok locus-affine",
        "ok cauchy-binet",
        "ok witness-vs-scan",
    ]
    assert lines[2].startswith("FAIL weight-partition: CodeParams(q=2, l=2, lp=2): row 1 weight partition fails")
    res = verify.check_algebra_identities()
    assert not res.ok
    assert res.detail.startswith("CodeParams(q=2, l=1, lp=1): row 1 weight partition fails")


def test_grassmann_output(capsys):
    code, out, err = run(capsys, "grassmann", "--l", "1", "--m", "2", "--q", "2", "--compare-cell")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n 3"
    assert lines[1] == "k 2"
    assert lines[2] == "cell 2"
    assert len(lines) == 5

    code, out, err = run(
        capsys,
        "grassmann", "--l", "2", "--m", "4", "--q", "2", "--mindist", "--compare-cell",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["k"], data["d"], data["cell_size"]) == (35, 6, 16, 16)
    assert len(data["matches"]) == 6


def test_a_failed_cell_comparison_exits_1(capsys, monkeypatch):
    """VerificationError maps to exit 1 and its reason on stderr, though the
    CLI imports grassmann only inside the subcommand."""
    def mismatch(l, m, gf):
        raise grassmann.VerificationError("restricted row 0 matches no affine row")

    monkeypatch.setattr(grassmann, "cell_restriction_compare", mismatch)
    code, out, err = run(capsys, "grassmann", "--l", "2", "--m", "4", "--q", "2", "--compare-cell")
    assert (code, out) == (1, "")
    assert err == "verification failed: restricted row 0 matches no affine row\n"
    assert grassmann.VerificationError is agcodes.limits.VerificationError


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, err = run(capsys, "build", "--q", "2", "--l", "1", "--lp", "2")
    assert code == 0
    target = tmp_path / "gen.txt"
    code2 = main(["build", "--q", "2", "--l", "1", "--lp", "2", "--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


def test_out_file_that_cannot_be_written_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "gen.txt"
    code, out, err = run(capsys, "build", "--q", "2", "--l", "1", "--lp", "1", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_verify_all_focused(capsys):
    code, out, err = run(capsys, "verify-all", "--q", "2", "--l", "1", "--lp", "2")
    assert code == 0
    assert out.count("PASS") == 3

    code, out, err = run(capsys, "verify-all", "--q", "2")
    assert code == 2
    assert "needs all" in err


def test_verify_all_json(capsys, monkeypatch):
    keys = ["detail", "elapsed", "name", "number", "ok"]
    code, out, err = run(capsys, "verify-all", "--q", "2", "--l", "1", "--lp", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [sorted(row) for row in rows] == [keys] * 3
    assert [(row["number"], row["name"], row["ok"]) for row in rows] == [
        (1, "dimensions", True),
        (2, "blind-min-distance", True),
        (3, "min-weight-census", True),
    ]

    # the whole acceptance run, with criterion 3 replaced by a failing check
    def broken():
        return verify.CheckResult("broken", False, "a named failure", 0.5)

    monkeypatch.setattr(
        verify, "ACCEPTANCE", ((1, verify.check_example_code), (3, broken), (8, verify.check_formula_grid))
    )
    code, out, err = run(capsys, "verify-all", "--format", "json")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert [sorted(row) for row in rows] == [keys] * 3
    assert [row["number"] for row in rows] == [1, 3, 8]
    assert rows[1] == {"number": 3, "name": "broken", "ok": False, "detail": "a named failure", "elapsed": 0.5}
    assert out.splitlines()[1] == '{"detail":"a named failure","elapsed":0.5,"name":"broken","number":3,"ok":false}'
    assert list(broken()._asdict()) == ["name", "ok", "detail", "elapsed"]
    assert rows[0]["ok"] and rows[2]["ok"] and isinstance(rows[0]["elapsed"], float)


def test_error_exit_codes(capsys):
    code, out, err = run(capsys, "params", "--q", "6", "--l", "1", "--lp", "1")
    assert code == 2
    assert "prime power" in err

    code, out, err = run(capsys, "params", "--q", "2", "--l", "3", "--lp", "2")
    assert code == 2
    assert "transposed" in err

    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cap_variable_must_be_a_positive_integer(capsys, monkeypatch):
    build.cache_clear()  # a cached code would answer without scanning
    for raw in ("abc", "0"):
        monkeypatch.setenv("AGCODES_MESSAGES_CAP", raw)
        code, out, err = run(capsys, "mindist", "--q", "2", "--l", "2", "--lp", "2")
        assert (code, out) == (2, "")
        assert err == f"error: AGCODES_MESSAGES_CAP must be a positive integer, got '{raw}'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mindist", "--q", "4", "--l", "3", "--lp", "3"],
        ["weightdist", "--q", "2", "--l", "4", "--lp", "4"],
        ["minwords", "--q", "4", "--l", "3", "--lp", "3"],
        ["grassmann", "--q", "2", "--l", "2", "--m", "8", "--mindist"],
        ["verify-all", "--q", "4", "--l", "3", "--lp", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_oversized_scans_are_refused_before_building(capsys, monkeypatch, argv):
    def no_build(*args):
        raise RuntimeError("built a generator for a scan over the cap")

    for module in (cli, verify, code):
        monkeypatch.setattr(module, "build", no_build)
    for module in (code, grassmann, matrices):
        monkeypatch.setattr(module, "batch_minors", no_build)
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("resource cap: scanning ") and "messages, above the cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mindist", "--q", "2", "--l", "20", "--lp", "20"],
        ["weightdist", "--q", "2", "--l", "20", "--lp", "20"],
        ["verify-all", "--q", "2", "--l", "20", "--lp", "20"],
        ["grassmann", "--q", "2", "--l", "20", "--m", "40", "--mindist"],
    ],
    ids=lambda argv: argv[0],
)
def test_scans_of_a_huge_dimension_are_refused_on_k_alone(argv):
    """k = C(40, 20) = 137846528820, so 2^k would be an integer of 17 GB.
    The points cap is raised past 2^400 so that the affine commands reach the
    messages check.  The command runs in a child process with 1 GiB of
    address space, so computing the power fails the test instead of taking
    the host's memory."""
    src = os.path.dirname(os.path.dirname(agcodes.__file__))
    env = {**os.environ, "AGCODES_POINTS_CAP": str(2**400), "PYTHONPATH": src}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "agcodes", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource cap: scanning ")
    assert "needs 2^137846528820 messages, above the cap" in proc.stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        (["params", "--q", "1000000000000000003", "--l", "1", "--lp", "1"], "error: field order "),
        (["build", "--q", "2", "--l", "1", "--lp", "10000000000"], "needs 2^10000000000 points"),
        (["mindist", "--q", "2", "--l", "1", "--lp", "10000000000"], "needs 2^10000000000 points"),
        (["weightdist", "--q", "2", "--l", "1", "--lp", "10000000000"], "needs 2^10000000000 points"),
        (["minwords", "--q", "2", "--l", "1", "--lp", "10000000000"], "needs 2^10000000000 points"),
        (["verify-all", "--q", "2", "--l", "1", "--lp", "10000000000"], "needs 2^10000000000 points"),
        (["grassmann", "--l", "1", "--m", "10000000000", "--q", "2"], "needs 2^9999999999 points"),
        (["grassmann", "--l", "1", "--m", "100000000", "--q", "2"], "needs 2^99999999 points"),
        (["grassmann", "--l", "100000", "--m", "100000", "--q", "2"], "needs 2^99999 points"),
        (["grassmann", "--l", "10000000000", "--m", "10000000000", "--q", "2"], "needs 10000000000 points"),
        (["grassmann", "--l", "0", "--m", "10000000000", "--q", "2"], "needs 10000000000 points"),
        (["autocheck", "--q", "2", "--l", "1", "--lp", "100000"], "needs 2^100000 points"),
        (["autocheck", "--q", "2", "--l", "1", "--lp", "30"], "needs 2^30 points"),
    ],
    ids=[
        "params", "build", "mindist", "weightdist", "minwords", "verify-all",
        "grassmann-m-1e10", "grassmann-m-1e8", "grassmann-l-m-1e5", "grassmann-l-m-1e10", "grassmann-l-0-m-1e10",
        "autocheck-lp-100000", "autocheck-lp-30",
    ],
)
def test_oversized_inputs_are_refused_before_any_work(argv, message):
    """q above 2^32 is refused before trial division, a point count on its
    exponent before the power is computed, and a Grassmann space with l = 0
    or l = m on its m coordinates or its 2^(m-1) kept sub-minors, in a child
    process with 1 GiB of address space: exit 2, the reason on stderr, no
    traceback."""
    src = os.path.dirname(os.path.dirname(agcodes.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("AGCODES_POINTS_CAP", None)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "agcodes", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_package_imports_without_dataclasses():
    """Start-up loads neither dataclasses nor inspect, its largest import:
    a fresh interpreter without the site module (whose own imports could
    hide one) imports the package, the CLI and the acceptance checks."""
    src = os.path.dirname(os.path.dirname(agcodes.__file__))
    probe = "import sys, agcodes, agcodes.cli, agcodes.verify; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_scan_loads_neither_group_grassmann_nor_verify():
    """In a fresh interpreter, importing the package and running a scan
    through the CLI leave group, grassmann and verify unloaded; the lazy
    names then load their submodule and bind its objects."""
    src = os.path.dirname(os.path.dirname(agcodes.__file__))
    probe = """
import sys, agcodes
from agcodes import cli
idle = {"agcodes.grassmann", "agcodes.group", "agcodes.verify"}
loaded = [sorted(idle & set(sys.modules))]
assert cli.main(["mindist", "--q", "2", "--l", "2", "--lp", "2"]) == 0
loaded.append(sorted(idle & set(sys.modules)))
assert set(agcodes.__all__) <= set(dir(agcodes))
assert agcodes.enumerate_group is agcodes.group.enumerate_group
assert agcodes.min_weight_witness is agcodes.group.min_weight_witness
assert agcodes.build_grassmann_code is agcodes.grassmann.build_grassmann_code
assert agcodes.cell_restriction_compare is agcodes.grassmann.cell_restriction_compare
try:
    agcodes.no_such_name
except AttributeError as exc:
    loaded.append(str(exc))
print(loaded)
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    expected = [[], [], "module 'agcodes' has no attribute 'no_such_name'"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"6\n{expected}\n", "")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from agcodes import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(agcodes.__all__)
    assert len(agcodes.__all__) == 12


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "agcodes" in out
