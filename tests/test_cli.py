"""Command line behavior: golden outputs, byte determinism, JSON structure,
exit codes, and file output."""

import json

import pytest

from agcodes import verify
from agcodes.cli import main
from agcodes.minors import MinorCombination


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


def test_autocheck_and_criterion_6_share_suites(capsys, monkeypatch):
    # a broken row specialization inside verify must fail the weight
    # partition suite in both callers, with a detail naming the parameters
    monkeypatch.setattr(verify, "specialize_row", lambda f, i, a: MinorCombination.zero(f.params))
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


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, err = run(capsys, "build", "--q", "2", "--l", "1", "--lp", "2")
    assert code == 0
    target = tmp_path / "gen.txt"
    code2 = main(["build", "--q", "2", "--l", "1", "--lp", "2", "--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


def test_verify_all_focused(capsys):
    code, out, err = run(capsys, "verify-all", "--q", "2", "--l", "1", "--lp", "2")
    assert code == 0
    assert out.count("PASS") == 3

    code, out, err = run(capsys, "verify-all", "--q", "2")
    assert code == 2
    assert "needs all" in err


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


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "agcodes" in out
