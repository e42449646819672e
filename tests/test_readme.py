"""The README's examples run as written: its Python block executes, each
`$ agcodes ...` example prints the lines shown (a `...` line ends the
comparison), and the package namespace exports what the block imports plus
what the benchmark reads."""

import re
import shlex
from pathlib import Path

import pytest

import agcodes
from agcodes.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
EXAMPLES = [body for _, body in BLOCKS if body.startswith("$ agcodes ")]


def test_python_block_runs():
    code = [body for lang, body in BLOCKS if lang == "python"]
    assert len(code) == 1
    exec(compile(code[0], str(README), "exec"), {})


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda body: body.splitlines()[0][2:])
def test_cli_example(capsys, example):
    command, *shown = example.splitlines()
    argv = shlex.split(command)[2:]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if "..." in shown:
        shown = shown[: shown.index("...")]
        out = out[: len(shown)]
    assert out == shown


def test_package_exports_what_the_readme_and_benchmark_use():
    # every other name is imported from its submodule
    assert sorted(agcodes.__all__) == [
        "CapExceeded",
        "CodeParams",
        "LinearCode",
        "build",
        "build_grassmann_code",
        "cell_restriction_compare",
        "enumerate_group",
        "min_distance",
        "min_distance_formula",
        "min_weight_codewords",
        "min_weight_witness",
        "weight_distribution",
    ]
    assert all(hasattr(agcodes, name) for name in agcodes.__all__)
