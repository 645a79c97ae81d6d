"""The README's library snippet runs as printed and gives the values its
comments state, and its CLI examples exit as it says."""

import ast
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

from avw.algebra import element_str
from avw.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_gives_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    values = {}  # source text of each bare expression -> its value
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert element_str(values["bracket_gens(d(2), d(-2))"]) == "-4*d_0 - 1/2*C"
    image = values["act(IntAB(F(1, 2), F(1, 3)), d(2), Vec.basis(0))"]
    assert image.terms == {2: F(7, 6)}
    assert values["m.weight_space_dim(1, 0)"] == 3
    singular = values["[sv for sv in m.find_singular_vectors(0)]"]
    assert [(sv.depth, sv.charge) for sv in singular] == [(0, 0), (0, 3)]
    assert values["stacked_shift_injectivity(wm, k=0, i=1).kernel_dim"] == 0


def test_readme_cli_examples_exit_as_stated(tmp_path, monkeypatch, capsys):
    # every avw line of the CLI block exits 0, or 1 where its comment says
    # so; the working directory takes the --emit dims.csv
    lines = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("avw ")]
    assert len(lines) == 14
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == (1 if "exits 1" in comment else 0), line
        assert capsys.readouterr().err == "", line
    assert (tmp_path / "dims.csv").read_text().startswith("depth,charge,dim\n")
