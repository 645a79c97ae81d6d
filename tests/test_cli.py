import json
from fractions import Fraction as F

import pytest

from avw.catalog import HVirABC, IntA, IntAB, IntB, LoopMod, T2Corrupt, T2Mod
from avw.cli import (ALL_OPS, OPS_BY_COMMAND, RunConfig, _COMMANDS,
                     build_parser, config_from_args, execute, main, parse_spec)
from avw.errors import MissingParameter, SpecParseError, UnknownKind


def test_parse_spec_examples():
    assert parse_spec("A:a=1/2,b=1/3") == IntAB(F(1, 2), F(1, 3))
    assert parse_spec("loop:lambda=2,a=0,b=0") == LoopMod(2, F(0), F(0))
    assert parse_spec("A2:a=3") == IntA(F(3))
    assert parse_spec("B:a=0") == IntB(F(0))
    assert parse_spec("H:a=0,b=0,c=5") == HVirABC(F(0), F(0), F(5))
    assert parse_spec("T2:a=0,b=0,c=5") == T2Mod(F(0), F(0), F(5))
    assert parse_spec("T2corrupt:a=0,b=0,c=1") == T2Corrupt(F(0), F(0), F(1))
    assert parse_spec("A:a=-3/2,b=2") == IntAB(F(-3, 2), F(2))


def test_parse_spec_round_trips_canonical_text():
    from avw.catalog import spec_text
    for text in ("A:a=1/2,b=1/3", "A2:a=3", "B:a=0", "H:a=0,b=0,c=5",
                 "T2:a=0,b=0,c=5", "T2corrupt:a=0,b=0,c=1",
                 "loop:lambda=1,a=1/2,b=1/3"):
        assert spec_text(parse_spec(text)) == text


def test_parse_spec_errors():
    with pytest.raises(SpecParseError) as err:
        parse_spec("A:a=1/0")
    assert "denominator" in str(err.value)
    assert err.value.position is not None
    with pytest.raises(UnknownKind):
        parse_spec("Q:a=1")
    with pytest.raises(MissingParameter):
        parse_spec("A:a=1")
    with pytest.raises(MissingParameter):
        parse_spec("A:")
    with pytest.raises(SpecParseError):
        parse_spec("A")
    with pytest.raises(SpecParseError):
        parse_spec("A:a=1,a=2,b=0")
    with pytest.raises(SpecParseError):
        parse_spec("A:a=1,z=2")
    with pytest.raises(SpecParseError):
        parse_spec("A:a=x,b=0")
    with pytest.raises(SpecParseError):
        parse_spec("loop:lambda=-1,a=0,b=0")
    with pytest.raises(SpecParseError):
        parse_spec("loop:lambda=1/2,a=0,b=0")


def run(args):
    return main(args)


def test_jacobi_command_and_negative_range(capsys):
    assert run(["jacobi", "--algebra", "T2", "--range", "-2..2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jacobi_defects"] == 0
    assert payload["antisymmetry_defects"] == 0
    assert payload["range"] == [-2, 2]


def test_module_check_command(capsys):
    assert run(["module-check", "--module", "A:a=1/2,b=1/3",
                "--deg-range", "-2..2", "--label-range", "-2..2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"] == 0


def test_module_check_corrupt_exits_1(capsys):
    assert run(["module-check", "--module", "T2corrupt:a=0,b=0,c=1",
                "--deg-range", "-1..1", "--label-range", "-1..1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"] > 0
    assert payload["defect_samples"]


def test_catalog_command(capsys):
    assert run(["catalog", "--module", "loop:lambda=1,a=0,b=0",
                "--window", "-2..2", "--matrices"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bracket_consistency_defects"] == []
    assert payload["sl2_irrep"]["h"] == [["1", "0"], ["0", "-1"]]
    assert payload["dims"] == {str(k): 2 for k in range(-2, 3)}


def test_simple_and_structure_commands(capsys):
    assert run(["simple", "--module", "H:a=0,b=0,c=5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["simple"] is True
    assert run(["structure", "--module", "B:a=7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["line_role"] == "submodule"


def test_loop_dims_command(capsys):
    assert run(["loop-dims", "--module", "loop:lambda=3,a=1/2,b=1/3",
                "--window", "-4..4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_dim"] == 4
    assert all(row["dim"] == 4 for row in payload["rows"])
    assert run(["loop-dims", "--module", "A:a=0,b=0"]) == 2


def test_verma_command_emits_csv_and_singular(tmp_path, capsys):
    csv_path = tmp_path / "dims.csv"
    assert run(["verma", "--lamd", "1/2", "--mu", "2", "--c", "0",
                "--depth", "4", "--emit", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "depth,charge,dim"
    assert "1,0,3" in lines
    cells = {(sv["depth"], sv["charge"]) for sv in payload["singular_vectors"]}
    assert (0, 3) in cells
    assert payload["cartan_diagonal"]["failures"] == []


def test_singular_command(capsys):
    assert run(["singular", "--lamd", "1/2", "--mu", "1/3", "--c", "2/7",
                "--depth", "2", "--max-depth", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(sv["depth"], sv["charge"]) for sv in payload["singular_vectors"]] == [(0, 0)]


def test_injectivity_command(capsys):
    assert run(["injectivity", "--module", "loop:lambda=1,a=1/2,b=1/3",
                "--k", "0", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dim"] == 0
    assert payload["dimV_k"] == 2


def test_injectivity_on_verma_top(capsys):
    assert run(["injectivity", "--lamd", "1/2", "--mu", "2", "--c", "0",
                "--depth", "2", "--k", "0", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dim"] == payload["dimV_k"] > 0


def test_injectivity_zero_shift_usage_error(capsys):
    assert run(["injectivity", "--module", "loop:lambda=1,a=0,b=0",
                "--k", "0", "--i", "0"]) == 2


def test_witness_command(capsys):
    assert run(["witness", "--module", "A:a=0,b=0", "--window", "-3..3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"][0]["vector"] == {"v_0": "1"}
    # the trivial line is extremal in both directions
    assert payload["extremal_vectors"]["highest"] == [
        {"offset": 0, "vector": {"v_0": "1"}}]
    assert payload["extremal_vectors"]["lowest"] == [
        {"offset": 0, "vector": {"v_0": "1"}}]


def test_witness_command_without_loop_families(capsys):
    assert run(["witness", "--module", "H:a=0,b=0,c=5", "--window", "-3..3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"] == []
    assert "not_searchable" in payload["extremal_vectors"]["highest"]


def test_match_command_scrambled(capsys):
    assert run(["match", "--module", "loop:lambda=2,a=1/2,b=1/3",
                "--scramble-seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"] == "loop:lambda=2,a=1/2,b=1/3"


def test_support_command(capsys):
    assert run(["support", "--module", "loop:lambda=1,a=0,b=0",
                "--window", "0..0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [["0", "-1"], ["0", "1"]]


def test_bad_spec_exits_2(capsys):
    assert run(["simple", "--module", "A:a=1/0"]) == 2
    assert "denominator" in capsys.readouterr().err


def test_negative_depth_exits_2(capsys):
    assert run(["verma", "--lamd", "1/2", "--mu", "1", "--c", "0",
                "--depth", "-1"]) == 2
    assert capsys.readouterr().err == "error: depth bound must be >= 0\n"


@pytest.mark.parametrize("raw", ["many", "-3"])
def test_bad_max_basis_env_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("AVW_MAX_BASIS", raw)
    assert run(["singular", "--lamd", "1/2", "--mu", "1", "--c", "0",
                "--depth", "2"]) == 2
    assert "AVW_MAX_BASIS" in capsys.readouterr().err


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_determinism_byte_identical_files(tmp_path):
    out, csv = tmp_path / "report.json", tmp_path / "dims.csv"
    args = ["verma", "--lamd", "1/2", "--mu", "2", "--c", "0", "--depth", "3",
            "--emit", str(csv), "--out", str(out)]
    assert run(args) == 0
    first = (out.read_bytes(), csv.read_bytes())
    assert run(args) == 0
    assert (out.read_bytes(), csv.read_bytes()) == first
    mout = tmp_path / "match.json"
    margs = ["match", "--module", "loop:lambda=1,a=1/2,b=1/3",
             "--scramble-seed", "3", "--out", str(mout)]
    assert run(margs) == 0
    mfirst = mout.read_bytes()
    assert run(margs) == 0
    assert mout.read_bytes() == mfirst


def test_every_operation_reachable_from_a_command():
    covered = set()
    for cmd, ops in OPS_BY_COMMAND.items():
        assert cmd in _COMMANDS
        covered |= ops
    assert covered == ALL_OPS
    assert set(OPS_BY_COMMAND) == set(_COMMANDS)


def test_run_config_round_trip():
    parser = build_parser()
    args = parser.parse_args(["match", "--module", "loop:lambda=1,a=0,b=0",
                              "--window=-3..3", "--scramble-seed", "9"])
    config = config_from_args(args)
    assert config == RunConfig(command="match", module="loop:lambda=1,a=0,b=0",
                               window=(-3, 3), scramble_seed=9)
    assert execute(config) == 0
