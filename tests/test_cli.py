import json
import os

import pytest

from conftest import group
from permdesign.analyzer import analyze
from permdesign.cli import main
from permdesign.io import (FileFormatError, format_design, parse_design_text,
                           parse_group_text, read_design_file,
                           read_group_file, write_design_file,
                           write_group_file)


def test_group_file_round_trip(tmp_path, frobenius21):
    path = tmp_path / "f21.group"
    write_group_file(path, frobenius21, comment="three-line header\ncheck")
    again = read_group_file(path)
    assert again.order() == 21
    assert again.generators == frobenius21.generators


def test_group_file_rejects_garbage():
    with pytest.raises(FileFormatError):
        parse_group_text("degree x\n(1 2)")
    with pytest.raises(FileFormatError):
        parse_group_text("(1 2)\n")
    with pytest.raises(FileFormatError):
        parse_group_text("degree 3\n(1 4)\n")
    with pytest.raises(FileFormatError):
        parse_group_text("# only comments\n")


def test_design_file_round_trip(tmp_path, fano_pair):
    structure, _ = fano_pair
    path = tmp_path / "fano.design"
    write_design_file(path, structure)
    again = read_design_file(path)
    assert again == structure


def test_design_file_accepts_any_block_order():
    text = "points 3\n3 1\n2 3\n2 1\n"
    structure = parse_design_text(text)
    assert structure.blocks == ((0, 1), (0, 2), (1, 2))
    # canonical writer sorts
    assert format_design(structure).splitlines()[1:] == ["1 2", "1 3", "2 3"]


def test_design_file_rejects_bad_points():
    with pytest.raises(FileFormatError):
        parse_design_text("points 3\n0 1\n")
    with pytest.raises(FileFormatError):
        parse_design_text("points 3\n1 4\n")
    with pytest.raises(FileFormatError):
        parse_design_text("blocks 3\n1 2\n")


def test_cli_build_and_verify(tmp_path, capsys):
    out = tmp_path / "built"
    assert main(["build", "pg", "2", "2", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "2-(7,3,1)" in text
    assert main(["verify", str(out / "pg1_2_2.design")]) == 0
    text = capsys.readouterr().out
    assert "2-(7,3,1)" in text and "t-design strength: 2" in text


def test_cli_build_ag_and_symplectic(tmp_path, capsys):
    assert main(["build", "ag", "3", "2", "2", "--out", str(tmp_path)]) == 0
    assert main(["build", "symplectic", "2", "2", "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "2-(8,4,3)" in text and "2-(16,4,4)" in text


def test_cli_verify_rejects_non_design(tmp_path, capsys):
    bad = tmp_path / "bad.design"
    bad.write_text("points 3\n1 2\n")
    assert main(["verify", str(bad)]) == 1
    assert "not a 2-design" in capsys.readouterr().out


def test_cli_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/x.design"]) == 2


def test_cli_analyze_fano(tmp_path, capsys, fano_pair):
    structure, g = fano_pair
    gpath, dpath = tmp_path / "fano.group", tmp_path / "fano.design"
    write_group_file(gpath, g)
    write_design_file(dpath, structure)
    jpath = tmp_path / "report.json"
    code = main(["analyze", str(gpath), str(dpath), "--json", str(jpath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["point_type"] == "AS"
    assert payload["block_type"] == "AS"
    assert payload["parameters"] == {
        "v": 7, "b": 7, "r": 3, "k": 3, "lambda": 1, "symmetric": True}
    assert payload["local_primitivity"]["flag_transitive"] is True
    assert set(payload["checks"]) == {
        "lambda_constancy", "diameter_bound", "stabilizer_order_bound",
        "faithful_block_action", "local_primitivity_consequences",
        "imprimitivity_cell_disjointness", "normal_orbit_size",
        "origin_blocks_are_subspaces"}
    assert payload["theorem_violation"] is False
    assert "timings" not in payload
    assert payload["point_type_report"]["witness_order"] == 168


def test_cli_analyze_preservation_failure(tmp_path, capsys):
    gpath, dpath = tmp_path / "g.group", tmp_path / "d.design"
    gpath.write_text("degree 3\n(1 2 3)\n")
    dpath.write_text("points 3\n1 2\n")
    assert main(["analyze", str(gpath), str(dpath)]) == 2


def test_cli_analyze_non_design_is_check_failure(tmp_path, capsys):
    # the cyclic group preserves these two parallel chords, but pair
    # coverage fails, so analysis reports a failed design check
    gpath, dpath = tmp_path / "g.group", tmp_path / "d.design"
    gpath.write_text("degree 4\n(1 3)(2 4)\n")
    dpath.write_text("points 4\n1 2\n3 4\n")
    assert main(["analyze", str(gpath), str(dpath)]) == 1
    assert "not a 2-design" in capsys.readouterr().out


def test_analyze_timings_flag(fano_pair):
    structure, g = fano_pair
    with_t = analyze(g, structure, collect_timings=True)
    without = analyze(g, structure)
    assert with_t.timings and "local_primitivity" in with_t.timings
    assert without.timings is None


def test_report_json_byte_stable(fano_pair):
    structure, g = fano_pair
    first = analyze(g, structure, "x").to_json()
    second = analyze(g, structure, "x").to_json()
    assert first == second


def test_corpus_files_byte_stable(tmp_path):
    a = tmp_path / "one"
    b = tmp_path / "two"
    assert main(["corpus", str(a)]) == 0
    assert main(["corpus", str(b)]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_crosscheck(tmp_path, capsys, fano_pair):
    structure, g = fano_pair
    from permdesign.designgroup import block_stabilizer
    left = g.point_stabilizer(structure.blocks[0][0])
    right = block_stabilizer(g, structure, 0)
    gp, lp, rp = (tmp_path / n for n in ("g.group", "l.group", "r.group"))
    write_group_file(gp, g)
    write_group_file(lp, left)
    write_group_file(rp, right)
    assert main(["crosscheck", str(gp), str(lp), str(rp)]) == 0
    out = capsys.readouterr().out
    assert "constant ratio 1" in out and "exhaustive" in out


def test_cli_crosscheck_broken_pair(tmp_path, capsys, s4):
    gp = tmp_path / "s4.group"
    lp = tmp_path / "l.group"
    rp = tmp_path / "r.group"
    write_group_file(gp, s4)
    write_group_file(lp, group(4, "(1 2)"))
    write_group_file(rp, group(4, "(3 4)"))
    assert main(["crosscheck", str(gp), str(lp), str(rp)]) == 1
    assert "not constant" in capsys.readouterr().out


def test_cli_coset_record(tmp_path, capsys, s4):
    gp, lp, rp = (tmp_path / n for n in ("g.group", "l.group", "r.group"))
    write_group_file(gp, s4)
    write_group_file(lp, group(4, "(1 2)", "(1 2 3)"))
    write_group_file(rp, group(4, "(1 2 3)", "(2 3 4)"))
    assert main(["coset", str(gp), str(lp), str(rp),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    record = json.loads(out[out.index("{"):])
    assert record["index_L"] == 4 and record["index_R"] == 2
    assert record["trivial_factorization"] is True
    assert record["lambda_constant"] == 2
    assert record["faithful"] is True
    assert (tmp_path / "coset.design").exists()


def test_cli_build_unsupported_field(capsys, tmp_path):
    assert main(["build", "pg", "2", "6", "1", "--out", str(tmp_path)]) == 2
    assert main(["build", "pg", "1", "2", "1", "--out", str(tmp_path)]) == 2


def test_cli_coset_non_subgroup(tmp_path, capsys, s4):
    gp, lp = tmp_path / "g.group", tmp_path / "l.group"
    write_group_file(gp, s4)
    lp.write_text("degree 4\n(1 2 3 4)\n(1 2)\n")  # equals S4 itself, fine
    bad = tmp_path / "bad.group"
    bad.write_text("degree 5\n(1 2 3 4 5)\n")
    assert main(["coset", str(gp), str(lp), str(bad)]) == 2


def test_census_json_byte_stable(tmp_path, capsys, fano_pair):
    structure, g = fano_pair
    write_group_file(tmp_path / "fano.group", g)
    write_design_file(tmp_path / "fano.design", structure)
    j1, j2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["census", str(tmp_path), "--json", str(j1)]) == 0
    assert main(["census", str(tmp_path), "--json", str(j2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()


GOLDEN_CENSUS = os.path.join(os.path.dirname(__file__), "golden",
                             "census.json")


def test_census_matches_golden(corpus_dir, tmp_path, capsys):
    """`census --json` over the bundled corpus, byte for byte.  Regenerate
    with `permdesign corpus DIR` and `permdesign census DIR --json
    tests/golden/census.json`, and explain the change."""
    out = tmp_path / "census.json"
    assert main(["census", str(corpus_dir), "--json", str(out)]) == 0
    with open(GOLDEN_CENSUS, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_census_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["census", str(empty)]) == 0
    assert "(no instances)" in capsys.readouterr().out


def test_census_isolates_corrupted_instance(tmp_path, capsys, fano_pair):
    structure, g = fano_pair
    write_group_file(tmp_path / "good.group", g)
    write_design_file(tmp_path / "good.design", structure)
    (tmp_path / "broken.group").write_text("degree nope\n")
    (tmp_path / "broken.design").write_text("points 3\n1 2\n1 3\n2 3\n")
    code = main(["census", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2  # input error, but the good instance was analyzed
    assert "broken: ERROR" in out
    assert "good: 2-(7,3,1)" in out


def test_census_json_output(tmp_path, capsys, fano_pair):
    structure, g = fano_pair
    write_group_file(tmp_path / "fano.group", g)
    write_design_file(tmp_path / "fano.design", structure)
    jpath = tmp_path / "census.json"
    assert main(["census", str(tmp_path), "--json", str(jpath)]) == 0
    payload = json.loads(jpath.read_text())
    assert payload["table"] == {"AS/AS": ["fano"]}
    assert len(payload["instances"]) == 1


def test_typereport_serialization(fano_pair):
    structure, g = fano_pair
    report = analyze(g, structure, "fano")
    tr = report.point_type_report
    assert set(tr) == {"tag", "witness_order", "witness_generators",
                       "minimal_normal_subgroup_orders"}
    assert tr["tag"] == "AS"
    assert tr["minimal_normal_subgroup_orders"] == [168]
    # canonical cycle notation round-trips
    from permdesign.perm import Permutation
    for text in tr["witness_generators"]:
        Permutation.from_cycles(text, 7)
