import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import group
from permdesign.analyzer import analyze
from permdesign.cli import main
from permdesign.incidence import IncidenceStructure
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


@pytest.mark.parametrize("parse,text,message", [
    (parse_group_text, "", "^empty group file$"),
    (parse_group_text, "# only comments\n\n", "^empty group file$"),
    (parse_group_text, "# c\n(1 2)\n",
     r"^line 2: expected 'degree N', got '\(1 2\)'$"),
    (parse_group_text, "degree 3 4\n(1 2)\n",
     "^line 1: expected 'degree N', got 'degree 3 4'$"),
    (parse_group_text, "degree x\n(1 2)\n", "^line 1: bad degree 'x'$"),
    (parse_group_text, "degree 0\n(1 2)\n",
     "^line 1: degree must be positive$"),
    (parse_group_text, "degree 3\n# none\n",
     "^group file lists no generators$"),
    (parse_design_text, "", "^empty design file$"),
    (parse_design_text, "# only comments\n", "^empty design file$"),
    (parse_design_text, "\nblocks 3\n1 2\n",
     "^line 2: expected 'points V', got 'blocks 3'$"),
    (parse_design_text, "points 3.0\n1 2\n",
     "^line 1: bad point count '3.0'$"),
    (parse_design_text, "points 3\n\n", "^design file lists no blocks$"),
    (parse_design_text, "points 3\n1 2\n1 x\n",
     "^line 3: blocks must be integers$"),
    (parse_design_text, "points 3\n1 2\n2 2\n",
     r"^block \(1, 1\) repeats a point$"),
])
def test_file_headers_are_refused_with_their_message(parse, text, message):
    with pytest.raises(FileFormatError, match=message):
        parse(text)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_design_file_rejects_non_positive_point_count(count):
    # refused on the header line, not at the first block
    with pytest.raises(FileFormatError,
                       match="^line 1: point count must be positive$"):
        parse_design_text(f"points {count}\n1 2\n")


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


def test_cli_analyze_timings_in_json(tmp_path, capsys, fano_pair):
    # --timings adds each stage's wall-clock seconds, rounded to 6 places;
    # without it the key is absent (test_cli_analyze_fano)
    structure, g = fano_pair
    gpath, dpath = tmp_path / "fano.group", tmp_path / "fano.design"
    write_group_file(gpath, g)
    write_design_file(dpath, structure)
    jpath = tmp_path / "report.json"
    assert main(["analyze", str(gpath), str(dpath), "--timings",
                 "--json", str(jpath)]) == 0
    timings = json.loads(jpath.read_text())["timings"]
    assert set(timings) == {"preservation", "verify_design",
                            "local_primitivity", "point_type",
                            "lambda_constancy", "diameter"}
    assert all(isinstance(t, float) and t >= 0 and round(t, 6) == t
               for t in timings.values())


def test_cli_analyze_preservation_failure(tmp_path, capsys):
    gpath, dpath = tmp_path / "g.group", tmp_path / "d.design"
    gpath.write_text("degree 3\n(1 2 3)\n")
    dpath.write_text("points 3\n1 2\n")
    assert main(["analyze", str(gpath), str(dpath)]) == 2


def test_cli_analyze_non_design_is_check_failure(tmp_path, capsys):
    # the cyclic group preserves these two parallel chords, but pair
    # coverage fails, so analysis reports a failed design check
    gpath, dpath = tmp_path / "d.group", tmp_path / "d.design"
    gpath.write_text("degree 4\n(1 3)(2 4)\n")
    dpath.write_text("points 4\n1 2\n3 4\n")
    assert main(["analyze", str(gpath), str(dpath)]) == 1
    assert "not a 2-design" in capsys.readouterr().out
    # census counts it as a failed check too, which outranks an
    # unreadable pair beside it
    jpath = tmp_path / "census.json"
    for with_broken in (False, True):
        if with_broken:
            (tmp_path / "broken.group").write_text("degree nope\n")
            (tmp_path / "broken.design").write_text("points 3\n1 2 3\n")
        assert main(["census", str(tmp_path), "--json", str(jpath)]) == 1
        out = capsys.readouterr().out
        assert ("d: not a 2-design [uncovered-pair]: point pair (0, 2) lies "
                "in no block") in out
        assert ("broken: ERROR" in out) == with_broken
        errors = json.loads(jpath.read_text())["errors"]
        assert [e["instance_id"] for e in errors] == (
            ["broken", "d"] if with_broken else ["d"])


def test_cli_analyze_trivial_design(tmp_path, capsys):
    # one block holding every point: the 3-cycle preserves it
    gpath, dpath = tmp_path / "t.group", tmp_path / "t.design"
    gpath.write_text("degree 3\n(1 2 3)\n")
    dpath.write_text("points 3\n1 2 3\n")
    assert main(["analyze", str(gpath), str(dpath)]) == 0
    assert capsys.readouterr().out == "t: trivial design (all blocks full)\n"


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
    from permdesign.designgroup import DesignAction
    left = g.point_stabilizer(structure.blocks[0][0])
    right = DesignAction(g, structure).block_stabilizer(0)
    gp, lp, rp = (tmp_path / n for n in ("g.group", "l.group", "r.group"))
    write_group_file(gp, g)
    write_group_file(lp, left)
    write_group_file(rp, right)
    assert main(["crosscheck", str(gp), str(lp), str(rp)]) == 0
    out = capsys.readouterr().out
    assert "constant ratio 1" in out and "exhaustive" in out
    assert main(["crosscheck", str(gp), str(gp), str(rp)]) == 0
    assert capsys.readouterr().out == (
        "vacuously constant: the left subgroup is the whole group\n")


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


def test_cli_coset_builds_each_space_once(tmp_path, capsys, fano_pair,
                                          monkeypatch):
    # every question about the triple, and --out, reads one walk per
    # (subgroup, acting group): the L-cosets in G, in LR and the R-cosets
    # in RL; L's coset space is faithful, so R's is never walked
    from permdesign import cosets
    from permdesign.designgroup import DesignAction
    structure, g = fano_pair
    gp, lp, rp = (tmp_path / n for n in ("g.group", "l.group", "r.group"))
    write_group_file(gp, g)
    write_group_file(lp, g.point_stabilizer(structure.blocks[0][0]))
    write_group_file(rp, DesignAction(g, structure).block_stabilizer(0))
    walks = []
    original = cosets._coset_orbit

    def counting(subgroup, generators):
        walks.append((id(subgroup), tuple(x.images for x in generators)))
        return original(subgroup, generators)

    monkeypatch.setattr(cosets, "_coset_orbit", counting)
    triples = [(gp, lp, rp)] + [
        [os.path.join(COSET_INPUTS, f"symplectic-2-3.{role}.group")
         for role in "GLR"]]
    records = []
    for files in triples:
        for extra in ([], ["--out", str(tmp_path / "out")]):
            walks.clear()
            assert main(["coset", *map(str, files), *extra]) == 0
            out = capsys.readouterr().out
            records.append(json.loads(out[out.index("{"):]))
            assert len(walks) == len(set(walks)) == 3
    assert (tmp_path / "out" / "coset.design").exists()
    assert records[0] == records[1] == {
        "faithful": True, "index_L": 7, "index_R": 7, "lambda_constant": 1,
        "trivial_factorization": False}
    assert records[2] == records[3]
    assert (records[2]["index_L"], records[2]["index_R"]) == (81, 810)


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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _interpreter(name):
    """The path of `name` on PATH if it runs, else None.  A version manager
    may put a shim there for a version it cannot start."""
    if name is None:
        return sys.executable
    exe = shutil.which(name)
    if exe is None:
        return None
    probe = subprocess.run([exe, "-c", "import sys"], capture_output=True,
                           timeout=30)
    return exe if probe.returncode == 0 else None


@pytest.mark.parametrize("hash_seed", [0, 12345])
@pytest.mark.parametrize("name", [
    pytest.param(None, id="this-python"), "python3.10", "python3.12",
    "python3.13"])
def test_census_golden_in_a_fresh_interpreter(name, hash_seed, corpus_dir,
                                              tmp_path):
    """`census --json` in a new process, under a fixed string-hash seed and
    each interpreter found (None: the one running the tests), matches the
    golden: no output depends on set or dict order of hashed strings."""
    exe = _interpreter(name)
    if exe is None:
        pytest.skip(f"{name} is not available")
    out = tmp_path / "census.json"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    run = subprocess.run([exe, "-m", "permdesign.cli", "census",
                          str(corpus_dir), "--json", str(out)],
                         env=env, capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    with open(GOLDEN_CENSUS, "rb") as fh:
        assert out.read_bytes() == fh.read()


GOLDEN_COSET = os.path.join(os.path.dirname(__file__), "golden",
                            "coset.sha256")
COSET_INPUTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "perfbench", "coset_inputs")


def test_coset_matches_golden(tmp_path, capsys):
    """`permdesign coset G L R --out DIR --prefix NAME` on four committed
    (G, L, R) triples: SHA-256 of the JSON record it prints (without the
    `wrote <path>` line) and of the design file it writes."""
    expected = {}
    with open(GOLDEN_COSET) as fh:
        for line in fh:
            digest, name = line.split()
            expected[name] = digest
    got = {}
    for name in sorted({n.rsplit(".", 1)[0] for n in expected}):
        files = [os.path.join(COSET_INPUTS, f"{name}.{role}.group")
                 for role in "GLR"]
        assert main(["coset", *files, "--out", str(tmp_path),
                     "--prefix", name]) == 0
        record = "".join(line + "\n" for line in
                         capsys.readouterr().out.splitlines()
                         if not line.startswith("wrote "))
        got[f"{name}.json"] = hashlib.sha256(record.encode()).hexdigest()
        design = (tmp_path / f"{name}.design").read_bytes()
        got[f"{name}.design"] = hashlib.sha256(design).hexdigest()
    assert len(expected) == 8
    assert got == expected


# SHA-256 of the design files `permdesign coset` wrote when it numbered the
# points as a breadth-first walk over all of G's given generators finds the
# L-cosets; symplectic-2-3 was not pinned then, and its digest is the one
# that numbering gives
GIVEN_GENERATOR_DESIGNS = {
    "a7-cos-15-3-1":
        "f07b429ff0ec7ca12eafb0226ba655007c9046e11bfd3eee594bf2181d0ec719",
    "agl-3-3-lines":
        "ace57e909ea6601414550f8b32677d3932c91bacfd8743217205f0d9014d8374",
    "pgl-4-3-lines":
        "b989bd6470f21dea2fc3020b5a8643f22a239cde60f0cc7eaec16eb037fbf3a6",
    "symplectic-2-3":
        "21995bbb2a9425db2b154c98518aec89d54dc697895a72798a0060ab0ddccc9b",
}


@pytest.mark.parametrize("name", sorted(GIVEN_GENERATOR_DESIGNS))
def test_coset_design_relabels_to_the_given_generator_numbering(name,
                                                                tmp_path):
    """The design `permdesign coset` writes, its points numbered by the walk
    over G's walk generators, renamed point by point into the order in which
    a walk over the given generators finds the L-cosets, each coset keyed by
    its canonical representative: the file is the one that numbering wrote."""
    from permdesign.cosets import (CosetSpace, _coset_orbit,
                                   canonical_coset_representative)
    grp, left, right = (read_group_file(os.path.join(
        COSET_INPUTS, f"{name}.{role}.group")) for role in "GLR")
    assert main(["coset", *(os.path.join(COSET_INPUTS, f"{name}.{role}.group")
                            for role in "GLR"),
                 "--out", str(tmp_path), "--prefix", name]) == 0
    written = read_design_file(tmp_path / f"{name}.design")
    given = _coset_orbit(left, grp.generators)[0]
    rename = [given[canonical_coset_representative(left, x).images]
              for x in CosetSpace(grp, left).representatives]
    assert sorted(rename) == list(range(written.v))
    renamed = IncidenceStructure(
        written.v, [[rename[i] for i in block] for block in written.blocks])
    assert hashlib.sha256(format_design(renamed).encode()).hexdigest() == \
        GIVEN_GENERATOR_DESIGNS[name]


@pytest.mark.parametrize("variable,value,argv", [
    # GF(3)^3 has 27 vectors; the cosets of L in A7 number 15.  Both
    # coset-triple commands build the coset graph, so both meet the limit
    ("PERMDESIGN_POINT_LIMIT", "10", ["build", "pg", "2", "3", "1"]),
    *(("PERMDESIGN_INDEX_LIMIT", "3", [command] + [
        os.path.join(COSET_INPUTS, f"a7-cos-15-3-1.{role}.group")
        for role in "GLR"]) for command in ("coset", "crosscheck")),
])
def test_cli_limit_exit_names_the_variable(variable, value, argv, tmp_path,
                                           capsys, monkeypatch):
    monkeypatch.setenv(variable, value)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(
        f"({variable})")


def test_cli_non_integer_limit_is_an_input_error(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", "ten")
    argv = ["coset"] + [
        os.path.join(COSET_INPUTS, f"a7-cos-15-3-1.{role}.group")
        for role in "GLR"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: PERMDESIGN_INDEX_LIMIT must be an integer, got 'ten'\n")


def test_census_of_a_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    assert main(["census", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} is not a directory\n"


def test_census_names_a_missing_group_file(tmp_path, capsys, fano_pair):
    structure, _ = fano_pair
    write_design_file(tmp_path / "lone.design", structure)
    jpath = tmp_path / "census.json"
    assert main(["census", str(tmp_path), "--json", str(jpath)]) == 2
    message = f"missing group file {tmp_path / 'lone.group'}"
    assert f"lone: ERROR {message}" in capsys.readouterr().out
    assert json.loads(jpath.read_text())["errors"] == [
        {"instance_id": "lone", "message": message}]


def test_census_leaves_no_argparse_garbage(tmp_path, capsys, fano_pair):
    # the parser is built once per process, so a call leaves none of its
    # reference cycles for the cyclic collector
    structure, g = fano_pair
    write_group_file(tmp_path / "fano.group", g)
    write_design_file(tmp_path / "fano.design", structure)
    argv = ["census", str(tmp_path), "--json", str(tmp_path / "c.json")]
    assert main(argv) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not [o for o in garbage if type(o).__module__ == "argparse"]


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


def _mark_failed(report):
    report.theorem_violation = True


def _mark_unknown(report):
    report.checks["lambda_constancy"] = "unknown"


@pytest.mark.parametrize("mark, alone, with_error", [
    (_mark_failed, 1, 1),    # a failing pair outranks an unreadable one
    (_mark_unknown, 3, 2),   # an unreadable pair outranks an unknown one
])
def test_census_exit_precedence(mark, alone, with_error, tmp_path, capsys,
                                fano_pair, monkeypatch):
    import permdesign.cli as cli
    structure, g = fano_pair
    write_group_file(tmp_path / "fano.group", g)
    write_design_file(tmp_path / "fano.design", structure)

    def marking(*args, **kwargs):
        report = analyze(*args, **kwargs)
        mark(report)
        return report
    monkeypatch.setattr(cli, "analyze", marking)
    jpath = tmp_path / "census.json"
    assert main(["census", str(tmp_path), "--json", str(jpath)]) == alone
    assert json.loads(jpath.read_text())["errors"] == []
    (tmp_path / "broken.group").write_text("degree nope\n")
    (tmp_path / "broken.design").write_text("points 3\n1 2\n1 3\n2 3\n")
    assert main(["census", str(tmp_path), "--json", str(jpath)]) == with_error
    payload = json.loads(jpath.read_text())
    (error,) = payload["errors"]
    assert error["instance_id"] == "broken" and error["message"]
    assert [r["instance_id"] for r in payload["instances"]] == ["fano"]
    assert "broken: ERROR" in capsys.readouterr().out


def test_repeated_block_is_an_input_error(tmp_path, capsys, fano_pair):
    # the Fano plane twice over is a 2-(7,3,2) design that its group
    # preserves, but group verdicts need distinct blocks
    structure, g = fano_pair
    doubled = IncidenceStructure(v=structure.v,
                                 blocks=list(structure.blocks) * 2)
    write_group_file(tmp_path / "twice.group", g)
    write_design_file(tmp_path / "twice.design", doubled)
    assert main(["analyze", str(tmp_path / "twice.group"),
                 str(tmp_path / "twice.design")]) == 2
    assert "distinct blocks" in capsys.readouterr().err
    assert main(["census", str(tmp_path)]) == 2
    assert "twice: ERROR group verdicts require distinct blocks" in \
        capsys.readouterr().out


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
