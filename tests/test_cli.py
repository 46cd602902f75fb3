"""End-to-end checks of the command line interface via subprocess."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from parastab import cli

RANK2_DOC = {
    "r": 2,
    "degree": 0,
    "points": [
        {"label": "x", "weights": ["1/10", "7/10"]},
        {"label": "y", "weights": ["1/5", "3/5"]},
    ],
    "genus": 2,
    "symmetries": [{"perm": ["y", "x"], "multiplicity": 1}],
}

RANK3_DOC = {
    "r": 3,
    "degree": -1,
    "points": [{"label": "x", "weights": ["1/8", "3/8", "7/8"]}],
    "genus": 2,
}


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "parastab.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


def run_json(*args: str, stdin: str | None = None) -> tuple[int, dict]:
    proc = run_cli(*args, stdin=stdin)
    return proc.returncode, json.loads(proc.stdout)


def main_json(argv: list[str], stdin) -> tuple[int, dict]:
    """``main(argv + ["--json"])`` in-process on the JSON of ``stdin``."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(stdin))
    try:
        with redirect_stdout(out):
            code = cli.main([*argv, "--json"])
    finally:
        sys.stdin = saved
    return code, json.loads(out.getvalue())


def write_doc(tmp_path, name: str, obj: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_normalize_file_and_stdin(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK2_DOC)
    code, payload = run_json("normalize", path)
    assert code == 0
    assert payload["r"] == 2
    assert payload["degree"] == 0
    assert payload["points"] == ["x", "y"]
    # canonical representative starts at zero on each point
    assert all(row[0] == "0" for row in payload["weights"])
    code2, via_stdin = run_json("normalize", "--json", stdin=json.dumps(RANK2_DOC))
    assert code2 == 0
    assert via_stdin == payload


def test_normalize_round_trip(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK2_DOC)
    _, once = run_json("normalize", path)
    again = {
        "r": once["r"],
        "degree": once["degree"],
        "points": [
            {"label": lab, "weights": row}
            for lab, row in zip(once["points"], once["weights"])
        ],
    }
    _, twice = run_json("normalize", "--json", stdin=json.dumps(again))
    assert twice == once


def test_owt_payload(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK3_DOC)
    code, payload = run_json("owt", path, "--pattern", "[[1,0,1]]")
    assert code == 0
    assert payload["owt"] == "1"
    assert payload["pdeg"] == "3/8"
    assert payload["subrank"] == 2
    assert payload["s_min"] == "1/4"
    # full patterns carry no twisting slack
    _, full = run_json("owt", path, "--pattern", "[[1,1,1]]")
    assert full["s_min"] is None


def test_invariant_example(tmp_path):
    doc = {
        "r": 2,
        "degree": 0,
        "points": [{"label": "p1", "weights": ["0", "1/3"]}],
    }
    path = write_doc(tmp_path, "doc.json", doc)
    code, payload = run_json("invariant", path)
    assert code == 0
    assert payload["values"] == [0, -1]
    assert payload["r"] == 2 and payload["n"] == 1 and payload["degree"] == 0
    assert len(payload["types"]) == len(payload["values"])
    assert payload["bounds"] == {"lower_open": "-3", "upper": "1"}


def test_same_chamber_crossing(tmp_path):
    first = {
        "r": 2,
        "degree": 1,
        "points": [
            {"label": "x", "weights": ["0", "2/5"]},
            {"label": "y", "weights": ["0", "1/4"]},
        ],
    }
    second = {
        "r": 2,
        "degree": 1,
        "points": [
            {"label": "x", "weights": ["0", "4/5"]},
            {"label": "y", "weights": ["0", "3/4"]},
        ],
    }
    p1 = write_doc(tmp_path, "a.json", first)
    p2 = write_doc(tmp_path, "b.json", second)
    code, payload = run_json("same-chamber", p1, p2)
    assert code == 0
    assert payload["same"] is False
    assert {"subrank": 1, "picks": [[1], [1]], "m": 1, "relevant": True} in payload["walls"]
    stdin = json.dumps({"first": first, "second": second})
    code2, via_stdin = run_json("same-chamber", "--json", stdin=stdin)
    assert code2 == 0
    assert via_stdin == payload


def test_same_chamber_wall_endpoint_reports_null_walls(tmp_path):
    on_wall = {
        "r": 2,
        "degree": 0,
        "points": [
            {"label": "x", "weights": ["0", "1/2"]},
            {"label": "y", "weights": ["0", "1/2"]},
        ],
    }
    other = {
        "r": 2,
        "degree": 0,
        "points": [
            {"label": "x", "weights": ["0", "2/5"]},
            {"label": "y", "weights": ["0", "1/4"]},
        ],
    }
    p1 = write_doc(tmp_path, "a.json", on_wall)
    p2 = write_doc(tmp_path, "b.json", other)
    code, payload = run_json("same-chamber", p1, p2)
    assert code == 0
    assert payload["walls"] is None
    # the walls subcommand refuses the same pair outright
    proc = run_cli("walls", p1, p2)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "domain"


def test_generic_flags(tmp_path):
    doc = {
        "r": 2,
        "degree": 0,
        "points": [
            {"label": "x", "weights": ["0", "1/2"]},
            {"label": "y", "weights": ["0", "1/2"]},
        ],
    }
    path = write_doc(tmp_path, "doc.json", doc)
    code, payload = run_json("generic", path)
    assert code == 0
    assert payload["generic"] is False
    assert payload["witness"]["subrank"] == 1
    blanket = {
        "r": 2,
        "degree": 0,
        "points": [{"label": "p1", "weights": ["0", "1/3"]}],
    }
    _, ok = run_json("generic", write_doc(tmp_path, "g.json", blanket))
    assert ok["generic"] is True and ok["witness"] is None
    # the paired family dodges only the degree-relevant walls
    _, rel = run_json("generic", write_doc(tmp_path, "r.json", RANK2_DOC))
    assert rel["generic"] is False
    assert rel["degree_generic"] is True


def test_dims_and_stratum():
    code, payload = run_json("dims", "--genus", "2", "--points", "1", "--rank", "2")
    assert code == 0
    assert payload == {
        "fixed_det": 4,
        "nonfixed": 6,
        "w": [2, 4],
        "w_total": 4,
        "stratum": None,
    }
    _, deep = run_json(
        "dims", "--genus", "2", "--points", "1", "--rank", "5", "--stratum", "1"
    )
    assert deep["stratum"] == 13


def test_orders():
    code, payload = run_json(
        "orders", "--genus", "2", "--rank", "2", "--points", "3", "--aut-order", "2"
    )
    assert code == 0
    assert payload == {"aut": 32, "threebir": 128, "ratio": 4}


def test_transform_word(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK3_DOC)
    word = json.dumps({"perm": [0], "sign": -1, "tdeg": 1, "hecke": [1]})
    code, payload = run_json("transform", path, "--word", word)
    assert code == 0
    assert payload["weights"] == [["0", "1/4", "3/4"]]
    assert payload["degree"] == -1
    assert payload["word"] == {"perm": [0], "sign": -1, "tdeg": 1, "hecke": [1]}


def test_compose_and_inverse():
    word = json.dumps({"perm": [0], "sign": -1, "tdeg": 1, "hecke": [1]})
    code, payload = run_json("compose", "--rank", "3", word, word)
    assert code == 0
    assert payload["word"] == {"perm": [0], "sign": 1, "tdeg": 0, "hecke": [0]}
    _, inv = run_json("inverse", "--rank", "3", word)
    assert inv["word"] == json.loads(word)


def test_aut_rank2_fixture(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK2_DOC)
    code, payload = run_json("aut", path)
    assert code == 0
    got = sorted(
        (tuple(t["perm"]), t["sign"], t["tdeg"], tuple(t["hecke"]))
        for t in payload["classes"]
    )
    assert got == [((0, 1), 1, 0, (0, 0)), ((1, 0), 1, 1, (1, 1))]
    assert payload["order"] == 32
    assert payload["torsion_factor"] == 16
    assert payload["genus_sufficient"] is False


def test_aut_strict_rejects_wall_weights(tmp_path):
    # the rank three family sits on a wall, so strict mode must refuse it
    path = write_doc(tmp_path, "doc.json", RANK3_DOC)
    proc = run_cli("aut", path, "--strict")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "domain"
    code, payload = run_json("aut", path)
    assert code == 0
    assert payload["generic"] is False


def test_iso_self(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK3_DOC)
    code, payload = run_json("iso", path, path)
    assert code == 0
    assert payload["count"] == len(payload["transforms"]) == 2
    assert payload["degree_from"] == payload["degree_to"] == -1


@pytest.mark.parametrize("perms", ["[[0,0]]", "[[0,5]]", '[["y","y"]]', "[[1,0],[0,-1]]"])
def test_iso_perms_must_be_permutations(tmp_path, perms):
    path = write_doc(tmp_path, "doc.json", RANK2_DOC)
    proc = run_cli("iso", path, path, "--perms", perms)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {
        "kind": "input",
        "message": "curve isomorphism perms must permute 0..n-1",
    }
    code, payload = run_json("iso", path, path, "--perms", '[["y","x"]]')
    assert code == 0
    assert payload["count"] == len(payload["transforms"])


def test_matrix_xi():
    code, payload = run_json("matrix-xi", "--n", "2")
    assert code == 0
    assert payload == {
        "n": 2,
        "xi": [[0, 0, 1, 0], [0, 0, 1, 0], [-1, -1, 0, -1], [0, 0, 1, 0]],
    }


def test_matrix_rank1(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 2], [2, 4]]))
    code, payload = run_json("matrix-rank1", str(path))
    assert code == 0
    assert payload == {
        "rank1": True,
        "col": [[[0, "1"]], [[0, "2"]]],
        "row": [[[0, "1"]], [[0, "2"]]],
    }
    _, not_rank1 = run_json("matrix-rank1", "--json", stdin="[[1,0],[0,1]]")
    assert not_rank1 == {"rank1": False, "col": None, "row": None}


def test_matrix_mp_identity_pair():
    stdin = json.dumps({"a": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]]})
    code, payload = run_json("matrix-mp", "--json", "--check-inner", stdin=stdin)
    assert code == 0
    assert payload["n"] == 2
    one = [[0, "1"]]
    zero: list = []
    assert payload["mp"] == [
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, one],
    ]
    assert payload["pure_tensor"] is True
    assert payload["inner"] is True
    assert payload["inner_matrix"] == [[one, zero], [zero, one]]


def test_matrix_hecke_reports():
    h2 = json.dumps([[0, 1], [{"1": "1"}, 0]])
    code, payload = run_json("matrix-hecke", "--json", stdin=h2)
    assert code == 0
    assert payload["integral"] is True
    assert payload["k"] == 1
    assert payload["parabolic_input"] is True
    assert payload["offenders"] == []

    bad = json.dumps([[{"1": "1"}, 0], [0, 1]])
    code2, report = run_json("matrix-hecke", "--json", stdin=bad)
    assert code2 == 0
    assert report["integral"] is False
    assert [2, 2, -1] in report["offenders"]

    proc = run_cli("matrix-hecke", "--json", stdin=json.dumps([[1, 1], [1, 1]]))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "domain"


def test_matrix_hecke_precision_is_only_echoed():
    """The report is exact: --precision changes nothing but its own echo."""
    doc = [[{"1": "1"}, 0], [0, [[0, "1"], [1, "-1"]]]]
    low, high = (main_json(["matrix-hecke", "--precision", p], doc) for p in ("1", "8"))
    assert low[0] == high[0] == 0
    assert (low[1].pop("precision"), high[1].pop("precision")) == (1, 8)
    assert low[1] == high[1]
    assert [2, 2, -1] in low[1]["offenders"]


@pytest.mark.parametrize("field", ["r", "point count"])
def test_disagreeing_documents_exit_two(tmp_path, field):
    """Every command that reads two weight documents refuses a mismatch as an input error."""
    other = {**RANK2_DOC, "points": RANK2_DOC["points"][:1], "symmetries": []}
    if field == "r":
        other = {**RANK3_DOC, "degree": RANK2_DOC["degree"]}
    pair = {"first": RANK2_DOC, "second": other}
    argvs = (["iso"], ["walls"], ["walls", "--all"], ["same-chamber"])
    runs = [main_json(argv, pair) for argv in argvs]
    runs.append(main_json(["bounds", "--doc2", write_doc(tmp_path, "b.json", other)], RANK2_DOC))
    for code, payload in runs:
        assert code == 2
        assert payload["error"] == {"kind": "input", "message": f"documents disagree on {field}"}


def test_fixtures_pass_and_rerun_identically():
    first = run_cli("fixtures")
    second = run_cli("fixtures")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["all_pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_output_is_deterministic(tmp_path):
    path = write_doc(tmp_path, "doc.json", RANK2_DOC)
    runs = [run_cli("invariant", path).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].endswith("\n")


def test_emit_writes_pre_encoded_values_verbatim(capsys):
    """A ``_Json`` value goes in as it is, among keys encoded as ``json.dumps`` would."""
    walls = [{"m": -2, "picks": [[1, 3], [2]], "relevant": True, "subrank": 2}]
    payload = {
        "walls": cli._Json('[{"m":-2,"picks":[[1,3],[2]],"relevant":true,"subrank":2}]'),
        "bound": Fraction(-4, 9),
        "bounds": {"upper": Fraction(3, 2), "lower_open": 0, "x": [None, "\u00e9"]},
        "count": 1,
    }
    cli._emit(payload)
    tree = {
        "walls": walls,
        "bound": "-4/9",
        "bounds": {"upper": "3/2", "lower_open": 0, "x": [None, "\u00e9"]},
        "count": 1,
    }
    assert capsys.readouterr().out == json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"r": 2, "degree": 0, "points": [{"label": "x", "weights": ["0.5", "0"]}]},
        {"r": 2, "degree": 0, "points": []},
        {"r": 2, "points": [{"label": "x", "weights": ["0", "1/2"]}]},
        {"r": 2, "degree": 0, "points": [{"label": "x", "weights": ["0", "1/2", "2/3"]}]},
    ],
)
def test_bad_documents_exit_two(doc):
    proc = run_cli("normalize", "--json", stdin=json.dumps(doc))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "input"


@pytest.mark.parametrize("weight", ["1/0", "-3/0", " 0/0"])
def test_zero_denominator_is_an_input_error(weight):
    doc = {"r": 2, "degree": 0, "points": [{"label": "x", "weights": ["0", weight]}]}
    proc = run_cli("normalize", "--json", stdin=json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["kind"] == "input"
    matrix = run_cli("matrix-rank1", "--json", stdin=json.dumps([[weight]]))
    assert matrix.returncode == 2
    assert json.loads(matrix.stdout)["error"]["kind"] == "input"


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_matrix_hecke_rejects_nonpositive_precision(precision):
    for doc in ([[0, 1], [{"1": "1"}, 0]], [[{"1": "1"}, 0], [0, [[0, "1"], [1, "-1"]]]]):
        proc = run_cli("matrix-hecke", "--json", "--precision", precision, stdin=json.dumps(doc))
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "input"
        assert "--precision" in error["message"]


@pytest.mark.parametrize(
    "doc",
    [
        {"entries": [1]},
        [1],
        {"entries": [[{"0": "1"}], 5]},
        {"entries": ["1"]},
        {"entries": [{"0": "1"}]},
    ],
)
def test_matrix_rows_must_be_lists(doc):
    for cmd in ("matrix-rank1", "matrix-hecke"):
        proc = run_cli(cmd, "--json", stdin=json.dumps(doc))
        assert proc.returncode == 2
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error == {"kind": "input", "message": "matrix rows must be lists"}


@pytest.mark.parametrize(
    "entry, exponent",
    [
        ({"1": "2", "01": "3"}, 1),
        ({" 1": "2", "1": "3"}, 1),
        ({"-0": "1", "+0": "2"}, 0),
        ([[1, "2"], [1, "3"]], 1),
        ([[-2, "1"], [0, "1"], [-2, "1"]], -2),
    ],
)
def test_repeated_exponent_is_an_input_error(entry, exponent):
    """An exponent named twice in one entry is refused, not overwritten."""
    message = f"exponent {exponent} appears twice in one matrix entry"
    for argv in (["matrix-rank1"], ["matrix-hecke"]):
        assert main_json(argv, [[entry]]) == (2, {"error": {"kind": "input", "message": message}})
    pair = {"a": [[entry, 0], [0, 1]], "b": [[1, 0], [0, 1]]}
    assert main_json(["matrix-mp"], pair)[0] == 2


@pytest.mark.parametrize("key", ["1_0", "-1_0", "1.0", "0x1", "", "1/1"])
def test_exponent_keys_must_be_decimal_integers(key):
    message = f"exponent keys must be integers, got {key!r}"
    error = {"error": {"kind": "input", "message": message}}
    assert main_json(["matrix-rank1"], [[{key: "1"}]]) == (2, error)


def test_exponent_keys_may_carry_signs_spaces_and_zeros():
    code, payload = main_json(["matrix-rank1"], [[{" 1": "2", "+02": "1", "-0": "3"}]])
    assert code == 0
    assert payload["col"] == [[[0, "3"], [1, "2"], [2, "1"]]]


def test_other_input_errors(tmp_path):
    proc = run_cli("normalize", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    garbled = run_cli("normalize", "--json", stdin="{not json")
    assert garbled.returncode == 2
    doc = dict(RANK2_DOC)
    doc.pop("genus")
    no_genus = run_cli("aut", "--json", stdin=json.dumps(doc))
    assert no_genus.returncode == 2
    assert json.loads(no_genus.stdout)["error"]["kind"] == "input"


def test_non_utf8_document_is_an_input_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe\x00")
    proc = run_cli("normalize", str(path))
    assert proc.returncode == 2
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith(f"cannot read {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix-hecke", "--json", "--precision", "x"],
        ["aut", "--bogus"],
        ["bogus"],
        [],
        ["dims", "--genus", "2"],
    ],
)
def test_argument_errors_are_input_errors(argv):
    proc = run_cli(*argv, stdin="[[1]]")
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "input"


def test_help_still_prints_usage():
    proc = run_cli("aut", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: parastab aut")


@pytest.mark.parametrize(
    "pattern", ["[[3],[3]]", "[[0],[0]]", "[[1,1],[2]]", "[[1],[2,2]]", "[[-1],[1]]"]
)
def test_out_of_range_or_repeated_picks_exit_two(tmp_path, pattern):
    path = write_doc(tmp_path, "doc.json", RANK2_DOC)
    for argv in (["owt", path, "--pattern", pattern], ["bounds", path, "--pattern", pattern]):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "input"
        assert error["message"].startswith("invalid pattern")


ONE_POINT = {"r": 2, "degree": 0, "points": [{"label": "x", "weights": ["1/10", "7/10"]}]}


# one case per record built from parsed input: weights, curve, pattern, word, matrix
@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (
            ["normalize"],
            {**ONE_POINT, "points": [{"label": "x", "weights": ["0", "1/3", "2/3"]}]},
            "point x: expected 2 weights",
        ),
        (
            ["aut"],
            {**RANK2_DOC, "symmetries": [{"perm": [0, 0], "multiplicity": 1}]},
            "symmetry perms must permute 0..n-1",
        ),
        (
            ["owt", "--pattern", "[[3]]"],
            ONE_POINT,
            "invalid pattern: indices [3] out of range 1..2",
        ),
        (
            ["transform", "--word", '{"perm": [0], "sign": 1, "hecke": [0, 0]}'],
            ONE_POINT,
            "one Hecke value is required per point",
        ),
        (["matrix-rank1"], {"entries": [[1, 2], [3]]}, "ragged matrix"),
    ],
    ids=["weights", "curve", "pattern", "word", "matrix"],
)
def test_a_layer_refusing_parsed_input_is_an_input_error(argv, stdin, message):
    proc = run_cli(*argv, "--json", stdin=json.dumps(stdin))
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": {"kind": "input", "message": message}}
