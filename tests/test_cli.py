import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodgradings import cli
from goodgradings.cli import build_parser, main
from goodgradings.gradings import block_type_dim
from goodgradings.partitions import (enumerate_super_partitions,
                                     is_orthosymplectic)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_gl(capsys):
    code, out, _ = _run(capsys, [
        "classify", "gl", "2", "1", "--orbit", '{"p": [2], "q": [1]}'])
    assert code == 0
    js = json.loads(out)
    assert js["count"] == 3
    assert all(g["provenance"] == "pyramid" for g in js["gradings"])


def test_classify_gl_with_oracle(capsys):
    code, out, _ = _run(capsys, [
        "classify", "gl", "2", "1", "--orbit", '{"p": [2], "q": [1]}',
        "--bound", "2"])
    assert code == 0
    assert json.loads(out)["notes"]["oracleAgrees"] is True


def test_classify_oracle_saturation(capsys):
    # the oracle needs no bound: any bound from the largest part up gives
    # the same output
    argv = ["classify", "gl", "2", "1", "--orbit", '{"p":[2],"q":[1]}']
    low, high = (_run(capsys, argv + ["--bound", b]) for b in ("2", "4"))
    assert low[0] == 0
    assert low == high


def test_classify_osp(capsys):
    code, out, _ = _run(capsys, [
        "classify", "osp", "6", "4", "--orbit", '{"p": [3, 3], "q": [4]}'])
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_classify_osp_half_integer_degrees(capsys):
    code, out, _ = _run(capsys, [
        "classify", "osp", "6", "4", "--orbit", '{"p": [3, 3], "q": [2, 2]}'])
    assert code == 0
    js = json.loads(out)
    # rationals serialize as "a/b" strings
    flat = json.dumps(js)
    assert "/2" in flat


def test_classify_orbit_mismatch(capsys):
    code, _, err = _run(capsys, [
        "classify", "gl", "3", "1", "--orbit", '{"p": [2], "q": [1]}'])
    assert code == 2
    assert "error" in err


def test_classify_bad_orbit_json(capsys):
    code, _, err = _run(capsys, [
        "classify", "gl", "2", "1", "--orbit", "nonsense"])
    assert code == 2


def test_classify_not_orthosymplectic(capsys):
    code, _, err = _run(capsys, [
        "classify", "osp", "2", "2", "--orbit", '{"p": [2], "q": [2]}'])
    assert code == 2


def test_osp_odd_dimension_rejected(capsys):
    code, _, err = _run(capsys, [
        "centralizer", "osp", "3", "3", "--orbit", '{"p": [3], "q": [2, 1]}'])
    assert code == 2


def test_verify_good(capsys):
    code, out, _ = _run(capsys, [
        "verify", "gl", "2", "0", "--H", "[1, -1]", "--e", "E12"])
    assert code == 0
    assert json.loads(out)["good"] is True


def test_verify_bad(capsys):
    code, out, _ = _run(capsys, [
        "verify", "gl", "2", "0", "--H", "[4, 0]", "--e", "E12"])
    assert code == 1
    assert json.loads(out)["good"] is False


def test_verify_mixed_e(capsys):
    # e = E41 + 2 E43 in gl(2|2) is neither even nor odd; its kernel has
    # vectors that are neither, and one of them reaches degree -1
    code, out, _ = _run(capsys, [
        "verify", "gl", "2", "2", "--H", "[-2,-1,-2,0]",
        "--e", "[[0,0,0,0],[0,0,0,0],[0,0,0,0],[1,0,2,0]]"])
    assert code == 1
    assert json.loads(out)["good"] is False


def test_verify_wrong_h_length(capsys):
    code, _, err = _run(capsys, [
        "verify", "gl", "2", "0", "--H", "[1]", "--e", "E12"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E99"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E01"],
    ["verify", "gl", "2", "0", "--H", '[1,"a"]', "--e", "E12"],
    ["verify", "gl", "2", "0", "--H", "[1/2,0]", "--e", "E12"],
    ["verify", "gl", "2", "0", "--H", '["1/0",0]', "--e", "E12"],
    ["verify", "gl", "2", "0", "--H", "5", "--e", "E12"],
    ["verify", "osp", "2", "2", "--H", "[1,0,0,0]", "--e", "E12"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "[[0,1]]"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "[[0,1],5]"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "[[0,1],[0]]"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E1,2,3"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E123"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "Ex2"],
    ["classify", "gl", "0", "0", "--orbit", '{"p":[],"q":[]}'],
    ["classify", "osp", "1", "0", "--orbit", '{"p":[1],"q":[]}'],
    ["classify", "gl", "2", "1", "--orbit", '{"p":[2],"q":[1]}',
     "--bound", "1"],
    ["classify", "gl", "1", "0", "--orbit", '{"p":[1.5],"q":[]}'],
    ["classify", "gl", "1", "0", "--orbit", '{"p":[true],"q":[]}'],
    ["selftest", "--max-size", "-1"],
    ["selftest", "--max-size", "0"],
    ["verify", "gl", "2", "1", "--H", '["1/3","0","0"]', "--e", "E12"],
    ["pyramids", "gl", "0", "0", "--orbit", '{"p":[],"q":[]}'],
    ["pyramids", "osp", "0", "0", "--orbit", '{"p":[],"q":[]}'],
    ["pyramids", "osp", "2", "0", "--orbit", '{"p":[1,1],"q":[]}'],
    ["pyramids", "osp", "0", "2", "--orbit", '{"p":[],"q":[2]}'],
    ["classify", "gl", "2", "1", "--orbit", "5"],
    ["classify", "gl", "2", "1", "--orbit", '{"p":[2]}'],
    ["classify", "gl", "2", "1", "--orbit", "[1,2]"],
    ["classify", "gl", "2", "1", "--orbit", '{"p":2,"q":[1]}'],
    # --orbit shapes that SuperPartition.from_json refuses with ValueError,
    # the one error _parse_orbit catches
    *(["classify", "gl", "2", "1", "--orbit", shape] for shape in [
        "null", '"x"', "{}", "true", "[]", '{"q":[1]}', '{"p":[2],"q":1}',
        '{"p":["a"],"q":[1]}', '{"p":[null],"q":[1]}', '{"p":[[2]],"q":[1]}',
        '{"p":{"a":1},"q":[1]}', '{"p":[NaN],"q":[1]}', '{"p":[2],"q":[1]']),
])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("first, second", [
    (["classify", "gl", "2", "1", "--orbit", '{"p":[2],"q":[1]}',
      "--bound", "4"],
     ["classify", "gl", "2", "1", "--orbit", '{"p":[2],"q":[1]}']),
    (["verify", "gl", "2", "1", "--H", '["1/2","-1/2","1/2"]', "--e", "E12"],
     ["diagram", "gl", "2", "1", "--orbit", '{"p":[2],"q":[1]}']),
], ids=["classify-bound-then-none", "verify-then-diagram"])
def test_shared_parser_keeps_no_state(capsys, first, second):
    build_parser.cache_clear()
    shared = [_run(capsys, first), _run(capsys, second)]
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    fresh = []
    for argv in (first, second):
        build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert shared == fresh


def test_verify_e_outside_algebra(capsys):
    code, out, err = _run(capsys, [
        "verify", "osp", "2", "2", "--H", "[1,-1,0,0]", "--e", "E12"])
    assert code == 2
    assert err == "error: e is not in osp(2|2)\n"


@pytest.mark.parametrize("argv, size", [
    (["verify", "gl", "100000", "1", "--H", "[1]", "--e", "E12"], 100001),
    (["verify", "osp", "100000", "2", "--H", "[1]", "--e", "E12"], 100002),
], ids=["gl", "osp"])
def test_verify_checks_h_before_building(capsys, monkeypatch, argv, size):
    # a wrong --H length exits 2 before the algebra is built
    def refuse(m, n):
        raise AssertionError("built the algebra (%d|%d)" % (m, n))

    monkeypatch.setattr(cli, "build_gl", refuse)
    monkeypatch.setattr(cli, "build_osp", refuse)
    assert _run(capsys, argv) == \
        (2, "", "error: need %d diagonal entries\n" % size)


def test_format_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "gl", "2", "1", "--orbit", '{"p":[2],"q":[1]}',
              "--format", "text"])
    assert exc.value.code == 2


def test_centralizer(capsys):
    code, out, _ = _run(capsys, [
        "centralizer", "gl", "4", "6",
        "--orbit", '{"p": [3, 1], "q": [4, 2]}'])
    assert code == 0
    js = json.loads(out)
    assert (js["evenDim"], js["oddDim"]) == (16, 14)
    assert js["sCentralizerDim"] == js["predictedBlockDim"]


@pytest.mark.parametrize("kind, m, n, orbit", [
    ("gl", "4", "6", '{"p": [3, 1], "q": [4, 2]}'),
    ("osp", "6", "2", '{"p": [3, 3], "q": [2]}'),
])
def test_centralizer_checks_the_prediction(capsys, monkeypatch, kind, m, n,
                                           orbit):
    # the dimensions match their formulas, but one more predicted block
    # makes the printed prediction disagree with dim g^s: exit 1
    predicted = cli.predicted_block_types
    monkeypatch.setattr(cli, "predicted_block_types",
                        lambda R, sp: predicted(R, sp) + [(R.kind, 1, 1)])
    code, out, _ = _run(capsys, ["centralizer", kind, m, n,
                                 "--orbit", orbit])
    js = json.loads(out)
    assert (js["evenDim"], js["oddDim"]) == \
        (js["formulaEvenDim"], js["formulaOddDim"])
    assert js["sCentralizerDim"] + block_type_dim((kind, 1, 1)) == \
        js["predictedBlockDim"]
    assert code == 1


def test_pyramids_json(capsys):
    code, out, _ = _run(capsys, [
        "pyramids", "gl", "4", "6", "--orbit", '{"p": [3, 1], "q": [4, 2]}'])
    assert code == 0
    assert json.loads(out)["count"] == 27


def test_pyramids_pretty(capsys):
    code, out, _ = _run(capsys, [
        "pyramids", "osp", "6", "4", "--orbit", '{"p": [3, 3], "q": [4]}',
        "--pretty"])
    assert code == 0
    assert "+" in out and "-" in out


def test_diagram(capsys):
    code, out, _ = _run(capsys, [
        "diagram", "gl", "2", "0", "--orbit", '{"p": [2], "q": []}'])
    assert code == 0
    js = json.loads(out)
    assert js["marks"] == [2]


def test_diagram_osp(capsys):
    code, out, _ = _run(capsys, [
        "diagram", "osp", "6", "4", "--orbit", '{"p": [3, 3], "q": [4]}'])
    assert code == 0
    js = json.loads(out)
    assert all(m >= 0 for m in js["marks"])


def test_selftest(capsys):
    code, out, _ = _run(capsys, ["selftest", "--max-size", "3"])
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_selftest_lists_dimension_failures(capsys, monkeypatch):
    # a wrong closed form is a "dims" failure on every orbit checked
    monkeypatch.setattr(cli, "_dim_formula", lambda sp, kind: (-1, -1))
    code, out, _ = _run(capsys, ["selftest", "--max-size", "2"])
    assert code == 1
    assert json.loads(out)["failures"] == [
        "gl dims SuperPartition(p=(1,), q=(1,))"]


def test_selftest_lists_failures(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_good", lambda g, e: False)
    code, out, _ = _run(capsys, ["selftest", "--max-size", "2"])
    assert code == 1
    assert json.loads(out)["failures"] == [
        "gl dynkin not good SuperPartition(p=(1,), q=(1,))"]


def test_verify_reads_the_comma_element_spec(capsys):
    argv = ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e"]
    comma = _run(capsys, argv + ["E1,2"])
    assert comma[0] == 0 and comma == _run(capsys, argv + ["E12"])


# Random argv for the input contract: mostly well-formed requests on sizes
# 0-4, each part of which may be replaced by a malformed one.  selftest's
# --max-size is at most 3 and --bound at most 4, so no example starts a
# large sweep.
_junk = st.sampled_from(["", "x", "-1", "2.5", "1e9", "null", "[1,", "[1]",
                         '{"p":[2]', '{"q":[2]}', '{"p":"x","q":[]}',
                         '{"p":[1.5],"q":[]}', '{"p":[true],"q":[]}',
                         '["1/0"]', '[[0,1],5]', "E1", "Exy", "E99"])


@st.composite
def _argv(draw):
    def maybe_junk(value):
        return draw(_junk) if draw(st.integers(0, 9)) == 0 else value

    verb = draw(st.sampled_from(["classify", "verify", "centralizer",
                                 "pyramids", "diagram", "selftest"]))
    if verb == "selftest":
        argv = [verb, "--max-size", maybe_junk(str(draw(st.integers(-1, 3))))]
        return argv + draw(st.sampled_from([[], ["--pretty"]]))
    kind = draw(st.sampled_from(["gl", "osp"]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    argv = [verb, maybe_junk(kind), maybe_junk(str(m)), maybe_junk(str(n))]
    if verb == "verify":
        size = max(0, m + n + draw(st.sampled_from([0, 0, 0, 1, -1])))
        diag = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2, "1/2"]),
                             min_size=size, max_size=size))
        argv += ["--H", maybe_junk(json.dumps(diag))]
        if draw(st.booleans()):
            e = "E%d%d" % (draw(st.integers(0, size + 1)),
                           draw(st.integers(0, size + 1)))
        else:
            e = json.dumps(draw(st.lists(st.lists(
                st.integers(-1, 1), min_size=size, max_size=size),
                min_size=size, max_size=size)))
        argv += ["--e", maybe_junk(e)]
    else:
        orbits = enumerate_super_partitions(m, n)
        if kind == "osp":
            orbits = [sp for sp in orbits if is_orthosymplectic(sp)] or orbits
        orbit = draw(st.sampled_from(orbits)).to_json()
        argv += ["--orbit", maybe_junk(json.dumps(orbit))]
        if verb == "classify" and draw(st.booleans()):
            argv += ["--bound", maybe_junk(str(draw(st.integers(0, 4))))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_junk))
    return argv + draw(st.sampled_from([[], ["--pretty"]]))


@settings(max_examples=200)
@given(_argv())
def test_main_never_raises(argv):
    """main exits 0, 1 or 2, never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            if code == 2:
                assert err.getvalue().startswith("error: ")
    assert code in (0, 1, 2)


def _json_schema_section():
    """The code of README's "JSON schemas" section (its code spans and
    blocks), as a set of identifiers."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    section = text[text.index("### JSON schemas"):]
    section = section[:section.index("\n## ")]
    code = " ".join(re.findall(r"`+([^`]*)`+", section, re.S))
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))


def _key_names(obj, skip=False):
    """Every key name in a JSON value; the keys of a `degrees` object are
    basis indices and are skipped."""
    names = set()
    if isinstance(obj, dict):
        if not skip:
            names |= set(obj)
        for key, value in obj.items():
            names |= _key_names(value, key == "degrees")
    elif isinstance(obj, list):
        for value in obj:
            names |= _key_names(value)
    return names


def test_documented_json_schema_is_emitted_schema(capsys):
    """Every key the CLI emits is named in README's JSON schemas section:
    one request per verb, and the classify requests that add notes (the
    half case, 1 in C(p), --bound)."""
    orbit21 = ["--orbit", '{"p":[2],"q":[1]}']
    orbit64 = ["--orbit", '{"p":[3,3],"q":[4]}']
    requests = [
        ["classify", "osp", "6", "4", *orbit64],
        ["classify", "osp", "6", "4", "--orbit", '{"p":[3,3],"q":[2,2]}'],
        ["classify", "osp", "2", "2", "--orbit", '{"p":[1,1],"q":[2]}'],
        ["classify", "gl", "2", "1", *orbit21, "--bound", "2"],
        ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E12"],
        ["centralizer", "osp", "6", "4", *orbit64],
        ["pyramids", "gl", "2", "1", *orbit21],
        ["pyramids", "osp", "6", "4", *orbit64],
        ["diagram", "gl", "2", "1", *orbit21],
        ["selftest", "--max-size", "2"],
    ]
    emitted = set()
    for argv in requests:
        code, out, _ = _run(capsys, argv)
        assert code in (0, 1), argv
        emitted |= _key_names(json.loads(out))
    assert {"rejectedByGoodness", "lastShiftBoundTerms", "oracleAgrees",
            "label", "checked"} <= emitted
    assert emitted - _json_schema_section() == set()
