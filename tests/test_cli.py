"""End-to-end command tests driving main() in process."""

import functools
import json
import os
import subprocess
import sys
import time
from importlib import resources

import pytest

from posetlim import cli
from posetlim.abgroup import free_group
from posetlim.diagram import constant_diagram
from posetlim.errors import OracleViolation, SchemaError
from posetlim.jsonio import parse_diagram, serialize_diagram, validate_report
from posetlim.randgen import MAX_OBJECTS

from helpers import crown_tower, diagrams_equal, intro_pushout
from record_golden import write_deep_chain


@pytest.fixture
def intro_path(tmp_path):
    doc = serialize_diagram(intro_pushout(), name="intro")
    p = tmp_path / "intro.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, intro_path):
    code, out, err = run(capsys, "validate", intro_path)
    assert code == 0
    assert "valid: 3 objects, 2 covers" in out
    assert err == ""


def test_colim_text(capsys, intro_path):
    code, out, _ = run(capsys, "colim", intro_path)
    assert code == 0
    assert "colim_0 = Z + Z/2" in out
    assert "colim_1 = 0" in out


def test_lim_text(capsys, intro_path):
    code, out, _ = run(capsys, "lim", intro_path)
    assert code == 0
    assert "lim_0 = Z" in out
    assert "lim_1 = 0" in out


def test_max_degree_truncates(capsys, intro_path):
    code, out, _ = run(capsys, "colim", intro_path, "--max-degree", "0")
    assert code == 0
    assert "colim_1" not in out


def test_classify_text(capsys, intro_path):
    code, out, _ = run(capsys, "classify", intro_path)
    assert code == 0
    assert "pseudo-projective: True" in out
    assert "projective:        False" in out
    assert "coker at b: Z/2" in out


def test_spectral_runs(capsys, intro_path):
    code, out, _ = run(capsys, "spectral", intro_path,
                       "--variant", "3", "--pages", "0..3")
    assert code == 0
    assert "variant chain:sigma_n:increasing" in out
    assert "page 0" in out and "page 3" in out


def test_spectral_variant_by_name(capsys, intro_path):
    code, out, _ = run(capsys, "spectral", intro_path,
                       "--variant", "cochain:sigma_0:increasing", "--pages", "1")
    assert code == 0
    assert "variant cochain:sigma_0:increasing" in out


def test_gallery_all_ok(capsys):
    code, out, _ = run(capsys, "gallery")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 12
    assert all(l.startswith("ok ") for l in lines)


def _bundled_gallery():
    return json.loads(resources.files("posetlim").joinpath("gallery.json").read_text())


def test_gallery_flipped_expectation_exits_two(capsys, monkeypatch):
    table = _bundled_gallery()
    assert table[0]["name"] == "intro_pushout"
    table[0]["report"]["projective"] = True
    monkeypatch.setattr(cli, "run_gallery", functools.partial(cli.run_gallery, table))
    classified = []
    real_classify = cli.classify_diagram
    monkeypatch.setattr(cli, "classify_diagram",
                        lambda F: classified.append(F) or real_classify(F))
    code, out, err = run(capsys, "gallery")
    assert code == 2
    assert out == ""
    assert "gallery intro_pushout: projective is false, expected true" in err
    assert len(classified) == len(table) == 12


def test_gallery_unknown_fact_exits_two(capsys, monkeypatch):
    table = _bundled_gallery()
    table[0]["report"]["no_such_fact"] = 1
    monkeypatch.setattr(cli, "run_gallery", functools.partial(cli.run_gallery, table))
    code, _, err = run(capsys, "gallery")
    assert code == 2
    assert "unknown fact 'no_such_fact'" in err


def test_gallery_covers_each_bundled_document_once():
    data = resources.files("posetlim").joinpath("data")
    stems = sorted(p.name[:-len(".json")] for p in data.iterdir()
                   if p.name.endswith(".json"))
    bundled = [e["name"] for e in _bundled_gallery() if "document" not in e]
    assert sorted(bundled) == stems


def test_generate_deterministic_and_parses(capsys):
    code, out1, _ = run(capsys, "generate", "--seed", "11", "--mode",
                        "pseudo_projective_by_construction")
    assert code == 0
    code, out2, _ = run(capsys, "generate", "--seed", "11", "--mode",
                        "pseudo_projective_by_construction")
    assert out1 == out2
    _, F = parse_diagram(out1)
    code, out3, _ = run(capsys, "generate", "--seed", "12", "--mode",
                        "pseudo_projective_by_construction")
    _, G = parse_diagram(out3)
    assert not diagrams_equal(F, G)


def test_generate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("POSETLIM_SEED", "11")
    _, out_env, _ = run(capsys, "generate")
    monkeypatch.delenv("POSETLIM_SEED")
    _, out_explicit, _ = run(capsys, "generate", "--seed", "11")
    assert json.loads(out_env) == json.loads(out_explicit)


def test_oracle_small(capsys):
    code, out, _ = run(capsys, "oracle", "--seeds", "2")
    assert code == 0
    assert "seeds: 2" in out


# exit codes and error envelopes


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.json")
    assert code == 1
    assert "error:" in err


def test_bad_json_file(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 1


def test_unreadable_input_is_exit_one(capsys, tmp_path):
    # a directory cannot be read, and bytes that are not UTF-8 cannot be
    # decoded: both are input errors, in text and in the JSON envelope
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"a": "\xff"}')
    for path in (str(tmp_path), str(p)):
        code, out, err = run(capsys, "colim", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        code, out, err = run(capsys, "--json", "colim", path)
        assert (code, out) == (1, "")
        assert "error" in json.loads(err)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("raw", [b"{nope", b'{"a": "\xff"}'], ids=["not_json", "not_utf8"])
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_malformed_document_is_a_schema_error(capsys, monkeypatch, tmp_path,
                                              raw, as_json, from_stdin):
    """The CLI reports a document that is not JSON, or not UTF-8, with
    the SchemaError that parse_diagram raises on the same bytes."""
    import io
    with pytest.raises(SchemaError) as info:
        parse_diagram(raw)
    assert str(info.value).startswith("invalid JSON: ")
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    code, out, err = run(capsys, *(["--json"] if as_json else []),
                         "validate", "-" if from_stdin else str(path))
    assert (code, out) == (1, "")
    if as_json:
        assert json.loads(err)["error"] == f"SchemaError: {info.value}"
    else:
        assert err == f"error: {info.value}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, option, value", [
    (["colim", "DOC", "--max-degree", "١"], "--max-degree", "١"),
    (["colim", "DOC", "--max-degree", "1_0"], "--max-degree", "1_0"),
    (["lim", "DOC", "--max-degree", " 1"], "--max-degree", " 1"),
    (["--max-chains", "١٠٠", "colim", "DOC"], "--max-chains", "١٠٠"),
    (["oracle", "--seeds", "٢"], "--seeds", "٢"),
    (["generate", "--seed", "٣"], "--seed", "٣"),
    (["generate", "--max-objects", "٥"], "--max-objects", "٥"),
    (["generate", "--max-degree-span", "٢"], "--max-degree-span", "٢"),
], ids=["arabic_degree", "underscore_degree", "spaced_degree", "arabic_chains",
        "arabic_seeds", "arabic_seed", "arabic_objects", "arabic_span"])
def test_integer_options_take_ascii_digits_only(capsys, intro_path, argv, option, value,
                                                as_json):
    """Every integer option reads an optional sign and ASCII digits, and
    refuses anything else int() would take, with argparse's usual text."""
    argv = [intro_path if a == "DOC" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        cli.main((["--json"] if as_json else []) + argv)
    out = capsys.readouterr()
    assert info.value.code == 1 and out.out == ""
    assert out.err.startswith("usage: posetlim")
    assert out.err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_pages_and_env_seed_take_ascii_digits_only(capsys, monkeypatch, intro_path, as_json):
    prefix = ["--json"] if as_json else []
    code, out, err = run(capsys, *prefix, "spectral", intro_path, "--variant", "3",
                         "--pages", "١..٢")
    message = "bad page range '١..٢'; use R or R0..R1"
    assert (code, out) == (1, "")
    if as_json:
        assert json.loads(err)["error"] == "PosetlimError: " + message
    else:
        assert err == f"error: {message}\n"
    monkeypatch.setenv("POSETLIM_SEED", "٣")
    code, out, err = run(capsys, *prefix, "generate")
    message = "POSETLIM_SEED must be an integer, got '٣'"
    assert (code, out) == (1, "")
    if as_json:
        assert json.loads(err)["error"] == "PosetlimError: " + message
    else:
        assert err == f"error: {message}\n"


def test_semantic_error_is_exit_one(capsys, intro_path):
    doc = json.loads(open(intro_path).read())
    doc["maps"]["a->b"]["data"] = [1, 2]
    import pathlib
    p = pathlib.Path(intro_path).with_name("broken.json")
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 1
    assert "a->b" in err


def test_argparse_error_is_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["colim", "--bogus"])
    assert info.value.code == 1


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv", [
    ["spectral", "DOC", "--variant", "3", "--pages", "-1"],
    ["spectral", "DOC", "--variant", "3", "--pages", "3..1"],
    ["spectral", "DOC", "--variant", "3", "--pages", "-2..1"],
    ["spectral", "DOC", "--variant", "3", "--pages=-2..1"],
    ["colim", "DOC", "--max-degree", "-1"],
    ["oracle", "--seeds", "-2"],
    ["generate", "--max-objects", "0"],
    ["generate", "--family", "layered", "--max-degree-span", "-1"],
    ["spectral", "DOC", "--variant", "3", "--pages", "0..100000000"],
    ["colim", "DOC", "--max-degree", "100000000"],
    ["lim", "DOC", "--max-degree", "65536"],
], ids=["negative_page", "reversed_pages", "minus_range_spaced", "minus_range_joined",
        "negative_degree", "negative_seeds",
        "no_objects", "negative_span",
        "huge_page_range", "huge_degree", "degree_at_bound"])
def test_numbers_out_of_range_exit_one(capsys, intro_path, argv, as_json):
    argv = [intro_path if a == "DOC" else a for a in argv]
    code, out, err = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    if as_json:
        assert json.loads(err)["error"].startswith("PosetlimError: ")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_generate_refuses_sizes_it_cannot_build(capsys):
    """generate refuses more than randgen.MAX_OBJECTS objects at once, in
    text and with --json, where the draw would run for minutes (20,000
    objects) or run out of memory (100,000); MAX_OBJECTS itself builds."""
    want = f"max_objects must be at most {MAX_OBJECTS}"
    for m in (MAX_OBJECTS + 1, 20000, 100000):
        argv = ["generate", "--family", "layered", "--max-objects", str(m)]
        start = time.perf_counter()
        assert run(capsys, *argv) == (1, "", f"error: {want}\n")
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == f"PosetlimError: {want}"
        assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "generate", "--max-objects", str(MAX_OBJECTS))
    assert code == 0 and parse_diagram(out)


def test_over_the_chain_budget_exits_one_within_a_second(capsys, tmp_path):
    """crown_tower(30) has 3^30 - 1 chains and no greatest or least
    element, so no group of its matchings is a cone; every command that
    needs a complex refuses it, counting chains without listing them."""
    doc = serialize_diagram(constant_diagram(crown_tower(30), free_group(1)), name="tower")
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    for argv in (["colim", str(path)], ["lim", str(path)], ["classify", str(path)],
                 ["spectral", str(path), "--variant", "3"]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.endswith(
            "chains, more than the budget of 100000 (--max-chains)\n"), err


def test_a_chain_of_1500_objects_is_walked_without_deep_recursion(capsys, tmp_path):
    """The poset's closures and length walk the ids by degree, so a chain
    deeper than the interpreter's recursion limit validates, and its
    colim is Z in degree 0 and 0 in every other degree."""
    path = write_deep_chain(str(tmp_path))
    code, out, err = run(capsys, "validate", path)
    assert (code, out, err) == (0, "valid: 1500 objects, 1499 covers, direction increasing\n", "")
    code, out, err = run(capsys, "--json", "colim", path)
    assert code == 0 and err == ""
    colim = json.loads(out)["derived"]["colim"]
    assert len(colim) == 1500
    assert colim[0] == {"free_rank": 1, "invariant_factors": []}
    assert all(g == {"free_rank": 0, "invariant_factors": []} for g in colim[1:])


def test_the_nerve_of_a_chain_of_1500_objects_is_refused_within_seconds(capsys, tmp_path):
    """On a chain every interval has a greatest element, so each group of
    the two-ended matching is settled from the lower covers of its foot,
    and page 0's nerve count of 2^1500 - 1 keeps one total per object:
    spectral --variant 3 refuses the nerve, in text and with --json."""
    path = write_deep_chain(str(tmp_path))
    want = (f"the nerve would list at least {2 ** 1500 - 1} chains, more than the budget "
            "of 100000 (--max-chains)")
    start = time.perf_counter()
    code, out, err = run(capsys, "spectral", path, "--variant", "3")
    assert (code, out, err) == (1, "", f"error: {want}\n")
    code, out, err = run(capsys, "--json", "spectral", path, "--variant", "3")
    assert time.perf_counter() - start < 30
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == f"ChainBudgetError: {want}"


@pytest.mark.parametrize("variant, key", [("4", (1499, -1499)), ("7", (0, 0))])
def test_pages_of_a_chain_of_1500_objects_hold_one_z_within_seconds(capsys, tmp_path,
                                                                    variant, key):
    """Constant Z on a chain has colim Z and lim Z in degree 0, and the
    carrier matching leaves one critical cell, at the top level for
    chain:sigma_0 and at the bottom for cochain:sigma_n: pages 1..3 each
    hold one Z there, in text and with --json, each in under 10 s."""
    path = write_deep_chain(str(tmp_path))
    argv = ["spectral", path, "--variant", variant, "--pages", "1..3"]
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", *argv)
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    pages = json.loads(out)["spectral"]["pages"]
    assert [pg["r"] for pg in pages] == [1, 2, 3]
    z = {"free_rank": 1, "invariant_factors": []}
    assert all(pg["entries"] == [{"p": key[0], "q": key[1], "group": z}] for pg in pages)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    grids = out.split("\n\n")
    assert len(grids) == 3 and all(g.count(" Z\n") == 1 for g in grids)


def test_max_chains_counts_what_is_listed(capsys, intro_path):
    """On the pushout the colim matching lists the 3 tails above a and
    the lone chains b and c; lim's groups below b and c are cones."""
    code, _, err = run(capsys, "--max-chains", "4", "colim", intro_path)
    assert code == 1 and "would list at least 5 chains" in err
    assert run(capsys, "--max-chains", "5", "colim", intro_path)[0] == 0
    assert run(capsys, "--max-chains", "1", "lim", intro_path)[0] == 0
    code, _, err = run(capsys, "--max-chains", "-1", "lim", intro_path)
    assert code == 1 and err == "error: --max-chains must be at least 0, got -1\n"


def test_bounds_on_pages_and_degrees_are_named(capsys, intro_path):
    code, _, err = run(capsys, "spectral", intro_path, "--variant", "3", "--pages", "1..65537")
    assert code == 1
    assert "asks for 65537 pages; at most 65536 are supported" in err
    code, _, err = run(capsys, "colim", intro_path, "--max-degree", "65536")
    assert code == 1
    assert "--max-degree must be below 65536, got 65536" in err


def test_far_page_is_the_page_after_the_span(capsys, intro_path):
    """intro_pushout spans one degree, so page 2 is where pages settle."""
    code, out, _ = run(capsys, "--json", "spectral", intro_path, "--variant", "3",
                       "--pages", "5000")
    assert code == 0
    far, = json.loads(out)["spectral"]["pages"]
    code, out, _ = run(capsys, "--json", "spectral", intro_path, "--variant", "3",
                       "--pages", "2")
    settled, = json.loads(out)["spectral"]["pages"]
    assert far["r"] == 5000 and far["bidegree"] == [-5000, 4999]
    assert far["entries"] == settled["entries"] and far["entries"]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_pages_with_leading_minus_same_in_both_spellings(capsys, intro_path, as_json):
    """argparse would read the -2..1 of '--pages -2..1' as an option."""
    prefix = ["--json"] if as_json else []
    spaced = run(capsys, *prefix, "spectral", intro_path, "--variant", "3", "--pages", "-2..1")
    joined = run(capsys, *prefix, "spectral", intro_path, "--variant", "3", "--pages=-2..1")
    assert spaced == joined
    code, out, err = spaced
    assert code == 1 and out == ""
    assert "bad page range '-2..1'; need 0 <= R0 <= R1" in err


def test_variant_out_of_range(capsys, intro_path):
    code, _, err = run(capsys, "spectral", intro_path, "--variant", "9")
    assert code == 1
    assert "1..8" in err


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec", ["foo", "²"], ids=["name", "superscript_digit"])
def test_unknown_variant_exits_one(capsys, intro_path, spec, as_json):
    """A name that is no preset, or a digit that is not ASCII, is refused
    like any other bad argument, with the library's ValueError text."""
    code, out, err = run(capsys, *(["--json"] if as_json else []),
                         "spectral", intro_path, "--variant", spec)
    assert code == 1 and out == "" and "Traceback" not in err
    message = f"unknown variant {spec!r}; choose from chain:sigma_n:decreasing"
    if as_json:
        assert json.loads(err)["error"].startswith("PosetlimError: " + message)
    else:
        assert err.startswith("error: " + message) and err.count("\n") == 1


def test_variant_direction_mismatch(capsys, intro_path):
    # variant 1 filters decreasing posets, the intro pushout is increasing
    code, _, err = run(capsys, "spectral", intro_path, "--variant", "1")
    assert code == 1


def test_oracle_violation_is_exit_two(capsys, monkeypatch):
    def boom():
        raise OracleViolation("forced failure")
    monkeypatch.setattr(cli, "run_gallery", boom)
    code, _, err = run(capsys, "gallery")
    assert code == 2
    assert "forced failure" in err


def test_json_error_envelope(capsys):
    code = cli.main(["--json", "validate", "/nonexistent/x.json"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    payload = json.loads(out.err)
    assert payload["command"] == "validate"
    assert "error" in payload


# JSON reports conform to the report schema


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["colim"],
    ["lim"],
    ["classify"],
    ["spectral", "--variant", "3", "--pages", "0..2"],
])
def test_json_reports_validate(capsys, intro_path, argv):
    code, out, _ = run(capsys, "--json", argv[0], intro_path, *argv[1:])
    assert code == 0
    rep = json.loads(out)
    validate_report(rep)
    assert rep["command"] in (argv[0],)
    assert rep["input_name"] == "intro"
    assert isinstance(rep["input_digest"], str)


def test_json_report_gallery_and_generate(capsys):
    code, out, _ = run(capsys, "--json", "gallery")
    assert code == 0
    rep = json.loads(out)
    validate_report(rep)
    assert all(entry["ok"] for entry in rep["gallery"])

    code, out, _ = run(capsys, "--json", "generate", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    validate_report(rep)
    assert rep["seed"] == 3
    parse_diagram(rep["document"])


def test_stdin_document(capsys, monkeypatch, intro_path):
    import io
    stdin = io.TextIOWrapper(io.BytesIO(open(intro_path, "rb").read()))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert "valid" in out


def test_parser_is_reused_across_calls(capsys, intro_path):
    """main() builds its parser once per process; every call, argument
    errors included, prints and returns what a freshly built parser gives."""
    calls = [
        ("--json", "validate", intro_path),
        ("colim", intro_path, "--max-degree", "1"),
        ("spectral", intro_path),                      # --variant missing
        ("--json", "spectral", intro_path, "--variant", "3", "--pages", "1"),
        ("lim", intro_path),
        ("frobnicate",),                               # unknown command
        ("--json", "classify", intro_path),
        ("generate", "--seed", "3", "--family", "layered"),
    ]

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    reused = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 1, 0, 0, 1, 0, 0]
    assert "the following arguments are required: --variant" in reused[2][2]


def test_closed_stdout_exits_one_quietly():
    """A reader that leaves early (posetlim generate | head) closes the
    pipe.  The read end is closed before the interpreter starts, so the
    first write fails whatever the timing; the run must exit 1 with no
    traceback and no 'Exception ignored' from the flush at exit."""
    script = "\n".join([
        "import sys",
        "from posetlim import cli",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for argv in (["generate", "--seed", "1"], ["--json", "generate", "--seed", "1"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run([sys.executable, "-c", script, *argv], stdout=write_end,
                               stderr=subprocess.PIPE, text=True,
                               env=dict(os.environ, PYTHONPATH=path), timeout=300)
        finally:
            os.close(write_end)
        assert r.returncode == 1, (argv, r.stderr[-2000:])
        assert r.stderr == "", (argv, r.stderr[-2000:])


def test_cli_never_imports_numpy():
    """IntMatrix is the only matrix type, so neither the library nor the
    CLI loads numpy; run in a fresh interpreter, where nothing else has."""
    script = "\n".join([
        "import sys",
        "from importlib import resources",
        "from posetlim import cli",
        "doc = str(resources.files('posetlim').joinpath('data/intro_pushout.json'))",
        "for argv in (['--json', 'colim', doc], ['--json', 'classify', doc],",
        "             ['--json', 'spectral', '--variant', '3', doc], ['gallery']):",
        "    assert cli.main(argv) == 0, argv",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]


def test_cli_never_imports_dataclasses_or_inspect():
    """The records are named tuples, so neither the library nor any --json
    command loads dataclasses or inspect; run in a fresh interpreter."""
    script = "\n".join([
        "import contextlib, io, sys",
        "from importlib import resources",
        "import posetlim",
        "from posetlim import cli",
        "def loaded():",
        "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]",
        "assert not loaded(), ('import posetlim', loaded())",
        "doc = str(resources.files('posetlim').joinpath('data/intro_pushout.json'))",
        "for argv in (['validate', doc], ['colim', doc], ['lim', doc], ['classify', doc],",
        "             ['spectral', '--variant', '3', doc], ['gallery'],",
        "             ['generate', '--seed', '1'], ['oracle', '--seeds', '2']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(['--json', *argv]) == 0, argv",
        "    assert not loaded(), (argv, loaded())",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]


def test_jsonschema_loads_only_to_explain_a_refusal(tmp_path):
    """Valid documents and reports are checked without jsonschema; the first
    refused document loads it and prints jsonschema's best_match text."""
    bad = tmp_path / "bad.json"
    doc = json.loads(resources.files("posetlim").joinpath("data/intro_pushout.json").read_text())
    doc["poset"]["direction"] = "sideways"
    bad.write_text(json.dumps(doc))
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from importlib import resources",
        "import posetlim",
        "from posetlim import cli, jsonio",
        "assert 'jsonschema' not in sys.modules, 'import posetlim'",
        "doc = str(resources.files('posetlim').joinpath('data/intro_pushout.json'))",
        "reports = []",
        "for argv in (['validate', doc], ['colim', doc], ['lim', doc], ['classify', doc],",
        "             ['spectral', '--variant', '3', doc], ['gallery']):",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        assert cli.main(['--json', *argv]) == 0, argv",
        "    reports.append(json.loads(out.getvalue()))",
        "    assert 'jsonschema' not in sys.modules, argv",
        "for rep in reports:",
        "    jsonio.validate_report(rep)",
        "assert 'jsonschema' not in sys.modules, 'validate_report'",
        "assert cli.main(['colim', sys.argv[1]]) == 1",
        "assert 'jsonschema' in sys.modules, 'refused document'",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", script, str(bad)], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stderr == ("error: at /poset/direction: 'sideways' is not one of "
                        "['increasing', 'decreasing']\n")
