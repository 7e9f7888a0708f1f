"""Document round-trips, canonical hashing, both error layers, and the
compiled schema checker against jsonschema as its oracle."""

import contextlib
import copy
import functools
import io
import json
from importlib import resources

import pytest

from posetlim import cli
from posetlim.diagram import diagrams_equal
from posetlim.errors import EmptyPosetError, SchemaError, ValidationError
from posetlim.jsonio import (
    DIAGRAM_SCHEMA,
    REPORT_SCHEMA,
    _compiled,
    canonical_bytes,
    compile_schema,
    digest,
    parse_diagram,
    serialize_diagram,
    validate_report,
)
from posetlim.randgen import DIAGRAM_MODES, POSET_FAMILIES, GenConfig, gen_diagram, gen_poset

from helpers import intro_pushout, times_two_pullback


def sample_doc():
    return serialize_diagram(intro_pushout(), name="intro")


def _intro_edit(edit):
    doc = sample_doc()
    edit(doc)
    return doc


def test_round_trip_bundled_shapes():
    for build in (intro_pushout, times_two_pullback):
        F0 = build()
        P1, F1 = parse_diagram(serialize_diagram(F0))
        assert diagrams_equal(F0, F1)
        assert P1.direction == F0.poset.direction
        assert P1.display_degrees == F0.poset.display_degrees


def test_round_trip_generated():
    for seed in range(6):
        for mode in ("sums_of_standard", "pseudo_projective_by_construction"):
            cfg = GenConfig(seed=seed, family="layered" if seed % 2 else "forest")
            F0 = gen_diagram(cfg, gen_poset(cfg), mode)
            _, F1 = parse_diagram(serialize_diagram(F0))
            assert diagrams_equal(F0, F1)


def test_parse_accepts_bytes_str_and_dict():
    doc = sample_doc()
    as_str = json.dumps(doc)
    for data in (doc, as_str, as_str.encode()):
        _, F = parse_diagram(data)
        assert diagrams_equal(F, intro_pushout())


def test_canonical_bytes_ignores_key_order():
    doc = sample_doc()
    shuffled = json.loads(json.dumps(doc))
    shuffled["poset"] = dict(reversed(list(shuffled["poset"].items())))
    assert canonical_bytes(doc) == canonical_bytes(shuffled)
    assert digest(doc) == digest(shuffled)


def test_digest_distinguishes_content():
    doc = sample_doc()
    other = json.loads(json.dumps(doc))
    other["maps"]["a->b"]["data"][0] = 3
    assert digest(doc) != digest(other)
    assert len(digest(doc)) == 64
    int(digest(doc), 16)


def test_serialization_is_deterministic():
    a = canonical_bytes(sample_doc())
    b = canonical_bytes(sample_doc())
    assert a == b


# structural failures


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        parse_diagram("{not json")


def test_missing_required_field():
    doc = sample_doc()
    del doc["format_version"]
    with pytest.raises(SchemaError):
        parse_diagram(doc)


def test_bad_direction_enum():
    doc = sample_doc()
    doc["poset"]["direction"] = "sideways"
    with pytest.raises(SchemaError) as info:
        parse_diagram(doc)
    assert "direction" in info.value.pointer or "direction" in str(info.value)


def test_cover_arity_is_structural():
    doc = sample_doc()
    doc["poset"]["covers"][0] = ["a", "b", "c"]
    with pytest.raises(SchemaError):
        parse_diagram(doc)


def test_negative_rank_is_structural():
    doc = sample_doc()
    doc["groups"]["a"]["rank"] = -1
    with pytest.raises(SchemaError):
        parse_diagram(doc)


def test_map_key_shape_is_structural():
    doc = sample_doc()
    doc["maps"]["nonsense"] = doc["maps"].pop("a->b")
    with pytest.raises(SchemaError):
        parse_diagram(doc)


# semantic failures


def test_empty_poset_is_its_own_error():
    doc = sample_doc()
    doc["poset"]["objects"] = []
    doc["poset"]["covers"] = []
    doc["groups"] = {}
    doc["maps"] = {}
    with pytest.raises(EmptyPosetError):
        parse_diagram(doc)


def test_cover_with_degree_jump():
    doc = sample_doc()
    doc["poset"]["objects"] = [{"id": "a", "degree": 0}, {"id": "b", "degree": 2},
                               {"id": "c", "degree": 1}]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/poset"


def test_duplicate_object_id():
    doc = sample_doc()
    doc["poset"]["objects"].append({"id": "a", "degree": 0})
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/poset"


def test_groups_must_match_objects():
    doc = sample_doc()
    del doc["groups"]["c"]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/groups"

    doc = sample_doc()
    doc["groups"]["zzz"] = {"rank": 1, "relations": {"rows": 1, "cols": 0, "data": []}}
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert "zzz" in str(info.value)


def test_relations_row_count_must_match_rank():
    doc = sample_doc()
    doc["groups"]["a"]["relations"] = {"rows": 2, "cols": 0, "data": []}
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/groups/a"


def test_matrix_data_length_mismatch():
    doc = sample_doc()
    doc["maps"]["a->b"] = {"rows": 1, "cols": 1, "data": [1, 2]}
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer.startswith("/maps/a->b")


@pytest.mark.parametrize("edit, pointer", [
    (lambda d: d["groups"]["a"].update(rank=0, relations={"rows": 0, "cols": 2 ** 64,
                                                          "data": []}),
     "/groups/a/relations"),
    (lambda d: d["groups"]["a"].update(rank=2 ** 64, relations={"rows": 2 ** 64, "cols": 0,
                                                                "data": []}),
     "/groups/a/relations"),
    (lambda d: d["maps"].update({"a->b": {"rows": 2 ** 64, "cols": 0, "data": []}}),
     "/maps/a->b"),
], ids=["relation_columns", "rank", "map_rows"])
def test_empty_matrix_of_huge_size_is_refused(edit, pointer):
    # rows x 0 matches empty data for any rows; building it would exhaust memory
    with pytest.raises(ValidationError) as info:
        parse_diagram(_intro_edit(edit))
    assert info.value.pointer == pointer
    assert "at most 65536 rows and columns" in str(info.value)


def test_map_for_missing_cover():
    doc = sample_doc()
    doc["maps"]["b->c"] = {"rows": 1, "cols": 1, "data": [1]}
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/maps/b->c"


def test_map_dimension_mismatch():
    doc = sample_doc()
    doc["maps"]["a->b"] = {"rows": 2, "cols": 1, "data": [1, 0]}
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/maps/a->b"


def test_map_must_respect_relations():
    # Z/2 -> Z/3 by 1 is not a homomorphism
    doc = {
        "format_version": "1.0",
        "poset": {"objects": [{"id": "a", "degree": 0}, {"id": "b", "degree": 1}],
                  "covers": [["a", "b"]], "direction": "increasing"},
        "groups": {"a": {"rank": 1, "relations": {"rows": 1, "cols": 1, "data": [2]}},
                   "b": {"rank": 1, "relations": {"rows": 1, "cols": 1, "data": [3]}}},
        "maps": {"a->b": {"rows": 1, "cols": 1, "data": [1]}},
    }
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/maps/a->b"


def test_missing_cover_map():
    doc = sample_doc()
    del doc["maps"]["a->b"]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/maps"


def test_error_messages_carry_pointer_prefix():
    doc = sample_doc()
    doc["maps"]["b->c"] = {"rows": 1, "cols": 1, "data": [1]}
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert str(info.value).startswith("at /maps/b->c:")


# degree inference


def test_infer_degrees_flag():
    doc = sample_doc()
    doc["poset"]["infer_degrees"] = True
    doc["poset"]["objects"] = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    P, F = parse_diagram(doc)
    assert P.display_degrees == {"a": 0, "b": 1, "c": 1}
    assert diagrams_equal(F, intro_pushout())


def test_infer_degrees_decreasing():
    doc = {
        "format_version": "1.0",
        "poset": {"objects": [{"id": "t0"}, {"id": "t1"}],
                  "covers": [["t1", "t0"]], "direction": "decreasing",
                  "infer_degrees": True},
        "groups": {"t0": {"rank": 1, "relations": {"rows": 1, "cols": 0, "data": []}},
                   "t1": {"rank": 1, "relations": {"rows": 1, "cols": 0, "data": []}}},
        "maps": {"t1->t0": {"rows": 1, "cols": 1, "data": [1]}},
    }
    P, _ = parse_diagram(doc)
    assert P.direction == "decreasing"
    assert P.display_degrees == {"t1": 1, "t0": 0}


def test_missing_degree_without_flag():
    doc = sample_doc()
    del doc["poset"]["objects"][0]["degree"]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/poset"
    assert "infer_degrees" in str(info.value)


def test_partial_degrees_with_flag():
    doc = sample_doc()
    doc["poset"]["infer_degrees"] = True
    del doc["poset"]["objects"][0]["degree"]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/poset"


def test_inference_detects_contradiction():
    # a->b->c and a->c cannot both be covers of a graded poset
    doc = sample_doc()
    doc["poset"]["infer_degrees"] = True
    doc["poset"]["objects"] = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    doc["poset"]["covers"] = [["a", "b"], ["b", "c"], ["a", "c"]]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/poset"


def test_inference_unknown_cover_endpoint():
    doc = sample_doc()
    doc["poset"]["infer_degrees"] = True
    doc["poset"]["objects"] = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    doc["poset"]["covers"] = [["a", "zzz"]]
    with pytest.raises(ValidationError) as info:
        parse_diagram(doc)
    assert info.value.pointer == "/poset"
    assert str(info.value) == "at /poset: cover references unknown id 'zzz'"


# report documents


def test_validate_report_accepts_minimal():
    validate_report({"format_version": "1.0", "tool_version": "0.1.0",
                     "command": "validate"})


def test_validate_report_rejects_missing_command():
    with pytest.raises(SchemaError):
        validate_report({"format_version": "1.0", "tool_version": "0.1.0"})


def test_validate_report_rejects_bad_invariant_factor():
    rep = {"format_version": "1.0", "tool_version": "0.1.0", "command": "colim",
           "derived": [{"free_rank": 1, "invariant_factors": [1]}]}
    with pytest.raises(SchemaError):
        validate_report(rep)


# exact error text and pointers: the checker refuses, jsonschema explains


@pytest.mark.parametrize("edit, message, pointer", [
    (lambda d: d.pop("format_version"),
     "at /: 'format_version' is a required property", "/"),
    (lambda d: d["poset"].update(direction="sideways"),
     "at /poset/direction: 'sideways' is not one of ['increasing', 'decreasing']",
     "/poset/direction"),
    (lambda d: d["poset"]["covers"].__setitem__(0, ["a", "b", "c"]),
     "at /poset/covers/0: ['a', 'b', 'c'] is too long", "/poset/covers/0"),
    (lambda d: d["poset"]["covers"].__setitem__(0, ["a"]),
     "at /poset/covers/0: ['a'] is too short", "/poset/covers/0"),
    (lambda d: d["groups"]["a"].update(rank=-1),
     "at /groups/a/rank: -1 is less than the minimum of 0", "/groups/a/rank"),
    (lambda d: d["maps"].update(nonsense=d["maps"].pop("a->b")),
     "at /maps: 'nonsense' does not match '^.+->.+$'", "/maps"),
    (lambda d: d.update(extra=1),
     "at /: Additional properties are not allowed ('extra' was unexpected)", "/"),
    (lambda d: d["poset"]["objects"][0].update(id=""),
     "at /poset/objects/0/id: '' should be non-empty", "/poset/objects/0/id"),
    (lambda d: d["groups"]["a"].update(rank=True),
     "at /groups/a/rank: True is not of type 'integer'", "/groups/a/rank"),
    (lambda d: d["groups"]["a"].update(rank=-1.0),
     "at /groups/a/rank: -1.0 is less than the minimum of 0", "/groups/a/rank"),
    (lambda d: d["maps"]["a->b"]["data"].__setitem__(0, "2"),
     "at /maps/a->b/data/0: '2' is not of type 'integer'", "/maps/a->b/data/0"),
    (lambda d: d["poset"].update(covers={}),
     "at /poset/covers: {} is not of type 'array'", "/poset/covers"),
], ids=["required", "enum", "max_items", "min_items", "minimum", "pattern", "additional",
        "min_length", "bool_integer", "float_below_minimum", "string_integer", "type"])
def test_schema_error_text_is_jsonschemas(edit, message, pointer):
    with pytest.raises(SchemaError) as info:
        parse_diagram(_intro_edit(edit))
    assert str(info.value) == message
    assert info.value.pointer == pointer


@pytest.mark.parametrize("report, message", [
    ({"derived": [{"free_rank": 1, "invariant_factors": [1]}]},
     "at /derived: [{'free_rank': 1, 'invariant_factors': [1]}] is not of type 'object'"),
    ({"derived": {"colim": [{"free_rank": 1, "invariant_factors": [1]}]}},
     "at /derived/colim/0/invariant_factors/0: 1 is less than the minimum of 2"),
])
def test_report_error_text_is_jsonschemas(report, message):
    rep = {"format_version": "1.0", "tool_version": "0.1.0", "command": "colim", **report}
    with pytest.raises(SchemaError) as info:
        validate_report(rep)
    assert str(info.value) == message


# float-valued integers: draft 2020-12 accepts 1.0 as an integer, posetlim does not


@pytest.mark.parametrize("edit, pointer, shown", [
    (lambda d: d["maps"]["a->b"].update(rows=1.0), "/maps/a->b/rows", "1.0"),
    (lambda d: d["maps"]["a->b"].update(cols=1.0), "/maps/a->b/cols", "1.0"),
    (lambda d: d["groups"]["a"].update(rank=1.0), "/groups/a/rank", "1.0"),
    (lambda d: d["poset"]["objects"][1].update(degree=1.0),
     "/poset/objects/1/degree", "1.0"),
    (lambda d: d["maps"]["a->c"]["data"].__setitem__(0, 2.0), "/maps/a->c/data/0", "2.0"),
], ids=["rows", "cols", "rank", "degree", "data"])
def test_float_valued_integer_is_refused(edit, pointer, shown):
    doc = _intro_edit(edit)
    assert _jsonschema_accepts(DIAGRAM_SCHEMA, doc)
    with pytest.raises(SchemaError) as info:
        parse_diagram(doc)
    assert str(info.value) == f"at {pointer}: {shown} is not of type 'integer'"
    assert info.value.pointer == pointer


def test_float_valued_rows_exit_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(_intro_edit(lambda d: d["maps"]["a->b"].update(rows=1.0))))
    for prefix in ([], ["--json"]):
        assert cli.main([*prefix, "colim", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert "at /maps/a->b/rows: 1.0 is not of type 'integer'" in out.err


# the compiled checker against jsonschema


def _jsonschema_accepts(name, doc):
    import jsonschema
    return jsonschema.Draft202012Validator(_compiled(name)[0]).is_valid(doc)


def _has_float_integer(value):
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, dict):
        return any(_has_float_integer(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_float_integer(v) for v in value)
    return False


def _cli_report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", *argv]) == 0, argv
    return json.loads(out.getvalue())


@functools.cache
def _oracle_inputs():
    """(schema name, document): the bundled documents, randgen documents of
    every family x mode, and a report from every CLI command."""
    data = resources.files("posetlim").joinpath("data")
    docs = [(DIAGRAM_SCHEMA, json.loads(p.read_text()))
            for p in sorted(data.iterdir(), key=lambda p: p.name) if p.name.endswith(".json")]
    for family in POSET_FAMILIES:
        for mode in DIAGRAM_MODES:
            for seed in range(2):
                cfg = GenConfig(seed=seed, family=family)
                F = gen_diagram(cfg, gen_poset(cfg), mode)
                docs.append((DIAGRAM_SCHEMA, serialize_diagram(F, name=f"{family}:{mode}")))
    intro = str(data.joinpath("intro_pushout.json"))
    for argv in (["validate", intro], ["colim", intro], ["lim", intro], ["classify", intro],
                 ["spectral", "--variant", "3", intro], ["gallery"],
                 ["generate", "--seed", "3"], ["oracle", "--seeds", "2"]):
        docs.append((REPORT_SCHEMA, _cli_report(*argv)))
    return tuple(docs)


def _agree(name, doc):
    verdict = _compiled(name)[1](doc) is None
    if verdict or not _has_float_integer(doc):
        assert verdict == _jsonschema_accepts(name, doc)
    else:
        with pytest.raises(SchemaError):
            (parse_diagram if name == DIAGRAM_SCHEMA else validate_report)(doc)
    return verdict


def test_checker_accepts_every_oracle_input():
    inputs = _oracle_inputs()
    assert len(inputs) == 9 + 2 * len(POSET_FAMILIES) * len(DIAGRAM_MODES) + 8
    assert all(_agree(name, doc) for name, doc in inputs)


@pytest.mark.parametrize("schema", [
    {"oneOf": [{"type": "string"}, {"type": "integer"}]},
    {"anyOf": [{"type": "string"}]},
    {"allOf": [{"type": "string"}]},
    {"not": {"type": "string"}},
    {"const": 1},
    {"type": "object", "patternProperties": {"^a": {"type": "integer"}}},
    {"type": "integer", "exclusiveMinimum": 0},
    {"type": "integer", "maximum": 3},
    {"type": "string", "format": "email"},
    {"type": "array", "prefixItems": [{"type": "integer"}]},
    {"type": "number"},
    {"enum": ["a", 1]},
    {"$ref": "other.json#/$defs/x"},
    {"$ref": "#/$defs/missing", "$defs": {}},
    {"type": "object", "properties": {"x": {"oneOf": [{"type": "null"}]}}},
    {"type": "array", "items": {"$ref": "#/$defs/x"}, "$defs": {"x": {"uniqueItems": True}}},
], ids=["oneOf", "anyOf", "allOf", "not", "const", "patternProperties",
        "exclusiveMinimum", "maximum", "format", "prefixItems", "number", "enum_mixed",
        "ref_external", "ref_missing", "nested_oneOf", "def_uniqueItems"])
def test_compiler_refuses_keywords_outside_the_subset(schema):
    with pytest.raises(ValueError):
        compile_schema(schema)


def test_compiler_follows_recursive_refs():
    check = compile_schema({"$ref": "#/$defs/tree", "$defs": {"tree": {
        "type": "array", "items": {"$ref": "#/$defs/tree"}, "maxItems": 2}}})
    assert check([[], [[]]]) is None
    assert check([[], [[], [], []]]) == (1,)
    assert check([[], ["x"]]) == (1, 0)


# hypothesis mutations of the oracle inputs

_KEYS = ("id", "degree", "rows", "cols", "data", "rank", "relations", "objects", "covers",
         "direction", "free_rank", "invariant_factors", "ok", "witness", "r", "extra",
         "", "a", "a->b", "->b", "a->")


def _mutated_documents(st, diagrams_only=False):
    """A deep copy of an oracle input with one to three edits: a key dropped
    or renamed, a value replaced, a container emptied or extended.
    Replacements include wrong types, bools and huge ints, null, floats,
    empty strings, bad ids and bad map keys."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3),
        st.sampled_from([2 ** 64, -(2 ** 64), 10 ** 30, 1.5, 1.0, -0.0]),
        st.sampled_from(_KEYS), st.text(max_size=3))
    values = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)), max_leaves=6)
    inputs = [i for i in _oracle_inputs() if not diagrams_only or i[0] == DIAGRAM_SCHEMA]

    @st.composite
    def mutated(draw):
        name, doc = draw(st.sampled_from(inputs))
        doc = copy.deepcopy(doc)
        for _ in range(draw(st.integers(1, 3))):
            spots = []
            stack = [doc]
            while stack:
                node = stack.pop()
                keys = list(node) if isinstance(node, dict) else range(len(node))
                for k in keys:
                    spots.append((node, k))
                    if isinstance(node[k], (dict, list)):
                        stack.append(node[k])
            if not spots:
                doc[draw(st.sampled_from(_KEYS))] = draw(values)
                continue
            node, k = draw(st.sampled_from(spots))
            op = draw(st.sampled_from(("replace", "drop", "rename", "empty", "extend")))
            target = node[k]
            if op == "drop":
                del node[k]
            elif op == "rename" and isinstance(node, dict):
                node[draw(st.sampled_from(_KEYS))] = node.pop(k)
            elif op == "empty" and isinstance(target, (dict, list)):
                target.clear()
            elif op == "extend" and isinstance(target, dict):
                target[draw(st.sampled_from(_KEYS))] = draw(values)
            elif op == "extend" and isinstance(target, list):
                target.append(draw(values))
            else:
                node[k] = draw(values)
        return name, doc
    return mutated()


def _run_property(strategy, body):
    """body on every example of strategy(hypothesis.strategies), derandomised;
    skips when hypothesis is missing."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                                   database=None)
    settings(hypothesis.given(strategy(hypothesis.strategies))(body))()


def test_checker_agrees_with_jsonschema_on_mutations():
    def agree(case):
        _agree(*case)
    _run_property(_mutated_documents, agree)


def test_parse_diagram_raises_only_document_errors():
    def parse(case):
        try:
            parse_diagram(case[1])
        except (SchemaError, ValidationError, EmptyPosetError):
            pass
    _run_property(lambda st: _mutated_documents(st, diagrams_only=True), parse)
