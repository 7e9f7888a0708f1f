"""Document round-trips, canonical hashing, and both error layers."""

import json

import pytest

from posetlim.diagram import diagrams_equal
from posetlim.errors import EmptyPosetError, SchemaError, ValidationError
from posetlim.jsonio import (
    canonical_bytes,
    digest,
    parse_diagram,
    serialize_diagram,
    validate_report,
)
from posetlim.randgen import GenConfig, gen_diagram, gen_poset

from helpers import intro_pushout, times_two_pullback


def sample_doc():
    return serialize_diagram(intro_pushout(), name="intro")


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
