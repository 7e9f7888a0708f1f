"""JSON documents for diagrams and reports.

A DiagramDocument is the flat-file form of a validated diagram: the
poset with explicit degrees, one presentation per object (ambient rank
plus a relations matrix), and one integer matrix per cover.  Matrices
are row-major with explicit dimensions, so round trips are bit exact.

Structural problems raise SchemaError, semantic problems raise
ValidationError; both carry a JSON-pointer location in the message and
on the .pointer attribute.  An empty object list is the one poset
error reported as itself (EmptyPosetError): there is no location to
point at beyond the list.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import jsonschema

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup
from .diagram import Diagram, validate_functor
from .errors import EmptyPosetError, PosetlimError, SchemaError, ValidationError
from .poset import validate_graded

FORMAT_VERSION = "1.0"
TOOL_VERSION = "0.1.0"


def _load_schema(name: str) -> dict:
    blob = resources.files("posetlim").joinpath(f"schemas/{name}").read_text()
    return json.loads(blob)


def diagram_schema() -> dict:
    return _load_schema("diagram_document.schema.json")


def report_schema() -> dict:
    return _load_schema("report_document.schema.json")


def canonical_bytes(obj) -> bytes:
    """Sorted keys, no whitespace: one byte string per JSON value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def _pointer(path) -> str:
    return "/" + "/".join(str(part) for part in path)


def _schema_check(instance, schema):
    validator = jsonschema.Draft202012Validator(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    if error is not None:
        exc = SchemaError(f"at {_pointer(error.absolute_path)}: {error.message}")
        exc.pointer = _pointer(error.absolute_path)
        raise exc


def _invalid(pointer: str, msg: str):
    exc = ValidationError(f"at {pointer}: {msg}")
    exc.pointer = pointer
    raise exc


def matrix_to_json(M) -> dict:
    rows, cols = M.shape
    return {"rows": rows, "cols": cols, "data": M.flat}


def matrix_from_json(doc: dict, pointer: str):
    rows, cols = doc["rows"], doc["cols"]
    if len(doc["data"]) != rows * cols:
        _invalid(pointer, f"matrix declares {rows}x{cols} "
                          f"but carries {len(doc['data'])} entries")
    data = doc["data"]
    return la.intmat([data[i * cols:(i + 1) * cols] for i in range(rows)], (rows, cols))


def group_to_json(G: FgAbGroup) -> dict:
    """Isomorphism-type descriptor used in reports."""
    return {"free_rank": G.free_rank,
            "invariant_factors": list(G.invariant_factors)}


def serialize_diagram(F: Diagram, name: str = None) -> dict:
    P = F.poset
    doc = {
        "format_version": FORMAT_VERSION,
        "poset": {
            "objects": [{"id": o.id, "degree": o.degree} for o in P.objects],
            "covers": [[a, b] for a, b in P.covers],
            "direction": P.direction,
        },
        "groups": {i: {"rank": F.groups[i].ambient_rank,
                       "relations": matrix_to_json(F.groups[i].relations)}
                   for i in P.ids},
        "maps": {f"{a}->{b}": matrix_to_json(F.cover_maps[(a, b)].matrix)
                 for a, b in P.covers},
    }
    if name is not None:
        doc["name"] = name
    return doc


def parse_diagram(data):
    """bytes | str | dict -> (GradedPoset, Diagram)."""
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as e:
            exc = SchemaError(f"invalid JSON: {e}")
            exc.pointer = ""
            raise exc from e
    else:
        doc = data
    _schema_check(doc, diagram_schema())

    pd = doc["poset"]
    if not pd["objects"]:
        raise EmptyPosetError("document declares no objects")
    given = [o for o in pd["objects"] if "degree" in o]
    if pd.get("infer_degrees") and given:
        _invalid("/poset", "infer_degrees is set, so objects must "
                           "omit their degrees")
    if not pd.get("infer_degrees") and len(given) != len(pd["objects"]):
        _invalid("/poset", "objects omit degrees but infer_degrees "
                           "is not set")
    # a missing degree is None, which validate_graded infers from the covers
    objects = [(o["id"], o.get("degree")) for o in pd["objects"]]
    try:
        P = validate_graded(objects, pd["covers"], direction=pd["direction"])
    except PosetlimError as e:
        _invalid("/poset", str(e))

    declared = set(doc["groups"])
    if declared != set(P.ids):
        missing = sorted(set(P.ids) - declared)
        extra = sorted(declared - set(P.ids))
        _invalid("/groups", f"missing {missing}, unknown {extra}")
    groups = {}
    for i in P.ids:
        gd = doc["groups"][i]
        ptr = f"/groups/{i}"
        if gd["relations"]["rows"] != gd["rank"]:
            _invalid(ptr, f"relations have {gd['relations']['rows']} rows, "
                          f"rank is {gd['rank']}")
        groups[i] = FgAbGroup(gd["rank"],
                              matrix_from_json(gd["relations"], ptr + "/relations"))

    covers = {f"{a}->{b}": (a, b) for a, b in P.covers}
    maps = {}
    for key, md in doc["maps"].items():
        ptr = f"/maps/{key}"
        if key not in covers:
            _invalid(ptr, "no such cover in the poset")
        a, b = covers[key]
        M = matrix_from_json(md, ptr)
        if M.shape != (groups[b].ambient_rank, groups[a].ambient_rank):
            _invalid(ptr, f"matrix is {M.shape[0]}x{M.shape[1]}, "
                          f"cover needs {groups[b].ambient_rank}x{groups[a].ambient_rank}")
        try:
            maps[(a, b)] = AbHom(groups[a], groups[b], M)
        except (PosetlimError, ValueError) as e:
            _invalid(ptr, str(e))
    try:
        F = validate_functor(P, groups, maps)
    except PosetlimError as e:
        _invalid("/maps", str(e))
    return P, F


def validate_report(obj: dict):
    _schema_check(obj, report_schema())
