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

The two schema files under schemas/ are the only copy of the structural
rules.  Each is compiled once per process into a plain-Python checker
(compile_schema) that covers exactly the keywords the schemas use:
type, properties, required, additionalProperties, items, minItems,
maxItems, minLength, minimum, enum (of strings), pattern, propertyNames
and $ref into $defs, plus the annotations $schema, $id and title; any
other keyword makes the compiler raise.  The checker's "integer" is a
Python int that is not a bool, so 1.0 is refused, where draft 2020-12
would accept it.  jsonschema is imported only when the checker refuses
a document, to explain the refusal with the message and pointer of its
best_match; a refusal jsonschema does not share is a float-valued
integer and is reported as "<value> is not of type 'integer'".
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from importlib import resources

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup
from .diagram import Diagram, validate_functor
from .errors import EmptyPosetError, PosetlimError, SchemaError, ValidationError
from .poset import validate_graded

FORMAT_VERSION = "1.0"
TOOL_VERSION = "0.1.0"

DIAGRAM_SCHEMA = "diagram_document.schema.json"
REPORT_SCHEMA = "report_document.schema.json"

MAX_MATRIX_DIM = 1 << 16


_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items", "minItems",
    "maxItems", "minLength", "minimum", "enum", "pattern", "propertyNames",
    "$ref", "$defs", "$schema", "$id", "title"})

# one check per type name: None when the value has the type, else ()
_TYPES = {
    "object": lambda v: None if isinstance(v, dict) else (),
    "array": lambda v: None if isinstance(v, list) else (),
    "string": lambda v: None if isinstance(v, str) else (),
    "integer": lambda v: (None if type(v) is int
                          or isinstance(v, int) and not isinstance(v, bool) else ()),
    "boolean": lambda v: None if isinstance(v, bool) else (),
    "null": lambda v: None if v is None else (),
}


def compile_schema(schema: dict):
    """check(value) for a schema in the keyword subset of the module
    docstring: None when value is valid, else the path (a tuple of keys
    and indices) of the first value refused.  Raises ValueError on any
    other keyword, type name or reference form.

    >>> check = compile_schema({"type": "array", "items": {"type": "integer"}})
    >>> check([1, 2]) is None, check([1, 2.0])
    (True, (1,))
    """
    defs = {}

    def ref(target: str):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in schema.get("$defs", {}):
            raise ValueError(f"unsupported $ref {target!r}")
        if name not in defs:
            defs[name] = None  # a reference back to name resolves at call time
            defs[name] = build(schema["$defs"][name])
        return lambda v: defs[name](v)

    def build(s):
        if isinstance(s, bool):
            return (lambda v: None) if s else (lambda v: ())
        unknown = set(s) - _KEYWORDS
        if unknown:
            raise ValueError(f"schema keywords outside the compiled subset: {sorted(unknown)}")
        names = s.get("type", [])
        names = [names] if isinstance(names, str) else names
        if not set(names) <= set(_TYPES):
            raise ValueError(f"unsupported type in {names}")
        checks = []
        if len(names) == 1:
            checks.append(_TYPES[names[0]])
        elif names:
            tests = [_TYPES[n] for n in names]
            checks.append(lambda v: () if all(t(v) is not None for t in tests) else None)
        if "$ref" in s:
            checks.append(ref(s["$ref"]))
        if "enum" in s:
            allowed = frozenset(s["enum"])
            if not all(isinstance(e, str) for e in allowed):
                raise ValueError(f"enum {s['enum']} is not all strings")
            checks.append(lambda v: None if isinstance(v, str) and v in allowed else ())
        checks += [c for c in (_object_check(s, build), _array_check(s, build),
                               _scalar_check(s)) if c is not None]
        if len(checks) == 1:
            return checks[0]

        def check(v):
            for c in checks:
                bad = c(v)
                if bad is not None:
                    return bad
            return None
        return check

    return build(schema)


def _object_check(s, build):
    """properties, required, additionalProperties, propertyNames; a
    value that is not an object passes them, as in JSON Schema."""
    props = {k: build(sub) for k, sub in s.get("properties", {}).items()}
    required = s.get("required", ())
    extra = build(s["additionalProperties"]) if "additionalProperties" in s else None
    names = build(s["propertyNames"]) if "propertyNames" in s else None
    if not (props or required or extra or names):
        return None

    def check(v):
        if not isinstance(v, dict):
            return None
        for k in required:
            if k not in v:
                return ()
        for k, x in v.items():
            c = props.get(k, extra)
            if c is not None:
                bad = c(x)
                if bad is not None:
                    return (k, *bad)
            if names is not None and names(k) is not None:
                return ()
        return None
    return check


def _array_check(s, build):
    """items, minItems, maxItems; a value that is not an array passes them."""
    items = build(s["items"]) if "items" in s else None
    lo, hi = s.get("minItems", 0), s.get("maxItems")
    if items is None and not lo and hi is None:
        return None

    def check(v):
        if not isinstance(v, list):
            return None
        if len(v) < lo or (hi is not None and len(v) > hi):
            return ()
        if items is not None:
            for i, x in enumerate(v):
                bad = items(x)
                if bad is not None:
                    return (i, *bad)
        return None
    return check


def _scalar_check(s):
    """minLength and pattern for strings, minimum for numbers."""
    min_length, minimum = s.get("minLength", 0), s.get("minimum")
    pattern = re.compile(s["pattern"]) if "pattern" in s else None
    if not min_length and minimum is None and pattern is None:
        return None

    def check(v):
        if isinstance(v, str):
            if len(v) < min_length or (pattern is not None and not pattern.search(v)):
                return ()
        elif (minimum is not None and isinstance(v, (int, float))
              and not isinstance(v, bool) and v < minimum):
            return ()
        return None
    return check


@functools.cache
def _compiled(name: str):
    """(schema, checker) for one schema file, read and compiled once per process."""
    schema = json.loads(resources.files("posetlim").joinpath(f"schemas/{name}").read_text())
    return schema, compile_schema(schema)


def canonical_bytes(obj) -> bytes:
    """Sorted keys, no whitespace: one byte string per JSON value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def _pointer(path) -> str:
    return "/" + "/".join(str(part) for part in path)


def _schema_check(instance, name: str):
    schema, check = _compiled(name)
    path = check(instance)
    if path is None:
        return
    import jsonschema  # only a refused document pays for it

    validator = jsonschema.Draft202012Validator(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    if error is not None:
        path, message = error.absolute_path, error.message
    else:
        # draft 2020-12 counts 1.0 as an integer; the checker does not
        value = functools.reduce(lambda v, key: v[key], path, instance)
        message = f"{value!r} is not of type 'integer'"
    exc = SchemaError(f"at {_pointer(path)}: {message}")
    exc.pointer = _pointer(path)
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
    # with no entries any size matches the data, so bound it before allocating
    if max(rows, cols) > MAX_MATRIX_DIM:
        _invalid(pointer, f"matrix declares {rows}x{cols}; at most {MAX_MATRIX_DIM} "
                          "rows and columns are supported")
    if len(doc["data"]) != rows * cols:
        _invalid(pointer, f"matrix declares {rows}x{cols} "
                          f"but carries {len(doc['data'])} entries")
    # column j is every cols-th entry from j; the checked data are ints
    data = doc["data"]
    return la.IntMatrix((rows, cols), [{i: x for i, x in enumerate(data[j::cols]) if x}
                                       for j in range(cols)])


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


def load_document(data):
    """The JSON value that data (bytes or str) holds; SchemaError at
    pointer "" when it is not JSON, or is bytes that are not UTF-8."""
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        exc = SchemaError(f"invalid JSON: {e}")
        exc.pointer = ""
        raise exc from e


def parse_diagram(data):
    """bytes | str | dict -> (GradedPoset, Diagram)."""
    doc = load_document(data) if isinstance(data, (bytes, str)) else data
    _schema_check(doc, DIAGRAM_SCHEMA)

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
    _schema_check(obj, REPORT_SCHEMA)
