"""The report check in `emit` against jsonschema's draft-07 validator.

jsonschema is the oracle: for every bundled schema, valid reports and
reports with one field mutated must get the same verdict from both.
"""

import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwt_planner.emit import (
    SCHEMA_NAMES,
    SchemaError,
    check_keywords,
    json_bytes,
    load_schema,
    validate,
)


def ours(instance, schema) -> bool:
    try:
        validate(instance, schema)
    except SchemaError:
        return False
    return True


def theirs(instance, schema) -> bool:
    return jsonschema.Draft7Validator(schema).is_valid(instance)


ORACLES = {name: jsonschema.Draft7Validator(load_schema(name)) for name in SCHEMA_NAMES}


def valid_value(sub: dict):
    """Values one property schema accepts."""
    if "enum" in sub:
        return st.sampled_from(sub["enum"])
    options = []
    for name in [sub["type"]] if isinstance(sub["type"], str) else sub["type"]:
        if name == "null":
            options.append(st.none())
        elif name == "boolean":
            options.append(st.booleans())
        elif name == "integer":
            options.append(st.integers(min_value=sub.get("minimum"), max_value=sub.get("maximum")))
        elif name == "number":
            options.append(st.floats(
                min_value=sub.get("minimum", sub.get("exclusiveMinimum")),
                max_value=sub.get("maximum", sub.get("exclusiveMaximum")),
                exclude_min="exclusiveMinimum" in sub,
                exclude_max="exclusiveMaximum" in sub,
                allow_nan=False, allow_infinity=False,
            ))
        else:
            raise AssertionError(f"no strategy for type {name}")
    return st.one_of(options)


def valid_payload(schema: dict):
    return st.fixed_dictionaries({k: valid_value(v) for k, v in schema["properties"].items()})


def mutants(sub: dict) -> list:
    """Replacement values for one field: a bool or a string where a number
    goes, an integral float where an integer goes, each bound exactly, an
    off-enum string, None, and ordinary numbers on both sides of the bounds."""
    values = [True, False, "x", "median", None, 3.0, 2.5, 0, 0.0, 1, 1.0, -1, -0.5, 2]
    for keyword in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if keyword in sub:
            values += [sub[keyword], float(sub[keyword])]
    return values + list(sub.get("enum", []))


@st.composite
def mutated_payload(draw, schema: dict):
    payload = draw(valid_payload(schema))
    key = draw(st.sampled_from(sorted(schema["properties"])))
    kind = draw(st.sampled_from(["drop", "extra", "replace"]))
    if kind == "drop":
        del payload[key]
    elif kind == "extra":
        payload[key + "_extra"] = draw(st.sampled_from(mutants({})))
    else:
        payload[key] = draw(st.sampled_from(mutants(schema["properties"][key])))
    return payload


@pytest.mark.parametrize("name", SCHEMA_NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_valid_reports_pass_both(name, data):
    schema = load_schema(name)
    payload = data.draw(valid_payload(schema))
    assert ORACLES[name].is_valid(payload)
    assert ours(payload, schema)


@pytest.mark.parametrize("name", SCHEMA_NAMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_reports_get_the_oracle_verdict(name, data):
    schema = load_schema(name)
    payload = data.draw(mutated_payload(schema))
    assert ours(payload, schema) == ORACLES[name].is_valid(payload), payload


@pytest.mark.parametrize("schema,instance,valid", [
    ({"type": "number"}, True, False),  # a bool is not a number ...
    ({"type": "integer"}, False, False),  # ... nor an integer
    ({"type": "integer"}, 3.0, True),  # an integral float is an integer in draft-07
    ({"type": "integer"}, 3.5, False),
    ({"type": ["number", "null"]}, None, True),
    ({"enum": [True]}, 1, False),
    ({"enum": [1]}, True, False),
    ({"enum": [1]}, 1.0, True),
    ({"minimum": 0}, "below", True),  # bounds apply to numbers only
    ({"maximum": 1}, None, True),
    ({"minimum": 0}, 0, True),
    ({"exclusiveMinimum": 0}, 0, False),
    ({"exclusiveMaximum": 1}, 1.0, False),
    ({"required": ["a"]}, [], True),  # object keywords skip other types
    ({"required": ["a"]}, {}, False),
    ({"properties": {}, "additionalProperties": False}, {"a": 1}, False),
    ({"properties": {"a": {"type": "string"}}}, {"a": 1}, False),
    ({"properties": {"a": {"type": "string"}}}, {"b": 1}, True),
])
def test_draft07_edges(schema, instance, valid):
    assert theirs(instance, schema) == valid
    assert ours(instance, schema) == valid


def test_failure_names_the_dotted_field():
    schema = {"type": "object", "properties": {"outer": {"properties": {"p": {"maximum": 1}}}}}
    with pytest.raises(SchemaError, match="outer.p") as caught:
        validate({"outer": {"p": 1.5}}, schema)
    assert caught.value.field == "outer.p"
    with pytest.raises(SchemaError) as caught:
        validate({"capacity": 1.0}, load_schema("model_report"))
    assert caught.value.field in load_schema("model_report")["required"]
    with pytest.raises(ValueError, match="loss_prob"):
        json_bytes({**dict.fromkeys(load_schema("model_report")["required"], 0.5),
                    "loss_prob": 1.5}, "model_report")


@pytest.mark.parametrize("schema", [
    {"pattern": "^a"},
    {"type": "array"},
    {"additionalProperties": {"type": "string"}},
    {"additionalProperties": True},
    {"enum": [[1, 2]]},
    {"properties": {"a": {"format": "date-time"}}},
])
def test_unsupported_keywords_are_refused(schema):
    with pytest.raises(ValueError, match="support|scalar"):
        check_keywords(schema)


def test_unknown_schema_name_rejected():
    with pytest.raises(ValueError, match=r"^schema must be one of .*, got 'report'$"):
        load_schema("report")


def test_schemas_are_loaded_once_and_never_changed():
    for name in SCHEMA_NAMES:
        schema = load_schema(name)
        assert load_schema(name) is schema
        for payload in ({}, {"extra": 1}, dict.fromkeys(schema["properties"], True)):
            ours(payload, schema)
        text = resources.files("rtwt_planner.schemas").joinpath(f"{name}.schema.json").read_text()
        assert schema == json.loads(text)
