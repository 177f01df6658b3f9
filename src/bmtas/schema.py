"""A JSON Schema checker for the keywords of `cli.CONFIG_SCHEMA`, in the words
of jsonschema 4.26 and with its best_match's choice among several errors, on
a 2020-12 validator with Draft 4's types."""

import operator

# the schema's types; an integer is a JSON integer, never 3.0, and a bool is none of them
_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float)}
# the type that each keyword but type and the bounds checks; it passes any other
_KEYWORD_TYPES = {
    "additionalProperties": dict, "required": dict, "properties": dict,
    "items": list, "minItems": list, "minLength": str,
}
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _errors(schema: dict, value, path=()):
    """Each (path, message) by which value breaks schema, in the order and
    words of jsonschema's iter_errors."""
    for key, rule in schema.items():
        types = _TYPES[rule] if key == "type" else _KEYWORD_TYPES.get(key, _TYPES["number"])
        if not isinstance(value, types) or isinstance(value, bool):
            if key == "type":
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "additionalProperties":  # false wherever the schema sets it
            extras = sorted(k for k in value if k not in schema["properties"])
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(repr, extras))
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "required":
            yield from ((path, f"{k!r} is a required property") for k in rule if k not in value)
        elif key == "properties":
            for k, child in rule.items():
                if k in value:
                    yield from _errors(child, value[k], (*path, k))
        elif key == "items":
            for i, item in enumerate(value):
                yield from _errors(rule, item, (*path, i))
        elif key in ("minItems", "minLength"):
            if len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key != "type" and _BOUNDS[key][0](value, rule):
            yield path, f"{value!r} {_BOUNDS[key][1]} {rule!r}"


def first_error(schema: dict, value) -> str | None:
    """The error that best_match picks, as its JSON path and message, or None
    if value fits schema: the shallowest, then the greatest path, then the
    first found."""
    error = max(_errors(schema, value), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is None:
        return None
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in error[0])
    return f"${where}: {error[1]}"
