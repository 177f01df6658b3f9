"""The run config's schema, `CONFIG_SCHEMA`, and a checker for its keywords in
the words of jsonschema 4.26, with its best_match's choice among several
errors, on a 2020-12 validator with Draft 4's types."""

import operator

from .partition import MAX_TASKS

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


def _array(items: dict, min_items: int = 1) -> dict:
    return {"type": "array", "items": items, "minItems": min_items}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "supergraph", "benchmark"],
    "properties": {
        "experiment": {"type": "string", "minLength": 1},
        "output_dir": {"type": "string", "minLength": 1},
        "seeds": _array({"type": "integer", "minimum": 0}),
        "supergraph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["widths"],
            "properties": {
                "widths": _array({"type": "integer", "minimum": 1}, min_items=2),
                "unit_costs": _array({"type": "number", "exclusiveMinimum": 0}),
            },
        },
        "benchmark": {
            "type": "object",
            "additionalProperties": False,
            "required": ["num_tasks", "input_dim", "hidden_dim", "target_dim", "relatedness"],
            "properties": {
                "num_tasks": {"type": "integer", "minimum": 1, "maximum": MAX_TASKS},
                "input_dim": {"type": "integer", "minimum": 1},
                "hidden_dim": {"type": "integer", "minimum": 1},
                "target_dim": {"type": "integer", "minimum": 1},
                "relatedness": _array(_array({"type": "integer", "minimum": 0})),
                "noise_std": {"type": "number", "minimum": 0},
                "train_samples": {"type": "integer", "minimum": 2},
                "test_samples": {"type": "integer", "minimum": 1},
                "signal_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "search": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "number", "minimum": 0},
                "warmup_steps": {"type": "integer", "minimum": 0},
                "search_steps": {"type": "integer", "minimum": 1},
                "tau_start": {"type": "number", "exclusiveMinimum": 0},
                "tau_end": {"type": "number", "exclusiveMinimum": 0},
                "theta_lr": {"type": "number", "exclusiveMinimum": 0},
                "alpha_lr": {"type": "number", "exclusiveMinimum": 0},
                "retrain_steps": {"type": "integer", "minimum": 0},
                "omega": _array({"type": "number", "exclusiveMinimum": 0}),
            },
        },
    },
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
