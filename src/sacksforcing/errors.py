"""Shared exception types, and the object readers the JSON decoders
share: json_fields for named fields, json_int_keys for integer keys.

Everything raised intentionally by this package derives from EngineError,
so callers (the CLI in particular) can distinguish a failed operation from
a genuine bug.
"""


class EngineError(Exception):
    """Base class for all operation failures raised by this package."""


class PreconditionError(EngineError, ValueError):
    """An operation was called on arguments outside its stated domain."""


class AmalgamationError(PreconditionError):
    """The graft argument is not a subtree of the addressed cell."""


class FusionError(PreconditionError):
    """A sequence handed to fusion_prefix violates its schedule."""


class IncompatibleError(PreconditionError):
    """Two conditions that should be comparable have mismatched shapes."""


class DecodeError(EngineError, ValueError):
    """A census, pattern, or serialized object fails its shape checks."""


class ParseError(EngineError, ValueError):
    """Formula text could not be parsed; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceError(EngineError):
    """A computation was aborted because it exceeds the practical bounds."""


class InputError(EngineError, ValueError):
    """Input JSON does not have the shape its decoder expects."""


def json_fields(data, name, *keys):
    """The values at keys of the JSON object data, or InputError opening
    with name, the path of data in the input."""
    if not isinstance(data, dict):
        raise InputError(f"{name}: expected a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"{name}: missing {', '.join(missing)}")
    return [data[k] for k in keys]


def json_int_keys(data, name):
    """The JSON object data, its keys read as integers, or InputError.
    Each key must be written as str writes its integer, so no two keys
    name one integer."""
    json_fields(data, name)
    try:
        out = {int(k): v for k, v in data.items()}
    except ValueError:
        out = {}
    if list(map(str, out)) != list(data):
        raise InputError(f"{name}: keys must be integers, written without "
                         f"a plus sign, spaces or leading zeros")
    return out
