"""Shared exception types, the one check of each kind of Python argument
(check_natural, check_items, check_type and check_mapping), and the one
reader of each JSON value kind: json_fields for named fields, json_int_keys
for integer keys, json_int, json_list and json_choice; bitseq.bits reads bit
strings.  Each reader takes the value and name, its path in the input, which
opens every message, and raises InputError for a value of the wrong type.

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


def check_natural(value, name):
    """value if it is an int (not a bool) >= 0, else PreconditionError."""
    if type(value) is not int or value < 0:
        raise PreconditionError(f"{name} must be a natural number")
    return value


def check_items(values, name, what):
    """tuple(values), read once, or PreconditionError if values is not
    iterable; name is the argument, what its entries, in the message."""
    try:
        return tuple(values)
    except TypeError:
        raise PreconditionError(f"{name} must be an iterable of {what}, not "
                                f"{type(values).__name__}") from None


def check_type(value, types, name, what):
    """value, an instance of types, or PreconditionError naming what."""
    if not isinstance(value, types):
        raise PreconditionError(f"{name} must be {what}, not "
                                f"{type(value).__name__}")
    return value


def check_mapping(value, name):
    """value.items(), or PreconditionError if value has no items."""
    try:
        return value.items()
    except AttributeError:
        raise PreconditionError(f"{name} must be a mapping, not "
                                f"{type(value).__name__}") from None


def json_fields(data, name, *keys):
    """The values at keys of the JSON object data, or InputError opening
    with name, the path of data in the input."""
    if not isinstance(data, dict):
        raise InputError(f"{name}: expected a JSON object")
    try:
        return [data[k] for k in keys]
    except KeyError:
        missing = [k for k in keys if k not in data]
        raise InputError(f"{name}: missing {', '.join(missing)}") from None


def json_int_keys(data, name):
    """The JSON object data, its keys read as integers, or InputError.
    Each key must be written as str writes its integer, so no two keys
    name one integer."""
    json_fields(data, name)
    if not data:
        return {}
    try:
        out = {int(k): v for k, v in data.items()}
    except ValueError:
        out = {}
    if list(map(str, out)) != list(data):
        raise InputError(f"{name}: keys must be integers, written without "
                         f"a plus sign, spaces or leading zeros")
    return out


def json_int(data, name, minimum=None):
    """data, a JSON integer (not a boolean) of at least minimum, or
    InputError."""
    if type(data) is not int:
        raise InputError(f"{name}: expected an integer")
    if minimum is not None and data < minimum:
        raise InputError(f"{name}: expected an integer >= {minimum}")
    return data


def json_list(data, name, read):
    """The JSON list data, element i read by read(element, name[i])."""
    if not isinstance(data, list):
        raise InputError(f"{name}: expected a list")
    return [read(x, f"{name}[{i}]") for i, x in enumerate(data)]


def json_choice(data, name, options):
    """data, one of the strings options, or InputError."""
    if not isinstance(data, str) or data not in options:
        raise InputError(f"{name}: expected "
                         + " or ".join(f'"{o}"' for o in options))
    return data
