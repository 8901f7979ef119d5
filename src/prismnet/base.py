"""What every layer shares and the CLI needs before it loads any layer.

This module imports only the standard library, so that ``prismnet.cli`` can
name the input error and the default seed without loading scipy; each
command then loads only the layers it runs.
"""

import numbers

DEFAULT_SEED = 20140904


class InputError(ValueError):
    """Bad input: a domain, model or simulation spec the library refuses."""


def spec_number(value, what: str, error: type[InputError]) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, numpy
    scalars included.  A bool, a string or any other value is not a number,
    and an int beyond a float's range is too large; both raise ``error``,
    naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} is not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def read_spec(spec, what: str, key: str, fields: dict, error: type[InputError]):
    """The kind of a ``what`` spec, a dict whose ``key`` field names a kind in
    ``fields``, and ``spec_number`` for its fields.  ``fields[kind]`` maps the
    kind's other fields to whether a spec must give them; an unknown field or
    a missing one (the first in sorted order) raises ``error``."""
    if not isinstance(spec, dict) or key not in spec:
        raise error(f"{what} spec must be an object with a {key!r} field")
    kind = spec[key]
    if not isinstance(kind, str) or kind not in fields:
        raise error(f"unknown {what} {key} {kind!r}")
    extra = sorted(map(str, spec.keys() - fields[kind].keys() - {key}))
    if extra:
        raise error(f"{kind} {what} spec has unknown field(s): {', '.join(extra)}")
    missing = sorted(f for f, required in fields[kind].items() if required and f not in spec)
    if missing:
        raise error(f"{what} spec missing field {missing[0]!r}")

    def number(value) -> float:
        return spec_number(value, f"{kind} {what} spec field", error)

    return kind, number
