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
