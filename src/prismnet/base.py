"""What every layer shares and the CLI needs before it loads any layer.

This module imports nothing, so that ``prismnet.cli`` can name the input
error and the default seed without loading scipy; each command then loads
only the layers it runs.
"""

DEFAULT_SEED = 20140904


class InputError(ValueError):
    """Bad input: a domain, model or simulation spec the library refuses."""
