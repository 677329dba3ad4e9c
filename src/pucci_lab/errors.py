"""Exception taxonomy shared across the package.

The split mirrors how failures are reported: bad static configuration
(ConfigurationError), bad runtime data (InputError), geometry violations
(DomainError), and numerical blowups detected mid-iteration (BlowupError).
The first three subclass ValueError so existing ``except ValueError``
call sites keep working.
"""


class ConfigurationError(ValueError):
    """Invalid static configuration: grid sizes, ellipticity bounds, family
    parameters, scheme parameters, solver knobs."""


class InputError(ValueError):
    """Runtime data violates a precondition: non-finite values, mismatched
    grids, overlapping supports, windows too small for the request."""


class DomainError(ValueError):
    """A geometric request leaves the computational domain: sample points
    outside the grid extent, balls that exit the domain, evaluation at a
    barrier singularity."""


class BlowupError(RuntimeError):
    """The iteration produced a non-finite value.  Carries the first
    offending node so the failure is actionable."""

    def __init__(self, message, node=None, coords=None):
        super().__init__(message)
        self.node = node
        self.coords = coords


class ParseError(ConfigurationError):
    """Config-file parse failure; names the offending key and line."""

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key
