"""Shared exception types.

InputError is the one type for bad user input (CLI arguments, file
contents, invalid slope or embedding data); its message says what is
wrong and, for a file, on which line, and the CLI prints it as
``error: <message>`` with exit code 2.  Its only subclass is
ribbon.InvalidFusionGraph, kept for its ``band``, the index by which
the fusion-file parser names the line at fault.  Semi-decision outcomes
(enumeration overflow, inconclusive searches) are ordinary return
values, never exceptions.  A certificate that fails its re-check is a
program bug, reported as CertificateError (deliberately not an
InputError).
"""

__all__ = ["InputError", "CertificateError"]


class InputError(Exception):
    pass


class CertificateError(Exception):
    """A computed certificate failed its independent re-check."""
