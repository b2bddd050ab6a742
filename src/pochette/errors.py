"""Shared exception base.

Every error caused by bad user input (CLI arguments, file contents,
invalid slope or embedding data) derives from InputError so the CLI can
map them to a nonzero exit code uniformly.  Semi-decision outcomes
(enumeration overflow, inconclusive searches) are ordinary return
values, never exceptions.  A certificate that fails its re-check is a
program bug, reported as CertificateError (deliberately not an
InputError).
"""


class InputError(Exception):
    pass


class CertificateError(Exception):
    """A computed certificate failed its independent re-check."""
