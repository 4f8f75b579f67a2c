"""Exception types shared across the package, and how errors name their input.

A record read from a file (``TriphoneToken``, ``UnitSequence``,
``ScoredPair``, ``SimilarityRecord``, ``sampler.AnchorEntry``) keeps in
``where`` the ``"<path>: line N"`` it was read from, a ``FeatureSequence``
the path of its file, and None when built in code. Every error about one
record is built by ``_at`` from that ``where``, and every error about a
whole input from the input's path, so it names the file and line without
its caller reading the file again.
"""


class FormatError(ValueError):
    """A file does not follow its declared on-disk format."""


class ValidationError(ValueError):
    """Well-formed input that violates a documented invariant."""


def _at(where, message) -> ValidationError:
    """A ValidationError of ``message``, led by ``where`` when it is set."""
    return ValidationError(f"{where}: {message}" if where else str(message))


def _named(where, make, *args):
    """``make(*args)``, a ValidationError from its own checks re-raised led
    by ``where``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise _at(where, exc) from None
