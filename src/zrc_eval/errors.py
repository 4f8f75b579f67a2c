"""Exception types shared across the package, and how readers name a file."""


class FormatError(ValueError):
    """A file does not follow its declared on-disk format."""


class ValidationError(ValueError):
    """Well-formed input that violates a documented invariant."""


def _named(path, line, make, *args):
    """``make(*args)``, a ValidationError from its own checks re-raised
    naming ``path`` and, in row formats, the ``line`` (else None)."""
    try:
        return make(*args)
    except ValidationError as exc:
        where = path if line is None else f"{path}: line {line}"
        raise ValidationError(f"{where}: {exc}") from None
