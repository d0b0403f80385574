"""Exception types shared across the package."""


class DoodleError(Exception):
    """Base class for all doodlekit errors."""


class UnknownToken(DoodleError):
    """A word token is not of the form s<digits> or r<digits>."""


class IndexOutOfRange(DoodleError):
    """A generator index lies outside 1..strands-1 (1..rank for a free word)."""


class InvalidStrandCount(DoodleError):
    """Strand count below 1."""


class RankMismatch(DoodleError):
    """Operands live in groups of different rank / strand count / size."""


class GaussDataError(DoodleError):
    """Base class for malformed Gauss data."""


class SlotMisuse(GaussDataError):
    """An entry slot used as an arc source, or an exit slot as a target."""


class MatchingViolation(GaussDataError):
    """Arc ends do not form a perfect matching of exits onto entries."""


class NegativeCount(GaussDataError):
    """Negative crossing or free-loop count."""


class InvalidGaussData(GaussDataError):
    """Gauss data rejected by the braiding procedure."""


class PatternMismatch(DoodleError):
    """A value does not match the required pattern: move parameters that do
    not fit the word, or a word, image or permutation of the wrong form."""


class CertificateError(DoodleError):
    """A certificate file fails to parse or replay."""
