"""Exception types shared across the toolkit."""


class HdxError(Exception):
    """Base class for every error raised by this package."""


# -- complex construction and queries ---------------------------------------

class EmptyInput(HdxError):
    pass


class DuplicateVertexInFace(HdxError):
    pass


class ImpureComplex(HdxError):
    pass


class FaceNotInComplex(HdxError):
    pass


class MixedDimensions(HdxError):
    pass


class DimensionOutOfRange(HdxError):
    pass


class InputFormatError(HdxError):
    pass


# -- cochain and chain algebra -----------------------------------------------

class TopDimension(HdxError):
    pass


class NegativeDimension(HdxError):
    pass


class DimensionMismatch(HdxError):
    pass


class RingMismatch(HdxError):
    pass


class FaceTooLarge(HdxError):
    pass


class Uncertified(HdxError):
    pass


class NonTerminatingSearch(HdxError):
    pass


# -- exhaustive searches -------------------------------------------------------

class SearchSpaceTooLarge(HdxError):
    pass


class TooManyVertices(HdxError):
    pass


class IntegerRingRequiresBound(HdxError):
    pass


# -- expansion constants -------------------------------------------------------

class ParameterOutOfRange(HdxError):
    pass


class ConstantExceedsOne(HdxError):
    pass


# -- fat faces -------------------------------------------------------------------

class BadEta(HdxError):
    pass


class EmptyFatLevel(HdxError):
    pass


class PreconditionViolated(HdxError):
    pass


# -- buildings -------------------------------------------------------------------

class TooLarge(HdxError):
    pass


class NotPrimePower(HdxError):
    pass


# -- lattices -------------------------------------------------------------------

class NoFreePart(HdxError):
    pass


class DependentGenerators(HdxError):
    pass


class NotAGraph(HdxError):
    pass


# -- audits ---------------------------------------------------------------------

class PropertyViolation(HdxError):
    """A verified identity failed; this signals a construction bug, not bad input."""


# -- cli ------------------------------------------------------------------------

class UsageError(HdxError):
    pass
