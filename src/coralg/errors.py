"""Exception hierarchy shared by all coralg modules."""


class CoralgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CoralgError):
    pass


class ActionMismatch(CoralgError):
    """A tensor junction or action lookup refers to an action a module lacks."""


class NotProjective(CoralgError):
    pass


class InvalidCoidempotent(CoralgError):
    pass


class NotBijective(CoralgError):
    pass


class CompatibilityFailure(CoralgError):
    pass


class NotEntwinedModule(CoralgError):
    pass


class CoinvariantMismatch(CoralgError):
    """The one-sided coinvariant computations disagree; input data is invalid."""


class NotASection(CoralgError):
    pass


class ImageNotCoinvariant(CoralgError):
    pass


class NotGalois(CoralgError):
    pass


class MembershipFailure(CoralgError):
    pass


class DegreeOutOfRange(CoralgError):
    pass


class DegreeMismatch(CoralgError):
    pass


class NotACycle(CoralgError):
    pass


class IotaNotInjective(CoralgError):
    pass


class NoLocalDualSystem(CoralgError):
    pass


class NotIdempotent(CoralgError):
    pass


class MemoryGuard(CoralgError):
    """A requested space would exceed the configured dimension guard."""


class UnknownFixture(CoralgError):
    pass


class SchemaError(CoralgError):
    def __init__(self, path, message=""):
        self.path = path
        super().__init__(f"{path}: {message}" if message else str(path))


class ValidationError(CoralgError):
    def __init__(self, structure, axiom, location=None):
        self.structure = structure
        self.axiom = axiom
        self.location = location
        loc = f" at {location}" if location is not None else ""
        super().__init__(f"{structure}: {axiom}{loc}")
