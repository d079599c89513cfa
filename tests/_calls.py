"""Record the calls of package functions, and force the kernel's crossovers,
for one block: the tests that pin which path the engine takes.  A test that
changes what a function does (a refusal, a mutant, a fake) uses pytest's
monkeypatch instead."""

import contextlib

from nwave import exprat


class Call:
    """One call of a recorded function: its ``args`` and ``kwargs``, set
    before it runs, and its ``result``, set when it returns; a call that
    raised has no ``result``."""

    __slots__ = ("args", "kwargs", "result")

    def __init__(self, args: tuple, kwargs: dict) -> None:
        self.args, self.kwargs = args, kwargs

    @property
    def returned(self) -> bool:
        return hasattr(self, "result")


@contextlib.contextmanager
def recorded(name: str, *owners):
    """The list of Calls of ``name`` made in the block through any of the
    owners (a module, or a class for a method), each holding it as its own
    attribute: the function runs unchanged, and every owner gets its
    original back on exit."""
    saved, calls = [(owner, vars(owner)[name]) for owner in owners], []

    def wrap(original):
        def recording(*args, **kwargs):
            call = Call(args, kwargs)
            calls.append(call)
            call.result = original(*args, **kwargs)
            return call.result
        return recording

    try:
        for owner, original in saved:
            setattr(owner, name, wrap(original))
        yield calls
    finally:
        for owner, original in saved:
            setattr(owner, name, original)


@contextlib.contextmanager
def forced(**constants):
    """exprat's crossovers, PACK_SLOTS_PER_TERM or PRODUCT_PAIRS, set to
    the given values for the block."""
    if not set(constants) <= {"PACK_SLOTS_PER_TERM", "PRODUCT_PAIRS"}:
        raise TypeError(f"not a crossover of nwave.exprat: {sorted(constants)}")
    saved = {name: getattr(exprat, name) for name in constants}
    try:
        for name, value in constants.items():
            setattr(exprat, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(exprat, name, value)
