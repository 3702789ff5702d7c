"""Shared exception types and the one size-cap refusal.

Every exact routine refuses an input over its size cap through
``check_cap``, with the message ``<what> exceeds cap N``; the command line
prints it after ``error: `` and exits with code 3.  Each caller reads its
cap from its own module at call time and passes the value in.  The work
budgets and the bipartition cap word their own ``CapExceeded`` messages
("over work budget", "bipartitions ... exceed cap"), with the same exit
code.
"""


class ParseError(ValueError):
    """Malformed textual input: a Pauli string, partition, or operator file."""


class CapExceeded(RuntimeError):
    """An input is larger than the configured size cap for an exact routine."""


def check_cap(size: int, cap: int, what: str) -> None:
    """Raise ``CapExceeded("<what> exceeds cap <cap>")`` when size > cap."""
    if size > cap:
        raise CapExceeded(f"{what} exceeds cap {cap}")
