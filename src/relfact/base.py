"""What every route shares: the base of the immutable value types, the
largest boundary a decomposition may have, the coherent-order variants,
the error of a malformed document, and the enumeration bound: its default
and its one check, which the frontier counts, the cluster counts and the
2^m oracle each run before any work.

It imports nothing from the package, so a module that needs only these
loads no other module of it: the command line parses argv, prints its help
and reports a usage error with this module alone.  Value writes out
comparison, hashing, repr, immutability and pickling once, as plain
methods, so loading the package generates and compiles no code at run
time.
"""

from __future__ import annotations

# Bell(8) = 4140 states.  The factorized, joint and distribution routes reach this
# size: on a 14-edge n = 8 draw factorization_detail takes ~0.6 s and verify ~1.8 s
# in process (Python 3.11, 2-core Xeon).  Only a printed dense inverse stops earlier,
# at conmatrix.MAX_BUNDLE_GROUND_SET.
MAX_GROUND_SET = 8

ORDER_VARIANTS = ("canonical", "reversed-levels")

# the largest edge count the state-counting routes walk when no --bound or
# RELFACT_BOUND is given
DEFAULT_ENUMERATION_BOUND = 24


class FormatError(ValueError):
    """Structurally malformed document (distinct from semantic graph errors)."""


class EnumerationBoundError(ValueError):
    """Too many edges for state enumeration under the current bound."""


def _check_bound(edges: tuple | list, bound: int | None) -> None:
    """The enumeration bound of every state-counting route: more edges than
    the bound (DEFAULT_ENUMERATION_BOUND when None) raise
    EnumerationBoundError."""
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if len(edges) > limit:
        raise EnumerationBoundError(
            f"{len(edges)} edges exceed the enumeration bound {limit}; "
            "raise it with --bound or RELFACT_BOUND"
        )


class Value:
    """Base of an immutable value type.

    A subclass lists its attributes in __slots__, FIELDS first, and in
    FIELDS the ones that define the value, in constructor order; an
    attribute derived from them (an index, a cached graph) sits in
    __slots__ only.  Its __init__ stores the slots with _set.  ==, hash and
    repr read FIELDS: equal values have the same type and equal fields, and
    the hash is the hash of the field tuple.  Assignment and deletion raise
    AttributeError, and pickling saves and restores every slot without
    running __init__ again.
    """

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set the first len(values) slots, in __slots__ order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)
