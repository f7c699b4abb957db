"""The contract every immutable value type of the package keeps.

Each type compares and hashes by the fields that define it; attributes
derived from those fields (a decomposition's union, an order's position
index) take no part.  Assignment raises AttributeError, and the types the
process pool ships pickle.  The types that only store their fields take
them by position or by keyword, through one initializer.
"""

import pickle
from fractions import Fraction

import pytest

from corpus import bridge_decomposition, bridge_graph
from lattice import Orbit, orbits, parse_partition
from relfact.cluster import ClusterPolynomial, partition_function
from relfact.conmatrix import ConnectivityBundle, invert_connectivity_matrix
from relfact.cut import CutDecomposition, FactorizationResult, factorization_detail
from relfact.graphs import Edge, StochasticGraph
from relfact.linalg import InvariantFactors, diagonal_smith_form
from relfact.partitions import CoherentOrder, Partition, coherent_order
from relfact.states import ReliabilityPolynomial, StateDistribution, reliability_polynomial, state_distribution


def fresh_order():
    order = coherent_order(3)
    return CoherentOrder(n=order.n, variant=order.variant, states=order.states, index=dict(order.index))


# type -> (builder of a fresh value, one of its fields); two calls of the
# builder give equal, distinct objects
VALUES = {
    Edge: (lambda: Edge(7, "v", "u", Fraction(1, 3)), "id"),
    StochasticGraph: (bridge_graph, "nodes"),
    CutDecomposition: (bridge_decomposition, "g1"),
    Partition: (lambda: Partition(((3, 1), (2,))), "labels"),
    Orbit: (lambda: Orbit(members=tuple(orbits(3)[1].members), block_count=2, signature=(2, 1)), "members"),
    CoherentOrder: (fresh_order, "n"),
    ReliabilityPolynomial: (lambda: reliability_polynomial(bridge_graph()), "coefficients"),
    StateDistribution: (lambda: state_distribution(bridge_graph(), ("s", "t")), "boundary"),
    FactorizationResult: (lambda: factorization_detail(bridge_decomposition()), "side1"),
    ConnectivityBundle: (lambda: invert_connectivity_matrix(fresh_order()), "order"),
    InvariantFactors: (lambda: diagonal_smith_form([2, 6]), "snf_diagonal"),
    ClusterPolynomial: (lambda: partition_function(bridge_graph()), "node_count"),
}
# the types holding a dict or list field, which has no hash
UNHASHABLE = {StateDistribution, FactorizationResult, ConnectivityBundle, ClusterPolynomial}
PICKLED = (Edge, StochasticGraph, CutDecomposition, Partition)


def type_name(kind):
    return kind.__name__


@pytest.mark.parametrize("kind", VALUES, ids=type_name)
class TestValueContract:
    def test_assignment_raises_attribute_error(self, kind):
        build, attr = VALUES[kind]
        value = build()
        before = getattr(value, attr)
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        with pytest.raises(AttributeError):
            value.not_an_attribute = 0
        assert getattr(value, attr) is before

    def test_equal_values_compare_and_hash_equal(self, kind):
        build = VALUES[kind][0]
        a, b = build(), build()
        assert type(a) is kind and a is not b
        assert a == b and not a != b
        if kind in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert a != object()


# the types that only store their fields, through Value's one initializer
DECLARED = (FactorizationResult, InvariantFactors, ConnectivityBundle, CoherentOrder, ReliabilityPolynomial)


def slot_values(kind):
    """Each slot of a fresh value of kind, in __slots__ order."""
    value = VALUES[kind][0]()
    return {name: getattr(value, name) for name in kind.__slots__}


@pytest.mark.parametrize("kind", DECLARED, ids=type_name)
class TestInitializer:
    def test_position_and_keyword_give_equal_values(self, kind):
        fields = slot_values(kind)
        by_position = kind(*fields.values())
        # keywords given last slot first, so each must find its own slot
        by_keyword = kind(**dict(reversed(fields.items())))
        assert by_position == by_keyword == VALUES[kind][0]()
        for name, field in fields.items():
            assert getattr(by_position, name) is field
            assert getattr(by_keyword, name) is field

    def test_a_missing_repeated_or_unknown_argument_raises_type_error(self, kind):
        fields = slot_values(kind)
        values = list(fields.values())
        first, last = next(iter(fields)), list(fields)[-1]
        with pytest.raises(TypeError, match=f"missing arguments: {last}$"):
            kind(*values[:-1])
        with pytest.raises(TypeError, match=f"missing arguments: {first}$"):
            kind(**{name: field for name, field in fields.items() if name != first})
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            kind(*values, **{first: values[0]})
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            kind(*values, extra=0)
        with pytest.raises(TypeError, match=f"takes {len(values)} arguments, {len(values) + 1} given"):
            kind(*values, 0)


class TestDerivedAttributesStayOutOfEquality:
    def test_index_of_a_coherent_order(self):
        order = coherent_order(3)
        bare = CoherentOrder(n=3, variant="canonical", states=order.states, index={})
        assert bare == order
        assert hash(bare) == hash(order)
        assert "index" not in repr(bare)

    def test_union_of_a_decomposition(self):
        d, other = bridge_decomposition(), bridge_decomposition()
        object.__setattr__(other, "union", bridge_graph(Fraction(1, 3)))
        assert d.union != other.union
        assert d == other
        assert hash(d) == hash(other)
        assert "union" not in repr(d)

    def test_fields_that_differ_break_equality(self):
        assert Edge(1, "a", "b", Fraction(1, 2)) != Edge(1, "a", "b", Fraction(1, 3))
        assert Edge(1, "a", "b", Fraction(1, 2)) == Edge(1, "b", "a", "1/2")
        assert bridge_decomposition() != bridge_decomposition(Fraction(1, 3))
        assert coherent_order(3) != coherent_order(3, "reversed-levels")


class TestHashValues:
    """hash is the hash of the field tuple, so dict and set iteration orders
    over these values do not depend on how the type is written."""

    def test_partition(self):
        p = parse_partition("13|2")
        assert hash(p) == hash(((0, 1, 0),))

    def test_edge(self):
        e = Edge(7, "v", "u", Fraction(1, 3))
        assert hash(e) == hash((7, "u", "v", Fraction(1, 3)))

    def test_decomposition(self):
        d = bridge_decomposition()
        assert hash(d) == hash((d.g1, d.g2, d.boundary))

    def test_invariant_factors(self):
        f = InvariantFactors(snf_diagonal=(1, 2), torsion_prime_powers=((2, 1, 1),))
        assert hash(f) == hash(((1, 2), ((2, 1, 1),)))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("kind", PICKLED, ids=type_name)
def test_pickle_round_trip(kind, protocol):
    value = VALUES[kind][0]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value
    assert hash(back) == hash(value)
    if kind is CutDecomposition:
        assert back.union == value.union
