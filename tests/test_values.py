"""Value semantics of the records of the bit-level modules.

Each record is immutable and compares, hashes, prints, copies and pickles
by its fields.  ``BoundReport`` alone compares by identity.  The repr
strings below are the record's text form, which logs and error messages
carry, so they are pinned here.
"""

import copy
import pickle
import random

import pytest

from paulicrit.bounds import (
    BoundReport,
    Claim,
    PartitionBound,
    Verdict,
    classify,
    criteria_report,
)
from paulicrit.cuts import (
    Partition,
    SymmetryChain,
    enumerate_bipartitions,
    symmetry_group,
)
from paulicrit.graphs import CliqueResult, Graph
from paulicrit.pauli import OperatorSet, PauliString

AB = Partition(2, ((0,), (1,)))

# (by position, by keyword, repr, an instance differing in one field)
CASES = {
    "PauliString": (
        lambda: PauliString(4, 3, 10),
        lambda: PauliString(width=4, x_bits=3, z_bits=10),
        "PauliString(width=4, x_bits=3, z_bits=10)",
        lambda: PauliString(4, 3, 11),
    ),
    "Partition": (
        lambda: Partition(3, ((2, 0), (1,))),
        lambda: Partition(width=3, blocks=[[1], [0, 2]]),
        "Partition(width=3, blocks=((0, 2), (1,)))",
        lambda: Partition(3, ((0, 1), (2,))),
    ),
    "SymmetryChain": (
        lambda: SymmetryChain(2, ((1, 0),), (((0, 1), (1, 0)),), 2),
        lambda: SymmetryChain(
            width=2, generators=((1, 0),), transversals=(((0, 1), (1, 0)),),
            member_count=2,
        ),
        "SymmetryChain(width=2, generators=((1, 0),), "
        "transversals=(((0, 1), (1, 0)),), member_count=2)",
        lambda: SymmetryChain(2, ((1, 0),), (((0, 1), (1, 0)),), 3),
    ),
    "Graph": (
        lambda: Graph(("xx1", "1xx", "x1x"), (6, 5, 3)),
        lambda: Graph(labels=("xx1", "1xx", "x1x"), adjacency=(6, 5, 3)),
        "Graph(labels=('xx1', '1xx', 'x1x'), adjacency=(6, 5, 3))",
        lambda: Graph(("xx1", "1xx", "x1x"), (2, 1, 0)),
    ),
    "CliqueResult": (
        lambda: CliqueResult(3, (0, 1, 2)),
        lambda: CliqueResult(size=3, witness=(0, 1, 2)),
        "CliqueResult(size=3, witness=(0, 1, 2))",
        lambda: CliqueResult(3, (0, 1, 3)),
    ),
    "PartitionBound": (
        lambda: PartitionBound(1, ("xx",), AB),
        lambda: PartitionBound(bound=1, witness=("xx",), orbit=AB),
        "PartitionBound(bound=1, witness=('xx',), "
        "orbit=Partition(width=2, blocks=((0,), (1,))))",
        lambda: PartitionBound(1, ("zz",), AB),
    ),
    "Claim": (
        lambda: Claim("entangled (not fully separable)", 1.0),
        lambda: Claim(claim="entangled (not fully separable)", threshold=1.0),
        "Claim(claim='entangled (not fully separable)', threshold=1.0)",
        lambda: Claim("entangled (not fully separable)", 2.0),
    ),
    "Verdict": (
        lambda: Verdict(2.5, (Claim("c", 1.0),), ("w",)),
        lambda: Verdict(q_value=2.5, claims=(Claim("c", 1.0),), warnings=("w",)),
        "Verdict(q_value=2.5, claims=(Claim(claim='c', threshold=1.0),), "
        "warnings=('w',))",
        lambda: Verdict(2.5, (Claim("c", 1.0),)),
    ),
}

REPORT_REPR = (
    "BoundReport(sigma=('xx', 'zz'), width=2, per_partition={Partition(width=2, "
    "blocks=((0,), (1,))): PartitionBound(bound=1, witness=('xx',), "
    "orbit=Partition(width=2, blocks=((0,), (1,))))}, class_bounds="
    "{'full_separability': 1, 'any_bipartition': 1}, quantum_lower=2, "
    "quantum_witness=('xx', 'zz'), quantum_upper=None, notes=('symmetry group "
    "order 2; 1 partitions in 1 orbits', 'class bounds take the maximum over "
    "member partitions; mixing never exceeds the best component'))"
)


def _report():
    return criteria_report(OperatorSet.from_strings(["xx", "zz"]))


@pytest.mark.parametrize("name", CASES)
def test_record_compares_and_hashes_by_its_fields(name):
    by_position, by_keyword, text, other = CASES[name]
    value = by_position()
    assert type(value).__name__ == name
    assert value == by_keyword() and not value != by_keyword()
    assert hash(value) == hash(by_keyword())
    assert value != other() and not value == other()
    assert value != tuple(getattr(value, f) for f in _fields(value))
    assert repr(value) == text


@pytest.mark.parametrize("name", CASES)
def test_record_refuses_assignment_and_deletion(name):
    value = CASES[name][0]()
    field = _fields(value)[0]
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 1)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert getattr(value, field) == getattr(CASES[name][1](), field)


@pytest.mark.parametrize("name", CASES)
def test_record_survives_copy_and_pickle(name):
    value = CASES[name][0]()
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
    ):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_record_hashes_as_the_tuple_of_its_fields():
    for by_position, _, _, _ in CASES.values():
        value = by_position()
        assert hash(value) == hash(tuple(getattr(value, f) for f in _fields(value)))


def test_partition_orders_by_width_then_blocks():
    parts = enumerate_bipartitions(6) + [Partition.finest(6), Partition.finest(5)]
    shuffled = parts[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=lambda p: (p.width, p.blocks))
    a, b = Partition.single_block(3), Partition.finest(3)
    assert b < a and b <= a and a > b and a >= b and a <= a and a >= a
    assert not a < a and not a > a
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)((3, a.blocks)) is NotImplemented
    with pytest.raises(TypeError):
        a < (3, a.blocks)
    with pytest.raises(TypeError):
        a >= (3, a.blocks)
    assert a != (3, a.blocks) and not a == (3, a.blocks)


def test_partition_compares_its_canonical_blocks_only():
    part = Partition(3, [[2, 0], [1]])
    assert part.blocks == ((0, 2), (1,)) and part.masks == (5, 2)
    assert part == Partition(3, ((1,), (0, 2)))
    assert hash(part) == hash((3, ((0, 2), (1,))))


def test_report_compares_by_identity_and_keeps_its_fields():
    report = _report()
    assert repr(report) == REPORT_REPR
    assert report == report and report != _report()
    assert hash(report) == object.__hash__(report)
    twins = (copy.deepcopy(report), pickle.loads(pickle.dumps(report)))
    for twin in twins:
        assert twin != report and repr(twin) == REPORT_REPR
        assert twin.to_json() == report.to_json()
    with pytest.raises(AttributeError):
        report.width = 3
    with pytest.raises(AttributeError):
        del report.notes
    keyword = BoundReport(
        sigma=report.sigma, width=2, per_partition=report.per_partition,
        class_bounds=report.class_bounds, quantum_lower=2,
        quantum_witness=report.quantum_witness, quantum_upper=None,
    )
    assert keyword.notes == ()
    positional = BoundReport(
        report.sigma, 2, report.per_partition, report.class_bounds, 2,
        report.quantum_witness, None, report.notes,
    )
    assert repr(positional) == REPORT_REPR


def test_verdict_defaults_and_report_rows_from_the_library():
    report = _report()
    verdict = classify(2.5, report)
    assert verdict == Verdict(
        2.5,
        (
            Claim("entangled (not fully separable)", 1.0),
            Claim("genuinely multipartite entangled", 1.0),
        ),
        ("value 2.5 exceeds the no-cut maximum 2; check the inputs",),
    )
    assert Verdict(0.5, ()).warnings == ()
    assert symmetry_group(OperatorSet.from_strings(["xx1", "1xx", "x1x"])) == (
        SymmetryChain(
            3,
            ((0, 2, 1), (1, 0, 2)),
            (((0, 1, 2), (0, 2, 1)), ((0, 1, 2), (1, 0, 2), (2, 0, 1))),
            3,
        )
    )


# each record's constructor parameters, in order
FIELDS = {
    "PauliString": ("width", "x_bits", "z_bits"),
    "Partition": ("width", "blocks"),
    "SymmetryChain": ("width", "generators", "transversals", "member_count"),
    "Graph": ("labels", "adjacency"),
    "CliqueResult": ("size", "witness"),
    "PartitionBound": ("bound", "witness", "orbit"),
    "Claim": ("claim", "threshold"),
    "Verdict": ("q_value", "claims", "warnings"),
}


def _fields(value) -> tuple[str, ...]:
    return FIELDS[type(value).__name__]
