"""Rack construction, validation, and orbit decomposition; the immutable
record every value type of the package is built on."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.cli import RackDescription
from rackhom.closed_forms import EquivariantRanks, IntPolynomial
from rackhom.cycles import (
    CertifiedLevel,
    CycleRecipe,
    DifferenceFactor,
    OrbitAverageFactor,
    TerminalFactor,
)
from rackhom.homology import HomologyGroup
from rackhom.linalg import SmithForm, SparseIntMatrix
from rackhom.racks import (
    EmptySpec,
    FiniteRack,
    InfiniteOrbits,
    NotBijective,
    NotPermutation,
    NotSelfDistributive,
    OrbitDecomposition,
    PermutationSpec,
    as_permutation,
    dihedral_rack,
    orbit_decomposition,
    permutation_rack,
    trivial_rack,
    validate_rack,
)


class TestValidateRack:
    def test_one_element(self):
        rack = validate_rack([[0]])
        assert rack.size == 1
        assert rack.op(0, 0) == 0

    def test_swap_rows_is_a_rack(self):
        rack = validate_rack([[1, 0], [1, 0]])
        assert as_permutation(rack) == (1, 0)

    def test_self_distributivity_witness(self):
        # row 0 is the identity, row 1 swaps: 1▷(0▷0)=1 but (1▷0)▷(1▷0)=0
        with pytest.raises(NotSelfDistributive) as exc:
            validate_rack([[0, 1], [1, 0]])
        assert exc.value.witness == (1, 0, 0)

    def test_non_bijective_row(self):
        with pytest.raises(NotBijective) as exc:
            validate_rack([[0, 0], [0, 1]])
        assert exc.value.x == 0

    def test_ragged_and_empty(self):
        with pytest.raises(NotBijective):
            validate_rack([[0, 1]])
        with pytest.raises(ValueError):
            validate_rack([])

    def test_out_of_range_entries(self):
        with pytest.raises(NotBijective):
            validate_rack([[0, 2], [2, 0]])


class TestPermutationRack:
    def test_single_fixed_point(self):
        assert permutation_rack(PermutationSpec((1,))).table == ((0,),)

    def test_three_cycle(self):
        rack = permutation_rack(PermutationSpec((3,)))
        assert rack.table == ((1, 2, 0),) * 3

    def test_two_one(self):
        rack = permutation_rack(PermutationSpec((2, 1)))
        assert rack.table == ((1, 0, 2),) * 3

    def test_consecutive_numbering(self):
        rack = permutation_rack(PermutationSpec((3, 2)))
        assert as_permutation(rack) == (1, 2, 0, 4, 3)

    def test_free_orbits_refused(self):
        with pytest.raises(InfiniteOrbits):
            permutation_rack(PermutationSpec((2,), free_orbit_count=1))

    def test_empty_spec_refused(self):
        with pytest.raises(EmptySpec):
            permutation_rack(PermutationSpec(()))


class TestTrivialRack:
    def test_small_tables(self):
        assert trivial_rack(1).table == ((0,),)
        assert trivial_rack(2).table == ((0, 1), (0, 1))
        assert trivial_rack(3).table == ((0, 1, 2),) * 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trivial_rack(0)


class TestDihedralRack:
    def test_row_values(self):
        assert dihedral_rack(1).table == ((0,),)
        assert dihedral_rack(3).table[0] == (0, 2, 1)
        assert dihedral_rack(4).table[1] == (2, 1, 0, 3)

    def test_always_valid(self):
        for n in range(1, 13):
            dihedral_rack(n)  # construction validates both axioms

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dihedral_rack(0)


class TestAsPermutation:
    def test_trivial_is_identity(self):
        assert as_permutation(trivial_rack(2)) == (0, 1)

    def test_cycle_rack(self):
        assert as_permutation(permutation_rack(PermutationSpec((3,)))) == (1, 2, 0)

    def test_dihedral_is_not(self):
        assert as_permutation(dihedral_rack(3)) is None


class TestOrbitDecomposition:
    def test_identity(self):
        dec = orbit_decomposition((0, 1, 2))
        assert dec.orbits == ((0,), (1,), (2,))
        assert dec.orbit_of == (0, 1, 2)

    def test_single_cycle(self):
        dec = orbit_decomposition((1, 2, 0))
        assert dec.orbits == ((0, 1, 2),)

    def test_two_one(self):
        dec = orbit_decomposition((1, 0, 2))
        assert dec.orbits == ((0, 1), (2,))
        assert dec.orbit_of == (0, 0, 1)
        assert dec.sizes == (2, 1)

    def test_cycles_follow_phi(self):
        phi = (3, 4, 2, 1, 0)
        dec = orbit_decomposition(phi)
        for orbit in dec.orbits:
            for i, x in enumerate(orbit):
                assert phi[x] == orbit[(i + 1) % len(orbit)]
            assert orbit[0] == min(orbit)
        assert [o[0] for o in dec.orbits] == sorted(o[0] for o in dec.orbits)
        assert sorted(x for orbit in dec.orbits for x in orbit) == list(range(5))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            orbit_decomposition((0, 0, 1))


class TestPermutationSpec:
    def test_counts(self):
        spec = PermutationSpec((2, 3), free_orbit_count=2)
        assert spec.r == 4
        assert spec.r_fin == 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            PermutationSpec((0,))
        with pytest.raises(ValueError):
            PermutationSpec((2,), free_orbit_count=-1)

    def test_from_rack_recovers_sizes(self):
        for sizes in [(1,), (3,), (2, 1), (2, 2), (3, 2, 1)]:
            spec = PermutationSpec.from_rack(permutation_rack(PermutationSpec(sizes)))
            assert sorted(spec.finite_orbit_sizes) == sorted(sizes)
            assert spec.free_orbit_count == 0

    def test_from_rack_rejects_non_permutation(self):
        with pytest.raises(NotPermutation):
            PermutationSpec.from_rack(dihedral_rack(3))


class TestRackInvariants:
    def test_rack_is_hashable_and_frozen(self):
        rack = trivial_rack(2)
        assert hash(rack) == hash(validate_rack([[0, 1], [0, 1]]))
        with pytest.raises(AttributeError):
            rack.table = ()

    def test_normalizes_nested_lists(self):
        rack = FiniteRack([[1, 0], [1, 0]])
        assert isinstance(rack.table, tuple)
        assert isinstance(rack.table[0], tuple)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_permutation_racks_always_validate(self, sizes):
        rack = permutation_rack(PermutationSpec(tuple(sizes)))
        assert rack.size == sum(sizes)
        phi = as_permutation(rack)
        assert phi is not None
        assert sorted(orbit_decomposition(phi).sizes) == sorted(sizes)

    def test_left_multiplications_are_automorphisms(self):
        rng = random.Random(99)
        racks = [dihedral_rack(n) for n in (3, 4, 5)] + [
            permutation_rack(PermutationSpec((3, 1)))
        ]
        for rack in racks:
            for _ in range(20):
                x, y, z = (rng.randrange(rack.size) for _ in range(3))
                assert rack.op(x, rack.op(y, z)) == rack.op(rack.op(x, y), rack.op(x, z))


SWAP = FiniteRack(((1, 0), (1, 0)))

# One value of every record type, by its fields in order.  Each record type
# was a dataclass, frozen except RackDescription.
RECORDS = [
    (FiniteRack, {"table": ((1, 0), (1, 0))}),
    (PermutationSpec, {"finite_orbit_sizes": (2, 1), "free_orbit_count": 1}),
    (OrbitDecomposition, {"orbits": ((0, 1), (2,)), "orbit_of": (0, 0, 1)}),
    (SparseIntMatrix, {"row_count": 2, "col_count": 3, "entries": {(0, 1): 5}}),
    (SmithForm, {"rank": 1, "divisors": (5,), "left": None, "right": None}),
    (HomologyGroup, {"free_rank": 2, "torsion": (2, 4)}),
    (IntPolynomial, {"coefficients": (1, 2), "order": 3}),
    (EquivariantRanks, {"h0": 3, "h1": 2}),
    (DifferenceFactor, {"x": 1, "y": 0}),
    (OrbitAverageFactor, {"t": 0, "d": 2}),
    (TerminalFactor, {"x": 1}),
    (CycleRecipe, {"rack": SWAP, "factors": (DifferenceFactor(1, 0), TerminalFactor(0))}),
    (CertifiedLevel, {"degree": 1, "recipes": [CycleRecipe(SWAP, (TerminalFactor(0),))], "rank": 1}),
    (RackDescription, {"kind": "permutation", "table": None, "cycles": [[0, 1]], "free_orbits": 1}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]
# The records holding a list or a dict, which hash as the dataclass did: not at all.
UNHASHABLE = {SparseIntMatrix, CertifiedLevel, RackDescription}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
class TestRecords:
    def test_positional_and_keyword_construction(self, cls, fields):
        record = cls(*fields.values())
        assert record == cls(**fields)
        assert {name: getattr(record, name) for name in fields} == fields
        with pytest.raises(TypeError):
            cls(*fields.values(), 0)
        with pytest.raises(TypeError):
            cls(*fields.values(), unknown=0)
        with pytest.raises(TypeError):
            cls(*fields.values(), **{next(iter(fields)): 0})
        if cls is not PermutationSpec:  # the one record whose every field has a default
            with pytest.raises(TypeError):
                cls()

    def test_equal_only_to_its_own_type(self, cls, fields):
        record = cls(**fields)
        assert record == cls(**copy.deepcopy(fields))
        assert record != tuple(fields.values())
        twin = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
        assert record != twin(**fields)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(cls(**copy.deepcopy(fields)))

    def test_repr_is_the_dataclass_repr(self, cls, fields):
        twin = dataclasses.make_dataclass(cls.__qualname__, list(fields), frozen=True)
        assert repr(cls(**fields)) == repr(twin(**fields))

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields):
        record = cls(**fields)
        for name in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)

    def test_copy_deepcopy_and_pickle_round_trip(self, cls, fields, monkeypatch):
        record = cls(**fields)
        # a copy is not checked again: a FiniteRack's check is cubic in its size
        monkeypatch.setattr(cls, "__post_init__", lambda self: pytest.fail("checked again"))
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(twin) is cls and twin == record
        if cls in UNHASHABLE:
            assert copy.deepcopy(record) is not record


def test_record_defaults():
    assert PermutationSpec() == PermutationSpec((), 0)
    assert HomologyGroup(3) == HomologyGroup(3, ())
    assert SmithForm(0, ()) == SmithForm(0, (), None, None)
    assert IntPolynomial((1,)).order is None
    assert CycleRecipe(SWAP).factors == ()
    assert RackDescription("table") == RackDescription("table", None, None, 0)
    assert SparseIntMatrix(2, 2) == SparseIntMatrix(2, 2, {})
    # a new dict for each matrix, as a dataclass default_factory gave
    assert SparseIntMatrix(2, 2).entries is not SparseIntMatrix(2, 2).entries


def test_record_repr_literals():
    assert repr(HomologyGroup(8)) == "HomologyGroup(free_rank=8, torsion=())"
    assert repr(PermutationSpec((2, 1))) == (
        "PermutationSpec(finite_orbit_sizes=(2, 1), free_orbit_count=0)"
    )
    assert repr(SparseIntMatrix(1, 2)) == "SparseIntMatrix(row_count=1, col_count=2, entries={})"
    assert repr(CycleRecipe(SWAP, (TerminalFactor(1),))) == (
        "CycleRecipe(rack=FiniteRack(table=((1, 0), (1, 0))), factors=(TerminalFactor(x=1),))"
    )
