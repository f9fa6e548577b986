"""Rack construction, validation, and orbit decomposition; the immutable
record every value type of the package is built on."""

import copy
import dataclasses
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackhom.racks
from corpus import permutation_racks
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
    DegreeTooLarge,
    EmptySpec,
    FiniteRack,
    InfiniteOrbits,
    NotBijective,
    NotPermutation,
    NotSelfDistributive,
    OrbitDecomposition,
    PermutationSpec,
    as_permutation,
    check_basis,
    check_count,
    dihedral_rack,
    orbit_count,
    orbit_decomposition,
    permutation_rack,
    require_permutation,
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

    def test_witness_is_the_least_failing_triple(self):
        # the rows are compared whole; the witness must still be the first
        # failure of the triple loop over x, y, z
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            table = [rng.sample(range(n), n) for _ in range(n)]
            expected = next(
                (
                    (x, y, z)
                    for x in range(n)
                    for y in range(n)
                    for z in range(n)
                    if table[x][table[y][z]] != table[table[x][y]][table[x][z]]
                ),
                None,
            )
            try:
                validate_rack(table)
                witness = None
            except NotSelfDistributive as exc:
                witness = exc.witness
            assert witness == expected, table
            outcomes.add(witness is None)
        assert outcomes == {True, False}

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

    def test_entries_that_are_not_ints(self):
        # 1.0 and True equal 1 and hash as 1, so a set of the row matched
        for table, x in (
            ([[1.0, 0.0], [1.0, 0.0]], 0),
            ([[1, 0], [True, 0]], 1),
            ([[1, 0], [1, "0"]], 1),
        ):
            with pytest.raises(NotBijective) as exc:
                validate_rack(table)
            assert exc.value.x == x


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

    def test_require_permutation_is_phi_or_refuses(self):
        assert require_permutation(permutation_rack(PermutationSpec((3,)))) == (1, 2, 0)
        with pytest.raises(NotPermutation, match=r"^rows of the table differ$"):
            require_permutation(dihedral_rack(3))


class TestOrbitCount:
    def test_permutation_rack_has_one_orbit_per_cycle_of_phi(self):
        for rack in permutation_racks(6):
            assert orbit_count(rack) == len(orbit_decomposition(as_permutation(rack)).orbits)

    def test_dihedral_racks(self):
        # x▷y = 2x - y keeps the parity of y when n is even
        assert [orbit_count(dihedral_rack(n)) for n in range(1, 9)] == [1, 2, 1, 2, 1, 2, 1, 2]


# Caps over the whole range, and each power of a size up to 2^40 with its
# two neighbours, where size^n > cap turns.
POWERS = sorted({b ** k for b in range(2, 7) for k in range(41) if b ** k <= 2 ** 40})
CAPS = st.one_of(
    st.integers(-1, 2 ** 40),
    st.builds(lambda power, step: power + step, st.sampled_from(POWERS), st.integers(-1, 1)),
)


class TestCapGates:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 64), st.integers(0, 64), CAPS)
    def test_basis_check_is_the_exact_comparison(self, size, low, high, cap):
        degrees = range(low, high + 1)
        over = [n for n in degrees if size ** n > cap]
        if not over:
            check_basis(size, degrees, cap)
            return
        with pytest.raises(DegreeTooLarge) as caught:
            check_basis(size, degrees, cap)
        assert str(caught.value) == f"{size}^{over[0]} basis monomials exceed the cap of {cap}"

    def test_messages(self):
        with pytest.raises(DegreeTooLarge, match=r"^3\^13 exceeds the cap of 1000000$"):
            check_basis(3, range(10**9), 10**6, "exceeds")
        with pytest.raises(DegreeTooLarge, match=r"^1\^0 exceeds the cap of 0$"):
            check_basis(1, range(10**9), 0, "exceeds")
        check_basis(1, range(10**9), 1)
        check_count(7, 7, "degree {} exceeds")
        with pytest.raises(DegreeTooLarge, match=r"^8 cells of d_2 \.\. d_5 exceed the cap of 7$"):
            check_count(8, 7, "{} cells of d_2 .. d_{} exceed", 5)

    def test_only_racks_words_a_cap_refusal_or_the_permutation_test(self):
        # every layer calls check_basis, check_count and require_permutation
        # rather than growing its own copy of the test and its message
        refusal = 'NotPermutation("rows of the table differ")'
        for path in sorted(Path(rackhom.racks.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.name == "racks.py":
                assert text.count("the cap of") == 2 and text.count(refusal) == 1
            else:
                assert "the cap of" not in text, path.name
                assert refusal not in text, path.name


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

    def test_rejects_sizes_and_counts_that_are_not_ints(self):
        # each of these used to be truncated or converted: (2.7,) to (2,)
        for sizes in [(2.7,), ("3",), (True,), (2, 1.0)]:
            with pytest.raises(ValueError, match="orbit sizes must be positive integers"):
                PermutationSpec(sizes)
        for count in (1.5, 1.0, "1", True):
            with pytest.raises(ValueError, match="free_orbit_count must be a nonnegative integer"):
                PermutationSpec((), count)
        assert PermutationSpec([2, 1], 1).finite_orbit_sizes == (2, 1)

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
# was a frozen dataclass.
RECORDS = [
    (FiniteRack, {"table": ((1, 0), (1, 0))}),
    (PermutationSpec, {"finite_orbit_sizes": (2, 1), "free_orbit_count": 1}),
    (OrbitDecomposition, {"orbits": ((0, 1), (2,)), "orbit_of": (0, 0, 1)}),
    (SparseIntMatrix, {"row_count": 2, "col_count": 3, "entries": {(0, 1): 5}}),
    (SmithForm, {"divisors": (5,)}),
    (HomologyGroup, {"free_rank": 2, "torsion": (2, 4)}),
    (IntPolynomial, {"coefficients": (1, 2), "order": 3}),
    (EquivariantRanks, {"h0": 3, "h1": 2}),
    (DifferenceFactor, {"x": 1, "y": 0}),
    (OrbitAverageFactor, {"t": 0, "d": 2}),
    (TerminalFactor, {"x": 1}),
    (CycleRecipe, {"rack": SWAP, "factors": (DifferenceFactor(1, 0), TerminalFactor(0))}),
    (CertifiedLevel, {"degree": 1, "recipes": [CycleRecipe(SWAP, (TerminalFactor(0),))], "rank": 1}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]
# The records holding a list or a dict, which hash as the dataclass did: not at all.
UNHASHABLE = {SparseIntMatrix, CertifiedLevel}


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
    # a SmithForm's rank is the count of its divisors, not a field of its own
    assert SmithForm(()).rank == 0 and SmithForm((2, 6)).rank == 2
    with pytest.raises(TypeError):
        SmithForm(rank=5, divisors=(2,))
    assert IntPolynomial((1,)).order is None
    assert CycleRecipe(SWAP).factors == ()
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
