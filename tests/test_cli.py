"""Command line interface: parsing, dispatch, formats, errors, round-trips."""

import gc
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rackhom
import rackhom.cli
import rackhom.cycles
from rackhom.chains import Chain
from rackhom.cli import emit_json, finite_rack, load_description, main
from rackhom.closed_forms import IntPolynomial, betti_numbers
from rackhom.racks import PermutationSpec

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TWO_ONE = {"kind": "permutation", "cycles": [[0, 1], [2]]}
FIB = {"kind": "permutation", "cycles": [[0]], "free_orbits": 1}
DIHEDRAL_3 = {"kind": "table", "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}
DIHEDRAL_4 = {
    "kind": "table",
    "table": [[0, 3, 2, 1], [2, 1, 0, 3], [0, 3, 2, 1], [2, 1, 0, 3]],
}
SWAP_TABLE = {"kind": "table", "table": [[1, 0], [1, 0]]}


@pytest.fixture
def rack_file(tmp_path):
    def write(document, name="rack.json"):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--input", "/nonexistent.json")
        assert code == 2
        assert err.startswith("ParseError:")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2
        assert err.startswith("ParseError:")

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 100000 + b"]" * 100000,  # RecursionError in the decoder
            b'{"kind": "permutation", "cycles": [[0]]}\xff',  # UnicodeDecodeError
            pytest.param(
                b'{"kind": "permutation", "cycles": [[0]], "free_orbits": '
                + b"1" * 5000 + b"}",  # ValueError: past the int digit limit
                marks=pytest.mark.skipif(
                    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int digit limit before Python 3.10.7",
                ),
            ),
        ],
        ids=["deep", "not-utf-8", "too-many-digits"],
    )
    def test_malformed_file_is_a_parse_error(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("ParseError: invalid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "document",
        [
            {"kind": "mystery"},
            {"kind": "table"},
            {"kind": "table", "table": [[0]], "cycles": [[0]]},
            {"kind": "table", "table": []},
            {"kind": "table", "table": [[0, "x"]]},
            {"kind": "permutation"},
            {"kind": "permutation", "cycles": [[0, 2]]},
            {"kind": "permutation", "cycles": [[0], [0]]},
            {"kind": "permutation", "cycles": [[]]},
            {"kind": "permutation", "cycles": [], "free_orbits": 0},
            {"kind": "permutation", "cycles": [[0]], "free_orbits": -1},
            {"kind": "table", "table": [[False]]},
            {"kind": "permutation", "cycles": [[0, True]]},
            {"kind": "permutation", "cycles": [[False]]},
            {"kind": "permutation", "cycles": [[0]], "free_orbits": True},
            [],
        ],
    )
    def test_schema_violations(self, capsys, rack_file, document):
        code, _, err = run_cli(capsys, "validate", "--input", rack_file(document))
        assert code == 2
        assert err.startswith("ParseError:")

    def test_flag_validation(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        for flags in (["--max-degree", "-1"], ["--terms", "0"], ["--basis-cap", "0"]):
            code, _, err = run_cli(capsys, "betti", "--input", path, *flags)
            assert code == 2
            assert err.startswith("ParseError:")

    def test_description_free_orbits_default(self, rack_file):
        description = load_description(rack_file(TWO_ONE))
        assert description == {"kind": "permutation", "cycles": [[0, 1], [2]], "free_orbits": 0}
        assert list(description) == ["kind", "cycles", "free_orbits"]


class TestErrorMapping:
    def test_rack_axiom_failure(self, capsys, rack_file):
        path = rack_file({"kind": "table", "table": [[0, 1], [1, 0]]})
        code, _, err = run_cli(capsys, "validate", "--input", path)
        assert code == 2
        assert err.startswith("ValidationError:")

    def test_brute_force_on_free_orbits(self, capsys, rack_file):
        path = rack_file(FIB)
        for command in ("homology", "cycles", "verify"):
            code, _, err = run_cli(capsys, command, "--input", path)
            assert code == 2
            assert err.startswith("InfiniteOrbits:")

    def test_closed_form_on_non_permutation_table(self, capsys, rack_file):
        path = rack_file(DIHEDRAL_3)
        for command in ("betti", "e2", "verify", "cycles"):
            code, _, err = run_cli(capsys, command, "--input", path)
            assert code == 2
            assert err.startswith("ValidationError:")

    def test_degree_cap(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, _, err = run_cli(
            capsys, "homology", "--input", path, "--max-degree", "4", "--basis-cap", "10"
        )
        assert code == 2
        assert err.startswith("DegreeTooLarge:")

    def test_closed_form_work_cap_fails_fast(self, capsys, rack_file):
        path = rack_file(FIB)
        for flags in (
            ["e2", "--max-degree", "100000"],
            ["betti", "--max-degree", "1000000"],
            ["betti", "--terms", "10000000"],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, flags[0], "--input", path, *flags[1:])
            assert time.perf_counter() - start < 1.0, flags
            assert (code, out) == (2, "")
            assert err.startswith("DegreeTooLarge:")

    def test_cycle_work_cap_fails_before_any_work(self, capsys, rack_file, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran past the cap")

        monkeypatch.setattr(rackhom.cycles, "_recipes", no_work)
        monkeypatch.setattr(rackhom.cycles, "_word_levels", no_work)
        monkeypatch.setattr(rackhom.cli, "homology_table", no_work)
        path = rack_file({"kind": "permutation", "cycles": [[0], [1], [2]]})
        for command, degree, message in (
            ("cycles", "13", "3^13 exceeds the cap of 1000000"),
            ("cycles", "10", "3226767 cycle chain terms exceed the cap of 1000000"),
            # homology passes its own cap (3^11 monomials) and is not run
            ("verify", "10", "3226767 cycle chain terms exceed the cap of 1000000"),
            ("verify", "13", "3^13 basis monomials exceed the cap of 1000000"),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, command, "--input", path, "--max-degree", degree)
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (2, "", f"DegreeTooLarge: {message}\n")

    def test_recipe_factor_cap_fails_fast_on_a_one_element_rack(
        self, capsys, rack_file, monkeypatch
    ):
        # |X|^n = T_n = 1 there, so only the recipes grow: ⌈n/2⌉ factors in
        # degree n, a text quadratic in the degree (2.0 s and 12.5 MB at 2000)
        path = rack_file({"kind": "permutation", "cycles": [[0]]})
        code, out, err = run_cli(
            capsys, "cycles", "--input", path, "--max-degree", "19", "--basis-cap", "100"
        )
        assert (code, err) == (0, "")  # 100 factors, exactly the cap
        assert out.splitlines()[-2] == "B_19: " + "avg(0)·" * 9 + "(0)"

        def no_work(*args, **kwargs):
            raise AssertionError("work ran past the cap")

        monkeypatch.setattr(rackhom.cycles, "_recipes", no_work)
        monkeypatch.setattr(rackhom.cycles, "_word_levels", no_work)
        monkeypatch.setattr(rackhom.cli, "homology_table", no_work)
        for command, degree, cap, factors in (
            ("cycles", "20", "100", 110),
            ("cycles", "2000", "1000000", 1001000),
            ("verify", "2000", "1000000", 1001000),
            ("cycles", "1000000000", "1000000", 250000000500000000),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, command, "--input", path, "--max-degree", degree, "--basis-cap", cap
            )
            assert time.perf_counter() - start < 1.0, (command, degree)
            assert (code, out) == (2, "")
            assert err == f"DegreeTooLarge: {factors} cycle recipe factors exceed the cap of {cap}\n"

    def test_homology_table_work_cap_fails_fast_on_a_one_element_rack(
        self, capsys, rack_file
    ):
        # every |X|^n is 1 there, but the table's work grows with D²;
        # Σ n·|X|^n first passes the cap at d_1414
        path = rack_file({"kind": "permutation", "cycles": [[0]]})
        message = "1000404 basis digits of d_2 .. d_1414 exceed the cap of 1000000"
        for degree in ("2000", "10000", "1000000000"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "homology", "--input", path, "--max-degree", degree)
            assert time.perf_counter() - start < 1.0, degree
            assert (code, out, err) == (2, "", f"DegreeTooLarge: {message}\n")

    def test_betti_numbers_too_long_to_print_fail_fast(self, capsys, rack_file):
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
            pytest.skip("needs the default int-to-str digit limit of Python >= 3.10.7")
        # perm (2,1) plus one free orbit: b_n passes 4300 digits near n = 9860
        path = rack_file({"kind": "permutation", "cycles": [[0, 1], [2]], "free_orbits": 1})
        for flags in (
            ["betti", "--max-degree", "10000"],
            ["e2", "--max-degree", "10000"],
            ["betti", "--terms", "10001"],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, flags[0], "--input", path, *flags[1:], "--basis-cap", "100000000"
            )
            assert time.perf_counter() - start < 1.0, flags
            assert (code, out) == (2, "")
            assert err.startswith("DegreeTooLarge: b_10000 has more than 4300 digits"), flags
        # the last degree whose b_n fits still prints; with r = 10**100 + 1
        # and r_fin = 1, b_n gains 100 digits a degree
        free = 10**100
        path = rack_file({"kind": "permutation", "cycles": [[0]], "free_orbits": free}, "r.json")
        numbers = betti_numbers(PermutationSpec((1,), free), 50)
        last = max(n for n, b in enumerate(numbers) if b < 10**4300)
        code, out, _ = run_cli(
            capsys, "betti", "--input", path, "--max-degree", str(last), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"][-1]["closed_form"] == numbers[last]
        code, out, err = run_cli(capsys, "betti", "--input", path, "--max-degree", str(last + 1))
        assert (code, out) == (2, "")
        assert err == f"DegreeTooLarge: b_{last + 1} has more than 4300 digits, too many to print\n"

    def test_long_poincare_series_of_a_free_orbit_is_linear(self, capsys, rack_file):
        # series 1, 1, 0, 0, ...: stripping its trailing zeros one slice at a
        # time took 11.8 s at 80000 terms
        path = rack_file({"kind": "permutation", "cycles": [], "free_orbits": 1})
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "betti", "--input", path, "--terms", "100000")
        assert time.perf_counter() - start < 3.0
        assert (code, err) == (0, "")
        assert out.splitlines()[-2] == "poincare_series: 1, 1" + ", 0" * 99998

    def test_a_large_permutation_rack_is_checked_in_quadratic_time(self, capsys, rack_file):
        # its |X|³ = 216 million triples took 15-21 s before any cap was met
        document = {"kind": "permutation", "cycles": [list(range(600))]}
        path = rack_file(document)
        start = time.perf_counter()
        assert finite_rack(load_description(path)).size == 600
        assert time.perf_counter() - start < 2.0
        for command, degree, code in (("verify", "2", 2), ("homology", "4", 2), ("cycles", "2", 0)):
            start = time.perf_counter()
            result = run_cli(capsys, command, "--input", path, "--max-degree", degree)
            assert time.perf_counter() - start < 2.0, command
            assert result[0] == code, result
            if code:
                assert result[2] == "DegreeTooLarge: 600^3 basis monomials exceed the cap of 1000000\n"

    def test_many_orbits_get_their_start_set_in_quadratic_time(self, capsys, rack_file):
        # 600 fixed points, each its own orbit: a start set built from one
        # trial per candidate kept homology busy for over 30 s
        path = rack_file({"kind": "permutation", "cycles": [[x] for x in range(600)]})
        for command in ("homology", "verify"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, command, "--input", path, "--max-degree", "1")
            assert time.perf_counter() - start < 5.0, command
            assert (code, err) == (0, ""), command
            assert out.splitlines()[2].split()[:2] == ["1", "600"], command

    def test_closed_form_work_at_the_cap_runs(self, capsys, rack_file):
        path = rack_file(FIB)
        # 3 E2 cells, 2 Betti degrees and 2 series terms: each exactly the cap
        for argv in (
            ["e2", "--input", path, "--max-degree", "1", "--basis-cap", "3"],
            ["betti", "--input", path, "--max-degree", "1", "--terms", "2", "--basis-cap", "2"],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
        code, _, err = run_cli(capsys, "e2", "--input", path, "--max-degree", "1", "--basis-cap", "2")
        assert code == 2
        assert err == "DegreeTooLarge: 3 E2 page cells exceed the cap of 2\n"


class TestValidateCommand:
    def test_permutation_input(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(capsys, "validate", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["summary"]["size"] == 3
        assert doc["summary"]["orbits"] == [[0, 1], [2]]
        assert doc["summary"]["r"] == 2

    def test_table_input(self, capsys, rack_file):
        path = rack_file(DIHEDRAL_3)
        code, out, _ = run_cli(capsys, "validate", "--input", path)
        assert code == 0
        assert "is_permutation: False" in out

    def test_permutation_table_input(self, capsys, rack_file):
        path = rack_file(SWAP_TABLE)
        code, out, _ = run_cli(capsys, "validate", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["is_permutation"] is True
        assert doc["summary"]["orbits"] == [[0, 1]]

    def test_csv_format(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(capsys, "validate", "--input", path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "field,value"


class TestVerifyCommand:
    def test_two_one_all_sources_agree(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--max-degree", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        ranks = [row["free_rank"] for row in doc["results"]]
        assert ranks == [1, 2, 4, 8]
        for row in doc["results"]:
            assert (
                row["free_rank"]
                == row["closed_form"]
                == row["e2_total"]
                == row["bn_size"]
                == row["certificate_rank"]
            )
            assert row["torsion"] == []
            assert row["independent"] is True

    def test_golden_csv(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--max-degree", "2", "--format", "csv"
        )
        assert code == 0
        assert out == (
            "degree,free_rank,torsion,closed_form_rank,e2_total,bn_size\n"
            "0,1,,1,1,1\n"
            "1,2,,2,2,2\n"
            "2,4,,4,4,4\n"
        )

    def test_table_kind_permutation_rack(self, capsys, rack_file):
        path = rack_file(SWAP_TABLE)
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--max-degree", "2", "--format", "json"
        )
        assert code == 0
        assert [r["free_rank"] for r in json.loads(out)["results"]] == [1, 1, 1]


class TestHomologyCommand:
    def test_torsion_in_csv(self, capsys, rack_file):
        path = rack_file(DIHEDRAL_4)
        code, out, _ = run_cli(
            capsys, "homology", "--input", path, "--max-degree", "2", "--format", "csv"
        )
        assert code == 0
        assert out == (
            "degree,free_rank,torsion,closed_form_rank,e2_total,bn_size\n"
            "0,1,,,,\n"
            "1,2,,,,\n"
            "2,4,2;2,,,\n"
        )

    def test_json_rows(self, capsys, rack_file):
        path = rack_file(DIHEDRAL_3)
        code, out, _ = run_cli(
            capsys, "homology", "--input", path, "--max-degree", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["free_rank"] for row in doc["results"]] == [1, 1, 1, 1]
        assert doc["results"][3]["torsion"] == [3]
        assert doc["results"][0]["closed_form"] is None


class TestBettiCommand:
    def test_accepts_free_orbits(self, capsys, rack_file):
        path = rack_file(FIB)
        code, out, _ = run_cli(
            capsys, "betti", "--input", path, "--terms", "6",
            "--max-degree", "5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["poincare_series"] == [1, 2, 3, 5, 8, 13]
        assert [row["closed_form"] for row in doc["results"]] == [1, 2, 3, 5, 8, 13]

    def test_table_output_contains_series(self, capsys, rack_file):
        path = rack_file(FIB)
        code, out, _ = run_cli(capsys, "betti", "--input", path, "--terms", "5")
        assert code == 0
        assert "poincare_series: 1, 2, 3, 5, 8" in out


class TestE2Command:
    def test_page_and_totals(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(
            capsys, "e2", "--input", path, "--max-degree", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["e2_total"] for row in doc["results"]] == [1, 2, 4, 8]
        page = {(cell["p"], cell["q"]): cell["rank"] for cell in doc["e2_page"]}
        assert page[(0, 0)] == 1
        assert page[(0, 1)] == 2
        assert page[(1, 1)] == 2
        assert all(rank == 0 for (p, q), rank in page.items() if p > q)

    def test_accepts_free_orbits(self, capsys, rack_file):
        path = rack_file(FIB)
        code, out, _ = run_cli(
            capsys, "e2", "--input", path, "--max-degree", "4", "--format", "json"
        )
        assert code == 0
        assert [row["e2_total"] for row in json.loads(out)["results"]] == [1, 2, 3, 5, 8]


class TestCyclesCommand:
    def test_recipes_and_certificate(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(
            capsys, "cycles", "--input", path, "--max-degree", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["results"]
        assert [row["bn_size"] for row in rows] == [1, 2, 4]
        assert all(row["independent"] for row in rows)
        assert rows[1]["recipes"] == ["(0)", "(2)"]
        assert rows[2]["recipes"] == ["(2-0)·(0)", "(2-0)·(2)", "avg(0)", "avg(2)"]

    def test_table_format_lists_recipes(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(capsys, "cycles", "--input", path, "--max-degree", "1")
        assert code == 0
        assert "B_1: (0), (2)" in out


class TestRoundTripAndDeterminism:
    def test_json_round_trip(self, capsys, rack_file, tmp_path):
        path = rack_file(TWO_ONE)
        code, out, _ = run_cli(
            capsys, "verify", "--input", path, "--max-degree", "2", "--format", "json"
        )
        assert code == 0
        first = json.loads(out)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(first["rack"]))
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(echo), "--max-degree", "2", "--format", "json"
        )
        assert code == 0
        second = json.loads(out)
        assert second["results"] == first["results"]
        assert second["status"] == first["status"]
        assert second["rack"] == first["rack"]

    def test_byte_identical_reruns(self, capsys, rack_file):
        path = rack_file(TWO_ONE)
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "verify", "--input", path, "--max-degree", "3",
                "--format", "csv",
            )
            outputs.add(out)
        assert len(outputs) == 1


# Ints drawn from a small pool repeat, so the writer's one conversion per
# distinct int is reused; True and False hash like 1 and 0 and must not be
# written as them, nor they as true and false.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, True, False, 10**400, -(10**400), 3**1000, -(2**64)]),
    st.integers(),
    st.text(alphabet=st.sampled_from('a"\\/·\n\t\x00\x1f\x7f\u2028é😀 ')),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=6)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example([1, True, 1, False, 0, None, [], {}, [[]], {"": {}}])
@example({"b": [10**400, -(10**400), 10**400], "a": "(1-0)·avg(2)·\"\x01"})
@example(7)
@example("x")
@example(None)
@example([])
@example({})
@example((1, [2]))
@example(json.loads("[" * 50 + "]" * 50))  # 50 lists deep
def test_emit_json_writes_what_json_dumps_writes(value):
    assert emit_json(value) == json.dumps(value, indent=2)


def test_emit_json_leaves_nothing_for_the_cycle_collector():
    """The parts of a large report are freed when the writer returns, not
    at some later collection, so they are gone before stdout encodes."""
    gc.collect()
    gc.disable()
    try:
        emit_json({"series": [0, 1, [2, {"x": 3}]]})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_emit_json_writes_floats_and_refuses_what_json_cannot_hold():
    value = [1.5, float("inf"), {"x": -0.0}, float("nan")]
    assert emit_json(value) == json.dumps(value, indent=2)
    for value in ([object()], {"x": {1, 2}}):
        with pytest.raises(TypeError):
            emit_json(value)


def test_console_script_is_installed(capsys, rack_file, tmp_path):
    """The ``rackhom`` entry in ``[project.scripts]`` runs ``verify``.

    The declared target must be a callable that returns the exit code. The
    child then runs it the way the wrapper that ``pip install`` generates
    does, so the check needs no installed package. Its ``PYTHONPATH`` starts
    with the directory holding the imported ``rackhom`` and its working
    directory is a temporary one, so it runs the code under test whatever
    the caller's working directory.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["rackhom"]
    module_name, _, attr = entry.partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    argv = ["verify", "--input", rack_file(TWO_ONE), "--max-degree", "1"]
    assert target(argv) == 0, entry
    capsys.readouterr()

    source_root = str(Path(rackhom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    wrapper = (
        f"import sys; from {module_name} import {attr}; "
        f"sys.argv[0] = 'rackhom'; sys.exit({attr}())"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "status: ok" in result.stdout


def test_running_the_module_runs_the_command(capsys, rack_file, tmp_path):
    """``python -m rackhom.cli`` prints and returns what ``main`` does with
    the same arguments, a refusal of the options included."""
    source_root = str(Path(rackhom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    path = rack_file(TWO_ONE)
    for degree, code in (("2", 0), ("-1", 2)):
        argv = ["verify", "--input", path, "--max-degree", degree]
        result = subprocess.run(
            [sys.executable, "-m", "rackhom.cli", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert (result.returncode, result.stdout, result.stderr) == run_cli(capsys, *argv)
        assert result.returncode == code


@pytest.mark.parametrize("command, name", [
    ("homology", "homology_table"),
    ("verify", "check_table_cap"),
    ("verify", "homology_table"),
    ("verify", "certified_levels"),
    ("verify", "betti_numbers"),
    ("verify", "e2_rank"),
    ("cycles", "certified_levels"),
    ("betti", "betti_numbers"),
    ("betti", "betti_reaches"),
    ("betti", "poincare_series"),
    ("e2", "e2_rank"),
])
def test_runners_call_the_layer_functions_set_on_the_cli(
    capsys, rack_file, monkeypatch, command, name
):
    # the benchmark's tracer wraps layer functions by setting them on rackhom.cli
    real, calls = getattr(rackhom.cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(rackhom.cli, name, wrapper)
    code, _, err = run_cli(capsys, command, "--input", rack_file(TWO_ONE), "--max-degree", "2")
    assert (code, err) == (0, "")
    assert calls


@pytest.mark.parametrize("output_format", ["table", "csv", "json"])
def test_no_command_builds_a_chain_or_multiplies_polynomials(
    capsys, rack_file, monkeypatch, output_format
):
    # Chain and IntPolynomial arithmetic are test oracles, each result made
    # by its checked constructor: no command may route through them
    counts = {"Chain": 0, "IntPolynomial.__mul__": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Chain, "__init__", counted("Chain", Chain.__init__))
    monkeypatch.setattr(
        IntPolynomial, "__mul__", counted("IntPolynomial.__mul__", IntPolynomial.__mul__)
    )
    for command in ("validate", "homology", "verify", "cycles", "e2", "betti"):
        rack = DIHEDRAL_3 if command == "homology" else TWO_ONE
        argv = ["--input", rack_file(rack), "--max-degree", "3", "--format", output_format]
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, err) == (0, ""), command
        assert out, command
    assert counts == {"Chain": 0, "IntPolynomial.__mul__": 0}


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    """The benchmark's traced mode (``perfbench/spans.py``) replaces named
    attributes of ``rackhom.cli``, ``homology``, ``cycles`` and
    ``closed_forms`` with wrappers, so a refactor that moves one of them
    away breaks it.  On ``rackhom.cli`` it finds the layer functions
    through the module's ``__getattr__``, which imports each from its
    module on first access; ``betti``, ``basis_recipes`` and
    ``independence_certificate`` are there only for the tracer.
    ``Tracer.install`` patches those modules for good, so it runs in a
    child process."""
    source_root = str(Path(rackhom.__file__).resolve().parent.parent)
    install = (
        f"import sys; sys.path[:0] = [{str(PERFBENCH)!r}, {source_root!r}]; "
        "from spans import Tracer; assert callable(Tracer().install())"
    )
    result = subprocess.run(
        [sys.executable, "-c", install], capture_output=True, text=True, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(
    shutil.which("rackhom") is None, reason="rackhom is not installed on PATH"
)
def test_installed_console_script_on_path(rack_file):
    result = subprocess.run(
        ["rackhom", "verify", "--input", rack_file(TWO_ONE), "--max-degree", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "status: ok" in result.stdout
