"""Start-up: the package and the CLI import a module only when something
asks for a name in it, so each command loads only the layers it runs.

Each check runs in a fresh interpreter, since this one has every module
loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rackhom

SOURCE_ROOT = str(Path(rackhom.__file__).resolve().parent.parent)

# The package's public names, by the module each was imported from when
# the package imported every module up front.
PUBLIC_NAMES = {
    "chains": "DEFAULT_BASIS_CAP Chain DegreeTooLarge NotGenerating apply_boundary"
    " boundary_matrix boundary_of_monomial detection_map enumerate_basis reduce_to_start_set",
    "closed_forms": "EquivariantRanks IntPolynomial betti e2_rank e2_row equivariant_ranks"
    " free_permutation_rack_rank free_rack_rank functional_equation_check kunneth_gap"
    " poincare_series rational_series row_polynomial structure_group_rank",
    "cycles": "CycleRecipe DifferenceFactor MixedDegrees NotFixedPoint OrbitAverageFactor"
    " TerminalFactor basis_recipes cycle_basis difference_product fixed_point_square"
    " independence_certificate orbit_average",
    "homology": "HomologyGroup NotACycle homology_table is_cycle is_rational_boundary"
    " rack_homology",
    "linalg": "SmithForm SparseIntMatrix determinant matmul rational_rank smith_normal_form",
    "racks": "EmptySpec FiniteRack InfiniteOrbits NotBijective NotPermutation"
    " NotSelfDistributive OrbitDecomposition PermutationSpec as_permutation dihedral_rack"
    " orbit_decomposition permutation_rack trivial_rack validate_rack",
}

CLOSED_FORM_ONLY = {"rackhom.chains", "rackhom.linalg", "rackhom.cycles", "rackhom.homology"}
# command: the rackhom modules it must not load
UNUSED_LAYERS = {
    "validate": CLOSED_FORM_ONLY | {"rackhom.closed_forms"},
    "e2": CLOSED_FORM_ONLY,
    "betti": CLOSED_FORM_ONLY,
    "homology": {"rackhom.cycles", "rackhom.closed_forms"},
    "cycles": {"rackhom.chains", "rackhom.homology", "rackhom.closed_forms"},
    "verify": set(),
}

# Runs the CLI, then prints its exit code and every module it imported.
CHILD = (
    "import sys; before = set(sys.modules); from rackhom.cli import main; "
    "code = main(sys.argv[1:]); print(); print(code, *sorted(set(sys.modules) - before))"
)


def run_child(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("output_format", ["table", "csv", "json"])
def test_commands_import_only_the_layers_they_run(tmp_path, output_format):
    path = tmp_path / "rack.json"
    path.write_text(json.dumps({"kind": "permutation", "cycles": [[0, 1], [2]]}))
    for command, unused in UNUSED_LAYERS.items():
        argv = [command, "--input", str(path), "--max-degree", "2", "--format", output_format]
        code, *loaded = run_child("-c", CHILD, *argv, cwd=tmp_path).splitlines()[-1].split()
        assert code == "0", command
        assert "dataclasses" not in loaded, command
        assert not unused & set(loaded), command
        assert ("csv" in loaded) == (output_format == "csv"), command


def test_package_resolves_every_public_name_on_first_access(tmp_path):
    names = {module: names.split() for module, names in PUBLIC_NAMES.items()}
    check = f"""
import importlib, sys
import rackhom
assert not [m for m in sys.modules if m.startswith("rackhom.")], "a bare import loads modules"
names = {names!r}
for module in names:
    assert getattr(rackhom, module) is sys.modules["rackhom." + module], module
for module, public in names.items():
    for name in public:
        assert getattr(rackhom, name) is getattr(getattr(rackhom, module), name), name
assert not hasattr(rackhom, "no_such_name")
star = {{}}
exec("from rackhom import *", star)
missing = {{name for public in names.values() for name in public}} - star.keys()
assert not missing, missing
print("ok")
"""
    assert run_child("-c", check, cwd=tmp_path).split() == ["ok"]
