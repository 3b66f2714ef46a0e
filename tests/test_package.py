"""The package's shape: its export list, which module imports which, and
that no module reaches into another module's private names."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import wtanet

SRC = Path(__file__).resolve().parent.parent / "src" / "wtanet"

# each exported name, under the module that defines it
EXPORTS = {
    "bench": ["DensityReport", "EvalReport", "ExperimentResult", "OracleFit", "PhaseError",
              "density_check", "least_squares_oracle", "run_experiment"],
    "config": ["Density", "Expansion", "Model", "RunConfig", "config_digest"],
    "data": ["CLASSIFICATION", "REGRESSION", "Dataset", "SplitSpec", "dataset_to_csv",
             "gen_function", "gen_mackey_glass", "load_csv", "load_features",
             "load_series_csv", "normalize", "series_to_csv", "split_dataset",
             "window_series"],
    "expansion": ["ExpansionSpec", "expand_batch", "expansion_dim"],
    "ga": ["FitnessEvaluator", "GaConfig", "TrainTrace", "decode", "encode", "trace_to_csv",
           "train"],
    "metrics": ["accuracy", "confusion_matrix", "mae", "nrmse", "rmse"],
    "model": ["ModelShape", "WtaModel", "load_model", "model_from_dict", "model_to_dict",
              "predict", "save_model"],
    "select": ["KwtaResult", "LpSolution", "kwta", "solve_box_lp", "solve_ksum_lp",
               "solve_simplex_lp", "wta"],
}

# the modules each module must not import: a lower layer imports no
# higher one, and nothing but the entry points imports the command line
FORBIDDEN_IMPORTS = {
    **{low: {"config", "bench", "ga", "select", "cli"}
       for low in ("schema", "expansion", "metrics", "data", "model")},
    "config": {"bench", "cli"},
    "bench": {"cli"},
}


def sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def wtanet_imports(tree: ast.AST):
    """Each wtanet module imported in ``tree``: (module, the local name it is
    bound to or None, the names taken from it, line)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "wtanet"):
            module = (node.module or "").removeprefix("wtanet").lstrip(".")
            if module:  # from .bench import run_experiment
                yield module, None, [alias.name for alias in node.names], node.lineno
            else:  # from . import bench, data as datamod
                for alias in node.names:
                    yield alias.name, alias.asname or alias.name, [], node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wtanet."):
                    yield alias.name.partition(".")[2], alias.asname, [], node.lineno


def imported_modules(source: str, name: str) -> set[str]:
    return {module for module, *_ in wtanet_imports(ast.parse(source, name))}


def private_reads(source: str, name: str) -> list[str]:
    """The places where module ``name`` imports or reads another wtanet
    module's ``_``-prefixed name (dunder names aside)."""
    def private(attr):
        return attr.startswith("_") and not attr.endswith("__")

    tree = ast.parse(source, name)
    found, bound = [], {}
    for module, local, names, line in wtanet_imports(tree):
        if local is not None:
            bound[local] = module
        if module != name:
            found += [f"{name}:{line}: {module}.{n}" for n in names if private(n)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound and private(node.attr):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_export_list_names_each_object_of_its_defining_module():
    assert sorted(wtanet.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(wtanet.__all__) == 56
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"wtanet.{module_name}")
        for name in names:
            value = getattr(wtanet, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


@pytest.mark.parametrize("module", sorted(FORBIDDEN_IMPORTS))
def test_no_module_imports_a_higher_layer(module):
    source = sources()[module]
    assert imported_modules(source, module) & FORBIDDEN_IMPORTS[module] == set()


def test_import_finder_sees_every_form_of_import():
    source = ("from .bench import run_experiment\nfrom . import cli, data as datamod\n"
              "import wtanet.ga\nimport wtanet.select as sel\nfrom wtanet.config import Model\n"
              "from wtanet import schema\nimport numpy as np\nfrom typing import Literal\n")
    assert imported_modules(source, "model") == {
        "bench", "cli", "data", "ga", "select", "config", "schema"}


def test_no_module_reads_another_modules_private_names():
    found = [hit for name, source in sources().items() for hit in private_reads(source, name)]
    assert found == []


def test_private_read_finder_finds_imports_and_attribute_reads():
    source = ("from .ga import _Helper, train\nfrom . import bench as b, data\n"
              "from wtanet.model import _unit_weights\nfrom .cli import _fail\n"
              "b._phase\ndata._split\ndata.load_csv\nself._x\nb.__name__\n")
    assert [hit.split(": ")[1] for hit in private_reads(source, "cli")] == [
        "ga._Helper", "model._unit_weights", "b._phase", "data._split"]
