"""The search-parameter table is the one source of methods, defaults and the README table."""

import ast
from pathlib import Path

from fusionopt.cli import COMPARISON_ORDER
from fusionopt.optimizers import METHODS, STOCHASTIC_METHODS, OptimizerConfig
from fusionopt.optimizers.common import SEARCH_PARAMS


def test_methods_and_comparison_order_come_from_the_table():
    assert METHODS == tuple(SEARCH_PARAMS) == COMPARISON_ORDER


def test_overrides_arrive_with_the_type_of_their_default():
    params = OptimizerConfig(method="ga", seed=1, params={
        "population_size": 10.0, "mutation_sigma": 1}).resolved()
    assert type(params["population_size"]) is int and params["population_size"] == 10
    assert type(params["mutation_sigma"]) is float and params["mutation_sigma"] == 1.0
    for method, table in SEARCH_PARAMS.items():
        seed = 1 if method in STOCHASTIC_METHODS else None
        resolved = OptimizerConfig(method=method, seed=seed).resolved()
        assert resolved == {name: default for name, (default, _, _) in table.items()}


def _readme_parameter_rows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Search parameters\n", 1)[1].split("\n## ", 1)[0]
    return [
        tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
        for line in section.splitlines() if line.startswith("| `")
    ]


def test_readme_parameter_table_matches_the_code():
    expected = [
        (method, name, "integer" if isinstance(default, int) else "number", default, bound)
        for method, table in SEARCH_PARAMS.items()
        for name, (default, _, bound) in table.items()
    ]
    documented = [
        (method, name, kind, ast.literal_eval(default), bound)
        for method, name, kind, default, bound in _readme_parameter_rows()
    ]
    assert documented == expected
    # 30 == 30.0, so compare the types of the defaults as well
    assert [type(row[3]) for row in documented] == [type(row[3]) for row in expected]
