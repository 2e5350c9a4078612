"""The block renderers against a per-cell oracle, on exact bytes.

A command hands the renderers blocks of cells: a range is an integer column,
a number is a constant column and any other sequence is a float column. The oracle
expands each block into rows and formats every cell on its own, as the CLI
did before it rendered a block at a time.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import cli
from test_golden import CASES


def cell_fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return "none"
    return str(x)


def block_rows(block: tuple) -> list[list]:
    n_rows = len(next(cell for cell in block if not isinstance(cell, (int, float))))
    return [[cell if isinstance(cell, (int, float)) else cell[i] for cell in block]
            for i in range(n_rows)]


def oracle_csv(header, columns, blocks, footer) -> str:
    lines = [f"# {key} = {cell_fmt(value)}" for key, value in header.items()]
    lines.append(",".join(columns))
    for block in blocks:
        for row in block_rows(block):
            lines.append(",".join(cell_fmt(x) for x in row))
    lines.extend(f"# {text}" for text in footer)
    return "\n".join(lines) + "\n"


def oracle_json(header, columns, blocks, footer) -> str:
    doc = {
        "config": dict(header),
        "rows": [dict(zip(columns, row)) for block in blocks for row in block_rows(block)],
    }
    if footer:
        doc["notes"] = footer
    return json.dumps(doc, indent=2) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.0]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
constants = st.one_of(floats, st.integers(-10**20, 10**20))


@st.composite
def tables(draw):
    """(header, columns, blocks, footer) with every kind of cell in each column, and
    column names that JSON escapes or '%' formatting would read as a directive."""
    columns = draw(st.lists(st.text('c%"\\\né', max_size=4), min_size=1, max_size=5, unique=True))
    n_columns = len(columns)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n_rows = draw(st.integers(1, 6))
        kinds = draw(st.lists(st.sampled_from(["int", "float", "const"]),
                              min_size=n_columns, max_size=n_columns))
        if set(kinds) == {"const"}:  # a block needs one column that is not constant
            kinds[draw(st.integers(0, n_columns - 1))] = draw(st.sampled_from(["int", "float"]))
        block = []
        for kind in kinds:
            if kind == "int":
                start = draw(st.integers(-10**20, 10**20))
                block.append(range(start, start + n_rows))
            elif kind == "float":
                block.append(draw(st.lists(floats, min_size=n_rows, max_size=n_rows)))
            else:
                block.append(draw(constants))
        blocks.append(tuple(block))
    header = draw(st.dictionaries(
        st.text("abcdefgh_", min_size=1, max_size=6),
        st.one_of(floats, st.integers(), st.booleans(), st.none(), st.text(max_size=8)),
        max_size=4,
    ))
    footer = draw(st.lists(st.text(max_size=12), max_size=3))
    return header, columns, blocks, footer


@settings(max_examples=300, deadline=None)
@given(tables())
def test_blocks_render_like_cells(table):
    assert cli.render_csv(*table).encode() == oracle_csv(*table).encode()
    assert cli.render_json(*table).encode() == oracle_json(*table).encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_runs_render_like_cells(name):
    args = cli.build_parser().parse_args(CASES[name])
    table = args.run(args)
    assert cli.render_csv(*table).encode() == oracle_csv(*table).encode()
    assert cli.render_json(*table).encode() == oracle_json(*table).encode()
