"""Replay every cell of the golden timing matrix.

The cells, what each entry pins and how to re-pin them are described
in :mod:`tests.integration.timing_matrix`.
"""

import pytest

from tests.integration.timing_matrix import CELLS, check_cell, load_golden


@pytest.mark.parametrize("name", sorted(CELLS))
def test_timing_golden(name, request):
    check_cell(name, request)


def test_golden_file_holds_exactly_the_cells(request):
    if request.config.getoption("--update-golden"):
        pytest.skip("the cell tests are rewriting the file")
    assert sorted(load_golden()) == sorted(CELLS)
