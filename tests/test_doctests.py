"""Run the doctests embedded in the library's docstrings.

The usage examples in docstrings are part of the public documentation;
this keeps them executable and honest.
"""

import doctest

import pytest

import repro.algorithms.chi2support
import repro.core.correlation
import repro.core.itemsets
import repro.core.mining
import repro.core.topk
import repro.data.appendable
import repro.data.datacube

MODULES = [
    repro.core.itemsets,
    repro.core.correlation,
    repro.core.mining,
    repro.core.topk,
    repro.algorithms.chi2support,
    repro.data.appendable,
    repro.data.datacube,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"expected doctests in {module.__name__}"
