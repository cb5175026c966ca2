"""Every entry point that takes points rejects float and bool coordinates.

A float point such as (1.9, 2.0) must raise instead of being truncated to
(1, 2), and a bool point must raise instead of being read as (1, 0).  The
scalar entry points also reject a point of the wrong shape instead of
flattening it.
"""

import numpy as np
import pytest

from padiclearn.learner import SampleSet, learn
from padiclearn.mahler import evaluate_on_grid
from padiclearn.nim import grundy_nim
from padiclearn.padic import LearningParams, expand, expand_batch
from padiclearn.trie import PadicTrie

P = LearningParams(p=2, E=3, D=2, M=4)
# (1, 2) is stored, so a truncated (1.9, 2.0) would read as an exact hit
EST = learn(SampleSet(P, [(1, 2)]))
TRIE = PadicTrie(P, [(1, 2)])


def _axes(point):
    return [np.array([c]) for c in point]


# each API takes one point, wrapped in the input form that API expects
APIS = {
    "SampleSet": lambda pt: SampleSet(P, [pt]),
    "predict_residue": lambda pt: EST.predict_residue(pt),
    "predict_residue_batch": lambda pt: EST.predict_residue_batch([pt]),
    "predict_residue_grid": lambda pt: EST.predict_residue_grid(_axes(pt)),
    "evaluate_on_grid": lambda pt: evaluate_on_grid(EST.coeffs, _axes(pt), EST.table),
    "expand": lambda pt: expand(P, pt),
    "expand_batch": lambda pt: expand_batch(P, [pt]),
    "PadicTrie": lambda pt: PadicTrie(P, [pt]),
    "nns_valuation": lambda pt: TRIE.nns_valuation(pt),
    "nns_valuation_batch": lambda pt: TRIE.nns_valuation_batch([pt]),
    "grundy_nim": lambda pt: grundy_nim(pt),
}


@pytest.mark.parametrize("point", [(1.9, 2.0), (True, False)], ids=["float", "bool"])
@pytest.mark.parametrize("api", list(APIS))
def test_no_silent_truncation(api, point):
    with pytest.raises(ValueError, match="expected integer values"):
        APIS[api](point)


SCALAR_APIS = {
    name: APIS[name] for name in ("predict_residue", "expand", "nns_valuation", "grundy_nim")
}
SCALAR_APIS["is_member"] = lambda pt: EST.is_member(pt)


@pytest.mark.parametrize("api", list(SCALAR_APIS))
def test_no_silent_flattening(api):
    # a (2, 1) column holds the coordinates of (1, 2) but is not one point
    with pytest.raises(ValueError):
        SCALAR_APIS[api]([[1], [2]])
