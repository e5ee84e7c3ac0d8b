"""The CLI's JSON writer spells every document as json.dumps(indent=2,
sort_keys=True) does, byte for byte, with float64 arrays taken as their
nested lists; json stays the oracle."""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cws552.cli import _json_text

SPECIAL = [0.0, -0.0, 5e-324, 2.5e-310, -1e-320, 1e308, -1e308, 0.1, float("nan"), float("inf"), float("-inf")]
floats = st.floats() | st.sampled_from(SPECIAL)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    floats,
    floats.map(np.float64),
    arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=floats),
)
documents = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


def as_lists(doc):
    """`doc` with every float64 array replaced by its nested lists."""
    if isinstance(doc, np.ndarray) and doc.dtype == np.float64:
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: as_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [as_lists(value) for value in doc]
    return doc


def oracle(doc) -> str:
    return json.dumps(as_lists(doc), indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(documents)
@example({"é": {"ключ": np.array([[[-0.0, 5e-324]], [[1e308, np.nan]]]), "b": [np.array([np.inf, -np.inf])]}})
@example([{}, [], np.zeros((2, 0)), np.zeros((0, 3)), np.zeros(0), np.float64(-0.0), np.array(0.5)])
def test_the_writer_spells_documents_as_json_does(doc):
    assert _json_text(doc) == oracle(doc)


@settings(max_examples=100, deadline=None)
@given(documents, st.sampled_from([np.int64(1), np.bool_(True), 1j, {1.0}, np.arange(3), np.ones(2, complex)]))
def test_the_writer_rejects_what_json_rejects(doc, bad):
    doc = [doc, {"bad": [bad]}]
    with pytest.raises(TypeError):
        oracle(doc)
    with pytest.raises(TypeError):
        _json_text(doc)


def test_the_writer_takes_only_str_keys():
    with pytest.raises(TypeError, match="keys must be str"):
        _json_text({1: 0.5})
