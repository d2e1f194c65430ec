"""Registry files with one field of one saved default record replaced by an
odd value: `minrep verify --records` either runs the file and reports, or
refuses it in one line that names the record, never with a traceback or
an error in Python's own words."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from minrep import cli, registry

# JSON values of every kind, some of them close to what a field holds
POOL = [None, -1, 0, 1, 2, 7, 0.5, "", "x", "0", "1/2", "-3", "E8", "A1d", "p-",
        [], [None], [0], ["1", "0"], [[]], [[0, ["1", "-1"]]], [[1, 0]], [0, [0]],
        {}, {"factors": []}, {"factors": [["1"]], "center": ["1"]}, {"x": [None]}]

# what Python says when code reads a value of the wrong kind
PYTHON_WORDS = ("NoneType", "object is not", "unpack", "Fraction(", "not iterable")


def _paths(node, path=()):
    """The path of every field below node: object keys and array indexes."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


SAVED = [(rec, list(_paths(rec))) for rec in
         json.loads(registry.save(registry.all_default_records()))["records"]]


@st.composite
def one_field_replaced(draw):
    saved, paths = draw(st.sampled_from(SAVED))
    record = copy.deepcopy(saved)
    *parents, last = draw(st.sampled_from(paths))
    node = record
    for key in parents:
        node = node[key]
    node[last] = draw(st.sampled_from(POOL))
    return record


@pytest.fixture(scope="module")
def records_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "records.json"


@given(record=one_field_replaced())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_a_record_with_one_field_replaced_runs_or_is_refused_in_one_line(records_file, record):
    records_file.write_text(json.dumps({"schema": registry.SCHEMA, "records": [record]}),
                            encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--records", str(records_file)])
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: record "), lines
        assert not [w for w in PYTHON_WORDS if w in lines[0]], lines[0]
    else:
        assert code in (0, 1)
        assert any(line.startswith("overall: ") for line in out.getvalue().splitlines())
