"""Random JSON documents through the command line: every one gets an
exit code, none ends in a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from orderlab.cli import main

# "@" joins the coordinates of a pair label, so labels holding it are refused
LABELS = ("a", "b", "c", "d", "e", "f", "a@b")

# anything JSON can hold, nested a little
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("abz@", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abz@", max_size=2), inner, max_size=2),
    max_leaves=6,
)
# a known label, an unknown one, or something that is not a label at all
label_like = st.one_of(st.sampled_from(LABELS), st.just("z"), junk)
# at most 6 labels, duplicates allowed
label_lists = st.lists(st.sampled_from(LABELS), max_size=6)

# random pairs over the labels make cycles and unknown labels of their own
poset_docs = st.fixed_dictionaries({
    "elements": label_lists | junk,
    "leq": st.lists(st.lists(label_like, min_size=1, max_size=3), max_size=6) | junk,
})
space_docs = st.fixed_dictionaries({
    "points": label_lists | junk,
    "opens": st.lists(st.lists(label_like, max_size=4), max_size=6) | junk,
})
documents = st.one_of(
    poset_docs,
    space_docs,
    poset_docs.map(lambda d: {k: v for k, v in d.items() if k != "leq"}),
    space_docs.map(lambda d: {k: v for k, v in d.items() if k != "opens"}),
    junk,
)
COMMANDS = (
    ("analyze", "--poset"),
    ("analyze", "--space"),
    ("classify", "--space"),
    ("sobrify", "--space"),
    ("wfreflect", "--space"),
    ("xizhao", "--poset"),
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@given(documents, st.sampled_from(COMMANDS))
@example({"points": ["a"], "opens": 5}, ("analyze", "--space"))
@example({"elements": ["a"], "leq": 5}, ("analyze", "--poset"))
@example({"elements": ["a"], "leq": None}, ("xizhao", "--poset"))
@example({"elements": ["a"], "leq": [[["a"], "a"]]}, ("analyze", "--poset"))
@example({"points": ["a"], "opens": [[["a"]]]}, ("classify", "--space"))
@example({"points": ["a"], "opens": [[["a"]]]}, ("sobrify", "--space"))
@example({"elements": ["a@b"], "leq": []}, ("analyze", "--poset"))
@example(
    {"elements": ["z", "a@b", "c", "a", "b@c"],
     "leq": [["z", "a@b"], ["a@b", "c"], ["z", "a"], ["a", "b@c"]]},
    ("analyze", "--poset"),
)
@settings(max_examples=150, deadline=None)
def test_cli_answers_every_json_document(doc_path, doc, command):
    doc_path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main([command[0], command[1], str(doc_path)])
    assert code in (0, 1, 2, 3)
