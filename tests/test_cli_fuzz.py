"""Fuzz of the command-line front end: whatever the input, `main` returns
exit code 0, 1 or 2 and lets no exception escape."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from fourcolor import PATTERNS, emit_edge_list, emit_graph6
from fourcolor.cli import main
from fourcolor.lab import GeneratorConfig, generate

MAX_N = 12
G6_CHARS = "".join(chr(c) for c in range(63, 127))

# graph6 tokens: class members, valid encodings, a small header over an
# arbitrary body, and arbitrary strings over the graph6 alphabet.
members = st.builds(GeneratorConfig, n=st.integers(1, MAX_N), seed=st.integers(0, 10_000)).map(generate)
graph6_tokens = st.one_of(
    members.map(emit_graph6),
    graphs(max_n=MAX_N).map(emit_graph6),
    st.builds(
        str.__add__,
        st.sampled_from([chr(63 + n) for n in range(MAX_N + 1)]),
        st.text(G6_CHARS, max_size=12),
    ),
    st.text(G6_CHARS, min_size=1, max_size=12),
)

# edge-list files: valid listings, and headers over arbitrary lines of tokens.
_tokens = st.one_of(st.integers(-2, MAX_N).map(str), st.sampled_from(["", "x", "1.5", "-", "#"]))
edge_list_texts = st.one_of(
    graphs(max_n=MAX_N).map(emit_edge_list),
    st.builds(
        lambda lines: "\n".join(" ".join(line) for line in lines),
        st.lists(st.lists(_tokens, max_size=3), max_size=8),
    ),
)

file_contents = st.one_of(
    graph6_tokens.map(str.encode), edge_list_texts.map(str.encode), st.binary(max_size=40)
)

verb_args = st.one_of(
    st.just(["color", "--trace"]),
    st.just(["color", "--porcelain"]),
    st.just(["approx"]),
    st.sampled_from(sorted(PATTERNS)).map(lambda p: ["detect", "--pattern", p]),
    st.sampled_from(["c5", "h1"]).flatmap(
        lambda a: st.sampled_from([["partition", "--anchor", a], ["partition", "--anchor", a, "--porcelain"]])
    ),
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _exit_code(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(verb=verb_args, token=graph6_tokens)
def test_inline_tokens_exit_cleanly(verb, token):
    assert _exit_code(verb + [f"--in={token}"]) in (0, 1, 2)


@settings(max_examples=300, deadline=None)
@given(verb=verb_args, content=file_contents)
def test_input_files_exit_cleanly(input_file, verb, content):
    input_file.write_bytes(content)
    assert _exit_code(verb + ["--in", str(input_file)]) in (0, 1, 2)
