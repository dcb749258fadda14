"""Property test of the exit-code contract: on any input every command exits
0, 1 or 2, and stderr is empty or exactly one JSON line.

Inputs are random bytes and one-token mutations of the files in data/, fed
on stdin; ``gen divisor`` gets arbitrary integer strings.  ``run_cli`` lets
any exception other than SystemExit escape, so a crash fails the test with
its traceback.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import TESTS_DIR, run_cli

SOURCES = [path.read_bytes() for path in sorted((TESTS_DIR / "data").iterdir())]
ELEMENTS = ["1", "2", "4", "6", "a", "0", "{}", "{1}"]

# Every command, each reading the fuzzed input on stdin.
COMMANDS = [
    ["verify", "-"], ["spec", "-"], ["spec", "-", "--dot"], ["dual", "-"],
    ["classify", "-"], ["openlattice", "-"], ["openlattice", "-", "--dot"],
    ["classifying", "-"], ["gen", "semiring", "-"],
    ["adjoint-check", "data/z12.lat", "data/z12dual.spc", "-"],
    ["adjoint-check", "data/chain3.lat", "data/sierpinski.spc", "-"],
]
ELEMENT_COMMANDS = ["radical", "supp", "decompose"]


def _check_contract(argv, code, err):
    assert code in (0, 1, 2), (argv, code, err)
    lines = err.decode("utf-8").splitlines()
    assert len(lines) <= 1, (argv, err)
    if lines:
        assert isinstance(json.loads(lines[0]), dict), (argv, err)


@st.composite
def mutated_sources(draw):
    """A data file with one whitespace-separated token replaced, removed or
    doubled."""
    tokens = draw(st.sampled_from(SOURCES)).split(b" ")
    i = draw(st.integers(0, len(tokens) - 1))
    replacement = draw(st.one_of(
        st.just(b""),
        st.just(tokens[i] * 2),
        st.sampled_from(tokens),
        st.binary(max_size=8),
        st.text(max_size=8).map(lambda t: t.encode("utf-8")),
    ))
    return b" ".join(tokens[:i] + [replacement] + tokens[i + 1:])


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), mutated_sources()),
       element=st.sampled_from(ELEMENTS))
def test_every_command_keeps_the_exit_contract(data, element):
    argvs = COMMANDS + [[name, "-", element] for name in ELEMENT_COMMANDS]
    for argv in argvs:
        code, _, err = run_cli(argv, stdin=data)
        _check_contract(argv, code, err)


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(
    st.integers(-10 ** 16, 10 ** 16).map(str),
    st.from_regex(r"[+-]?[0-9_ ]{0,20}", fullmatch=True),
    st.text(max_size=12)))
def test_gen_divisor_keeps_the_exit_contract(text):
    argv = ["gen", "divisor", text]
    code, _, err = run_cli(argv)
    _check_contract(argv, code, err)
