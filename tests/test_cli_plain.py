"""The plain argv path of `cli.main` against argparse: on hypothesis-drawn
token lists over every subcommand, `cli._plain_args` either declines or
returns exactly the namespace `parse_known_args` returns, with no extras,
and it never exits or prints."""

import argparse
import contextlib
import io

import pytest

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

from heartproof import cli  # noqa: E402

PARSER = cli.build_parser()
# '-'-leading values on both sides of the plain reader's rule
VALUES = ["", "-5", "3.5", "x", "-x + 1", "--", "7", "-x^5 + 1", "-x^5+1", "-h 7",
          "--p=7 x", "--g=a b", "-", "-- x"]


def tokens(command):
    """Token lists of chunks: half of them an option with "7" (which every
    option's type accepts) or a flag, the rest an option alone or with one of
    the values above. At times the required options given "7" come first,
    and at times one more token is put in among the values, the options'
    proper prefixes and their '=' forms."""
    options = sorted(command._option_string_actions)
    required = [t for a in command._actions if a.required for t in (a.option_strings[0], "7")]
    likely = sorted((o, "7") if a.nargs is None else (o,) for a in command._actions
                    if a.nargs in (None, 0) and a.default is not argparse.SUPPRESS
                    for o in a.option_strings)
    prefixes = [o[:k] for o in options for k in range(1, len(o))]
    equals = [f"{o}={v}" for o in options for v in VALUES]
    chunk = st.one_of(st.sampled_from(likely), st.sampled_from(likely),
                      st.tuples(st.sampled_from(options), st.sampled_from(VALUES)),
                      st.tuples(st.sampled_from(options)))
    other = st.sampled_from(sorted({*prefixes, *equals, *VALUES}))

    def build(base, chunks, extra, at):
        argv = [*base, *(token for chunk in chunks for token in chunk)]
        if extra is not None:
            argv.insert(at % (len(argv) + 1), extra)
        return argv

    return st.builds(build, st.sampled_from([[], required]), st.lists(chunk, max_size=5),
                     st.none() | other, st.integers(0, 12))


def typed(args):
    """The namespace's entries with the type of each value, so that True
    and 1 differ."""
    return {dest: (type(value), value) for dest, value in vars(args).items()}


def argparse_reading(command, argv):
    """(the namespace's typed entries, extras), or None if argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = command.parse_known_args(argv)
        except SystemExit:
            return None
    return typed(args), extras


@pytest.mark.parametrize("name", list(PARSER.commands))
def test_plain_path_declines_or_matches_argparse(name):
    command = PARSER.commands[name]

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(tokens(command))
    def check(argv):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            plain = cli._plain_args(command, argv)
        assert printed.getvalue() == ""
        if plain is not None:
            assert argparse_reading(command, argv) == (typed(plain), [])

    check()


@pytest.mark.parametrize("argv", [
    ["heart", "--group", "S", "--n", "11", "--p", "11", "--seed", "871"],
    ["analyze", "--group-file", "F", "--assume-zeta", "--p", "7", "--r", "2", "--json", "J"],
    ["analyze", "--poly", "x^5 - x - 1", "--p", "7"],
    ["analyze", "--poly", "-x^5 + 3*x - 1", "--p", "7", "--json", "J"],
], ids=["heart", "analyze-group-file", "analyze-poly", "analyze-poly-leading-minus"])
def test_driven_argv_shapes_take_the_plain_path(argv):
    command = PARSER.commands[argv[0]]
    plain = cli._plain_args(command, argv[1:])
    assert plain is not None
    assert argparse_reading(command, argv[1:]) == (typed(plain), [])
