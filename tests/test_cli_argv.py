"""Fuzzed argv, one test per subcommand: edge and out-of-range values.

Every argv must end in exit code 0, 1 or 2 with no Traceback.  Sizes are
drawn small, or past a cap that refuses them before any work, so each
example runs in well under a second.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from qimm import claims
from qimm.characters import partitions
from qimm.cli import CAP_FLAGS, main

# not an int, or not one argparse reads: each is refused
JUNK = st.sampled_from(["", "x", "1.5", "0x10", "1e3", "--", "NaN", "٣"])


# small sizes (negative, zero and one included), past the cap, or junk
def sizes(cap):
    return st.one_of(st.integers(-3, 9).map(str),
                     st.sampled_from([str(cap + 1), str(10**30),
                                      str(-10**30)]),
                     JUNK)


def commas(xs):
    return ",".join(map(str, xs))


# comma lists of small parts (zero and negative ones included), small
# partitions, or junk
PARTS = st.one_of(
    st.lists(st.integers(-2, 6), max_size=6).map(commas),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
        lambda xs: commas(sorted(xs, reverse=True))),
    st.sampled_from(["3,,1", ",", "2, 1", "a,b"]))

TREES = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["path", "star"]),
              st.integers(-2, 8)),
    st.builds(lambda labels, n: "pruefer:" + ",".join(map(str, labels))
              + ("" if n is None else f"@n={n}"),
              st.lists(st.integers(-1, 8), max_size=6),
              st.none() | st.integers(-1, 8)),
    st.sampled_from(["n1", "path:", "pruefer:", "pruefer:1@n=x", "foo",
                     "file:", "file:no/such/tree.txt", "path:x"]))

GRIDS = st.one_of(
    st.builds("{}:{}:{}".format, st.integers(-3, 3), st.integers(-3, 3),
              st.sampled_from(["1", "1/2", "0", "-1", "1/0"])),
    st.sampled_from(["1:2", "a:b:c", "0:1:1e-9", "nan:1:1", "::"]))


def formats(*valid):
    return st.sampled_from([*valid, *valid, "xml"])


def assert_clean_exit(argv):
    """One in-process CLI run; an exception other than argparse's exit
    fails the test as a Traceback would."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


FUZZ = settings(max_examples=40, deadline=None)


@FUZZ
@given(sizes(claims.ALPHA_TABLE_MAX_N), formats("text", "csv", "json"))
def test_alpha_table_argv(n, fmt):
    assert_clean_exit(["alpha-table", n, "--format", fmt])


@FUZZ
@given(sizes(claims.LAST_TABLE_MAX_L), formats("text", "csv", "json"))
def test_last_table_argv(l, fmt):
    assert_clean_exit(["last-table", l, "--format", fmt])


@FUZZ
@given(PARTS, PARTS, formats("text", "json"))
def test_char_argv(shape, cycle_type, fmt):
    assert_clean_exit(["char", shape, cycle_type, "--format", fmt])


# a tree and a shape of its size, or any tree and parts
TREE_AND_SHAPE = st.one_of(
    st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.sampled_from([f"path:{n}", f"star:{n}"]),
        st.sampled_from([commas(p) for p in partitions(n)]))),
    st.tuples(TREES, PARTS))


@FUZZ
@given(TREE_AND_SHAPE, st.booleans(),
       st.sampled_from(["matching", "bruteforce", "oracle"]),
       formats("text", "json"))
def test_immanant_argv(tree_and_shape, normalized, algorithm, fmt):
    tree, shape = tree_and_shape
    assert_clean_exit(["immanant", "--tree", tree, "--shape", shape,
                       *["--normalized"] * normalized,
                       "--algorithm", algorithm, "--format", fmt])


@FUZZ
@given(TREES, formats("text", "json"))
def test_a_coeffs_argv(tree, fmt):
    assert_clean_exit(["a-coeffs", "--tree", tree, "--format", fmt])


WHICH = st.sampled_from(["two-row", "hook", "alpha-ratios", "general-sr",
                         "paths", "probability", "identities", "all",
                         "thm3"])


def edge_value(name):
    """The value before a sweep's first one, a huge or negative value,
    the value past its upper cap, or junk: a sweep refused before it
    starts.  Or its first value: the smallest sweep."""
    if name == "seed":
        return st.one_of(st.integers().map(str), JUNK)
    start = claims.SWEEP_START.get(name, 1)
    edges = [start, start - 1, -10**30]
    if name in claims.SWEEP_MAX:
        edges += [claims.SWEEP_MAX[name] + 1, 10**30]
    elif name == "n_max":  # bounded by the sampled sweep's cost instead
        edges += [10**30]
    return st.one_of(st.sampled_from(edges).map(str), JUNK)


# every cap flag typed at its sweep's first value, so no sweep runs at its
# default size, but one or two at an edge value
CAP_NAMES = [name for _, name, _ in CAP_FLAGS]
SWEEP_ARGV = st.lists(st.sampled_from(CAP_NAMES), min_size=1, max_size=2,
                      unique=True).flatmap(
    lambda names: st.fixed_dictionaries(
        {name: edge_value(name) for name in names})).map(
    lambda edges: [arg for flag, name, _ in CAP_FLAGS
                   for arg in (flag, edges.get(
                       name, str(claims.SWEEP_START.get(name, 1))))])

# one tree, with a grid, and sometimes a sweep flag it refuses
TREE_ARGV = st.builds(
    lambda tree, grid, stray: ["--tree", tree, *grid, *stray],
    TREES, st.just([]) | GRIDS.map(lambda g: [f"--q-grid={g}"]),
    st.sampled_from([[], ["--deep"], ["--n-max", "5"]]))


@settings(max_examples=150, deadline=None)
@given(WHICH, st.one_of(SWEEP_ARGV, TREE_ARGV), st.booleans(),
       formats("text", "csv", "json"))
def test_verify_argv(which, args, deep, fmt):
    assert_clean_exit(["verify", which, *args, *["--deep"] * deep,
                       "--format", fmt])
