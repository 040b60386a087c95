"""Fuzzing the CLI: malformed curve specs, config files and argv.

Every example must end in exit 0, 1 or 2 without an exception escaping
``main``.  Inputs stay small (genus <= 3, q <= 9, ranks <= 4, supported
root systems) so that each example is quick; the size caps themselves
are covered by the targeted tests in test_cli.py.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from nazeta.cli import COMMANDS, main

def pick(*branches):
    """One of ``branches``, each equally likely (``st.one_of`` weighs leaves)."""
    return st.integers(0, len(branches) - 1).flatmap(lambda i: branches[i])


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 4), max_size=3),
)


def _elliptic(q, n):
    return {"genus": 1, "q": q, "point_counts": [n]}


def _genus2(q, a, b):
    # (1 - aT + qT^2)(1 - bT + qT^2)
    coeffs = [1, -a - b, 2 * q + a * b, -q * (a + b), q * q]
    return {"genus": 2, "q": q, "numerator_coeffs": [str(c) for c in coeffs]}


CURVE_SPECS = pick(
    st.builds(_elliptic, st.integers(2, 9), st.integers(1, 16)),
    st.builds(_genus2, st.integers(2, 4), st.integers(-2, 2), st.integers(-2, 2)),
    st.fixed_dictionaries({
        "genus": st.integers(1, 3),
        "q": st.integers(2, 9),
        "point_counts": st.lists(st.integers(-1, 40), min_size=1, max_size=3),
    }),
    st.fixed_dictionaries({
        "genus": st.integers(1, 3),
        "q": st.integers(2, 9),
        "numerator_coeffs": st.lists(
            st.one_of(st.integers(-9, 9), st.sampled_from(["1/2", "1/0", "x"])),
            min_size=1,
            max_size=7,
        ),
    }),
    st.dictionaries(
        st.sampled_from(["genus", "q", "point_counts", "numerator_coeffs"]),
        JUNK,
        max_size=4,
    ),
    JUNK,
)

FLAG_VALUES = pick(
    st.integers(1, 4).map(str),
    st.sampled_from(["A", "B", "C", "G2", "1e-3", "0.5", "3,5/2", "1,2"]),
    st.sampled_from(["", "abc", "1/0", "nan", "inf", "-1", "0", "E"]),
)

CONFIG_VALUES = st.one_of(st.integers(1, 4), st.floats(0.1, 2), FLAG_VALUES)

# mostly well-formed required flags, so that examples get past parsing
REQUIRED = {
    "group": st.tuples(
        st.sampled_from(["A", "B", "C", "G2"]),
        st.integers(1, 2),
        st.integers(1, 2),
    ).map(lambda t: ["--type", t[0], "--rank", str(t[1]), "--p", str(t[2])]),
    "mixed": st.tuples(st.integers(2, 9), st.integers(1, 16)).map(
        lambda t: ["--q", str(t[0]), "--N", str(t[1])]
    ),
}


@settings(max_examples=200, deadline=5000, derandomize=True)
@given(
    command=st.sampled_from(sorted(set(COMMANDS) - {"report-all", "residue-compare"})),
    spec=CURVE_SPECS,
    data=st.data(),
)
def test_main_always_returns_an_exit_code(command, spec, data):
    taken = COMMANDS[command][1].split()
    # mostly flags the subcommand reads, now and then one it does not
    names = st.sampled_from(
        [f for f in taken if f not in ("curve", "json-out", "csv-out")] * 4
        + ["tol", "parallel"]
    )
    flags = data.draw(st.lists(st.tuples(names, FLAG_VALUES), max_size=2))
    config = data.draw(
        pick(
            st.none(),
            st.none(),
            st.dictionaries(names, CONFIG_VALUES, min_size=1, max_size=2),
            pick(st.dictionaries(names, JUNK, max_size=1), JUNK),
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--json-out", os.path.join(tmp, "out.json")]
        argv += data.draw(REQUIRED.get(command, st.just([])))
        if "curve" in taken:
            path = os.path.join(tmp, "curve.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            argv += ["--curve", path]
        for flag, value in flags:
            argv += [f"--{flag}", value]
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        assert main(argv) in (0, 1, 2)
