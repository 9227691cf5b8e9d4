"""Fuzzing the CLI's exit-code contract: whatever the arguments and input
files, every invocation exits with 0, 1, 2 or 3 and never escapes with an
exception (a traceback).  Half of the argument vectors are well formed;
the other half break exactly one part of it.  Sizes stay small (n <= 6,
samples <= 20)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maltkit.cli import main

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"

BAD_SYSTEMS = {
    "syntax.mlt": "signature f/3\nidentity f(x,y = x\n",
    "empty.mlt": "",
    "unsat.mlt": "signature f/3\nidentity f(x,y,z) = x\nidentity f(x,y,z) = z\n",
    "nonidem.mlt": "signature f/2\nidentity f(x,y) = f(y,x)\n",
}
BAD_ALGEBRAS = {
    "projection.json": json.dumps({"n": 3, "operations": {"f": {
        "arity": 3, "table": [0, 1, 2] * 9}}}),
    "short.json": json.dumps({"n": 2, "operations": {"f": {"arity": 3, "table": [0]}}}),
    "range.json": json.dumps({"n": 2, "operations": {"f": {"arity": 1, "table": [0, 7]}}}),
    "nokeys.json": json.dumps({"n": 2}),
    "noops.json": json.dumps({"n": 2, "operations": {}}),
    "text.json": "{not json",
    "list.json": "[1, 2, 3]",
}

GOOD_PROPERTIES = st.lists(
    st.sampled_from(["subalg2", "subalg3", "subalgGT1", "automorphism", "cross",
                     "idemprimal", "minority2", "fixedB=0", "fixedB=0+1"]),
    min_size=1, max_size=4, unique=True).map(",".join)
BAD_PROPERTY = st.sampled_from([
    "minority2=zz", "minority2=", "fixedB", "fixedB=", "fixedB=-1", "fixedB=0+x",
    "fixedB=++", "fixedB=99", "subalg2=1", "", "nonsense", "cross,cross",
    "fixedB=0+1,fixedB=1+0", "minority2,minority2=f"])
BAD_PROPERTIES = st.tuples(GOOD_PROPERTIES, BAD_PROPERTY).map(",".join)


def flag(name, values):
    return values.map(lambda v: [name, str(v)])


SEED = flag("--seed", st.integers(0, 2 ** 64 - 1))
BAD_SEED = st.sampled_from([[], ["--seed"], ["--seed", "-3"], ["--seed", "banana"],
                            ["--seed", ""], ["--seed", str(2 ** 64)]])
N = flag("-n", st.integers(1, 6))
BAD_N = flag("-n", st.sampled_from(["0", "-2", "x", "1.5", ""]))
JUNK = st.sampled_from([["--bogus"], ["-q"], ["extra"], ["--seed"],
                        ["--threads", "2"]])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Strategies for well formed and broken input and output paths."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in {**BAD_SYSTEMS, **BAD_ALGEBRAS}.items():
        (root / name).write_text(text)
    (root / "binary.bin").write_bytes(b"\xff\xfe\x00\x81")
    good = [str(SYSTEMS_DIR / f"{s}.mlt")
            for s in ("maltsev", "majority", "hagemann-mitschke-3")]
    algebras = []
    for system, n in (("maltsev", 1), ("maltsev", 3), ("majority", 4)):
        algebras.append(str(root / f"{system}-{n}.json"))
        assert main(["sample", str(SYSTEMS_DIR / f"{system}.mlt"), "-n", str(n),
                     "--seed", "1", "-o", algebras[-1]]) == 0
    unreadable = [str(root / "binary.bin"), str(root / "missing"), str(root)]
    return {
        "system": st.sampled_from(good).map(lambda p: [p]),
        "bad_system": st.sampled_from(
            [str(root / name) for name in BAD_SYSTEMS] + unreadable).map(lambda p: [p]),
        "algebra": st.sampled_from(algebras).map(lambda p: [p]),
        "bad_algebra": st.sampled_from(
            [str(root / name) for name in BAD_ALGEBRAS] + unreadable).map(lambda p: [p]),
        "output": st.just([]) | flag("-o", st.just(root / "out.txt")),
        "bad_output": flag("-o", st.sampled_from([root / "missing" / "out.txt", root])),
    }


def argv_of(draw, parts):
    """Concatenate the parts, each a (good, bad) pair of strategies for a
    list of arguments; at most one part, picked at random, is bad."""
    fault = draw(st.sampled_from([None] * len(parts) + list(range(len(parts)))))
    argv = []
    for i, (good, bad) in enumerate(parts):
        argv += draw(bad if i == fault else good)
    return argv


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert "error:" in err, (argv, err)


FUZZ = settings(max_examples=40, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_fuzz_census(files, data):
    assert_contract(["census"] + argv_of(data.draw, [
        (files["system"], files["bad_system"]),
        (N, BAD_N),
        (flag("--samples", st.integers(1, 20)), flag("--samples", st.integers(-1, 0))),
        (flag("--property", GOOD_PROPERTIES), flag("--property", BAD_PROPERTIES)),
        (SEED, BAD_SEED),
        (files["output"], files["bad_output"]),
        (st.just([]), JUNK),
    ]))


@FUZZ
@given(data=st.data())
def test_fuzz_sample(files, data):
    assert_contract(["sample"] + argv_of(data.draw, [
        (files["system"], files["bad_system"]),
        (N, BAD_N),
        (SEED, BAD_SEED),
        (st.just([]) | flag("--count", st.integers(1, 3)),
         flag("--count", st.integers(-2, 0))),
        (files["output"], files["bad_output"]),
        (st.just([]), JUNK),
    ]))


@FUZZ
@given(data=st.data())
def test_fuzz_enumerate(files, data):
    assert_contract(["enumerate"] + argv_of(data.draw, [
        (files["system"], files["bad_system"]),
        (flag("-n", st.integers(1, 2)), flag("-n", st.integers(-1, 0))),
        (st.just([]) | flag("--backend", st.sampled_from(["family", "brute"])),
         flag("--backend", st.just("fast"))),
        (files["output"], files["bad_output"]),
        (st.just([]), JUNK),
    ]))


@FUZZ
@given(data=st.data())
def test_fuzz_check(files, data):
    assert_contract(["check"] + argv_of(data.draw, [
        (files["algebra"], files["bad_algebra"]),
        (flag("--property", GOOD_PROPERTIES), flag("--property", BAD_PROPERTIES)),
        (st.just([]) | files["system"].map(lambda p: ["--system"] + p),
         files["bad_system"].map(lambda p: ["--system"] + p)),
        (st.just([]), JUNK),
    ]))
