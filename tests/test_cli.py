import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from maltkit import census, checkers, factory, library
from maltkit.census import CensusEngine
from maltkit.checkers import (_cross_failures, _nontrivial_automorphism,
                              _pair_generated_proper)
from maltkit.cli import main
from maltkit.errors import BudgetError
from maltkit.factory import draw_values, mix
from maltkit.terms import parse_system


@pytest.fixture()
def maltsev_file(tmp_path):
    p = tmp_path / "maltsev.mlt"
    p.write_text("signature f/3\nidentity f(x,y,y) = x\nidentity f(x,x,y) = y\n")
    return str(p)


@pytest.fixture()
def cmaltsev_file(tmp_path):
    p = tmp_path / "cmaltsev.mlt"
    p.write_text("signature f/3\nidentity f(x,x,y) = y\nidentity f(x,y,z) = f(z,y,x)\n")
    return str(p)


def test_analyze_json(maltsev_file, capsys):
    assert main(["analyze", maltsev_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["d_M"] == 2
    assert doc["p"]["2"] == 2
    assert doc["verdict"]["limit_label"] == "exp(-2)"
    assert [e["rep"] for e in doc["transversal"]] == ["x", "f(x,y,x)", "f(x,y,z)"]
    assert doc["minimal_terms"] == [{"term": "f(x,y,x)", "kind": "binary-nontrivial"}]


def test_analyze_text(maltsev_file, capsys):
    assert main(["analyze", maltsev_file]) == 0
    out = capsys.readouterr().out
    assert "d_M = 2" in out


def test_analyze_unsatisfiable(tmp_path, capsys):
    p = tmp_path / "bad.mlt"
    p.write_text("signature f/3\nidentity f(x,y,z) = x\nidentity f(x,y,z) = z\n")
    assert main(["analyze", str(p), "--json"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["satisfiable"] is False
    assert doc["witness"]
    assert "unsatisfiable" in captured.err


def test_analyze_system_without_identities(tmp_path, capsys):
    # no seed pairs: every term is its own class
    p = tmp_path / "free.mlt"
    p.write_text("signature f/2\n")
    assert main(["analyze", str(p)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not idempotent" in err


def test_analyze_unsatisfiable_witness_names_x_and_its_class(tmp_path, capsys):
    p = tmp_path / "bad.mlt"
    p.write_text("signature g/2, h/2\nidentity g(x,y) = h(x,y)\n"
                 "identity g(x,y) = x\nidentity h(x,y) = y\n")
    assert main(["analyze", str(p), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == ["x", "y"]


def test_duplicate_symbol_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "dup.mlt"
    p.write_text("signature f/2, f/3\n")
    assert main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err.strip() == "error: duplicate symbol 'f'"


def test_analyze_parse_error(tmp_path, capsys):
    p = tmp_path / "syntax.mlt"
    p.write_text("signature f/3\nidentity f(x,y = x\n")
    assert main(["analyze", str(p)]) == 2


def test_analyze_budget_error(tmp_path):
    p = tmp_path / "big.mlt"
    p.write_text("signature g/9\nidentity g(x,x,x,x,x,x,x,x,y) = x\n")
    assert main(["analyze", str(p)]) == 3


def test_entail(cmaltsev_file, capsys):
    assert main(["entail", cmaltsev_file, "f(y,y,x) = x"]) == 0
    assert capsys.readouterr().out.strip() == "ENTAILED"
    assert main(["entail", cmaltsev_file, "f(x,y,x) = x"]) == 0
    assert capsys.readouterr().out.strip() == "NOT ENTAILED"


@pytest.mark.parametrize("query, message", [
    ("f(x,y,y) = x\nsignature g/2", "cannot parse term"),
    ("f(x,y,y) = y\nidentity f(x,y,y) = x", "exactly one '='"),
    ("f(x,y,y) = y; f(x,y,y) = x", "exactly one '='"),
    ("g(x,y) = x", "undeclared symbol 'g'"),
    ("f(x,y = x", "cannot parse term"),
])
def test_entail_accepts_exactly_one_identity(query, message, maltsev_file, capsys):
    """A query is one identity over the system's signature; an error in it
    says query:, not a line of a document the user never wrote."""
    assert main(["entail", maltsev_file, query]) == 2
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert err.startswith("error: query: ") and message in err


def test_sample_requires_seed(maltsev_file, capsys):
    assert main(["sample", maltsev_file, "-n", "4"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_sample_deterministic(maltsev_file, capsys):
    assert main(["sample", maltsev_file, "-n", "4", "--seed", "7",
                 "--count", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", maltsev_file, "-n", "4", "--seed", "7",
                 "--count", "3"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().split("\n")) == 3


def test_enumerate_and_check(maltsev_file, tmp_path, capsys):
    assert main(["enumerate", maltsev_file, "-n", "2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 4
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(lines[0] + "\n")
    assert main(["check", str(alg_path), "--system", maltsev_file,
                 "--property", "subalg2,automorphism,fixedB=0+1"]) == 0
    objs = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert [o["property"] for o in objs] == ["subalg2", "automorphism",
                                             "fixedB=0+1"]


def test_check_rejects_non_model(maltsev_file, tmp_path, capsys):
    alg_path = tmp_path / "proj.json"
    alg_path.write_text(json.dumps(
        {"n": 2, "operations": {"f": {"arity": 3, "table": [0] * 4 + [1] * 4}}}))
    assert main(["check", str(alg_path), "--system", maltsev_file,
                 "--property", "subalg2"]) == 1


def test_census_cli(maltsev_file, tmp_path):
    out = tmp_path / "census.csv"
    assert main(["census", maltsev_file, "-n", "6", "--samples", "500",
                 "--seed", "11", "--property", "subalg2,fixedB=0+1",
                 "-o", str(out)]) == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0].startswith("system,n,samples,master_seed,property")
    assert len([l for l in lines if l]) == 3
    # rerun must be byte-identical
    out2 = tmp_path / "census2.csv"
    assert main(["census", maltsev_file, "-n", "6", "--samples", "500",
                 "--seed", "11", "--property", "subalg2,fixedB=0+1",
                 "-o", str(out2)]) == 0
    assert out2.read_text() == text


def test_census_requires_seed(maltsev_file):
    assert main(["census", maltsev_file, "-n", "6", "--samples", "10",
                 "--property", "subalg2"]) == 2


def test_builtin_command(capsys):
    assert main(["builtin", "maltsev"]) == 0
    assert capsys.readouterr().out == \
        "signature f/3\nidentity f(x,y,y) = x\nidentity f(x,x,y) = y\n"
    assert main(["builtin", "jonsson"]) == 2  # missing --k
    capsys.readouterr()
    assert main(["builtin", "jonsson", "--k", "2"]) == 0
    assert "t0" in capsys.readouterr().out
    assert main(["builtin", "parallelogram", "--m", "1", "--n", "1"]) == 0
    capsys.readouterr()
    assert main(["builtin", "nope"]) == 2
    capsys.readouterr()
    # a flag the family does not take is a ParseError naming it
    for argv, flag in ((["maltsev", "--k", "3"], "--k"),
                       (["jonsson", "--k", "2", "--m", "5"], "--m"),
                       (["near-unanimity", "--k", "3", "--n", "4"], "--n")):
        assert main(["builtin", *argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: builtin {argv[0]!r} does not take {flag}\n")


@pytest.mark.parametrize("argv,message", [
    (["cube", "--k", "40"], "cube needs k <= 7"),
    (["near-unanimity", "--k", "200000"], "near-unanimity needs k <= 64"),
    (["parallelogram", "--m", "1", "--n", "65"], "parallelogram needs m <= 64 and n <= 64"),
])
def test_builtin_parameter_above_its_greatest_value(capsys, monkeypatch, argv,
                                                    message):
    """A parameter above its family's greatest value is a budget error
    before any text is built, where cube --k 40 used to build 2^40
    positions and near-unanimity --k 200000 a text quadratic in k."""
    def unreachable(*args):
        raise AssertionError("generator called")

    fam = library.FAMILIES[argv[0]]
    monkeypatch.setitem(library.FAMILIES, fam.name,
                        dataclasses.replace(fam, generator=unreachable))
    assert main(["builtin", *argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bad_seed_format(maltsev_file):
    assert main(["sample", maltsev_file, "-n", "4", "--seed", "banana"]) == 2
    assert main(["sample", maltsev_file, "-n", "4", "--seed", "-3"]) == 2


# ---------------------------------------------------------------------------
# pinned outputs, budgets and input errors

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"

# SHA-256 of stdout, recorded before the table realizers were merged into
# one gather plan; sample and census output must never change
PINNED_OUTPUTS = [
    ("sample maltsev -n 4 --seed 7 --count 3",
     "ac217aaf38e67a09b429cd88d312bda234b3360950d517d13e09d9b391f94b3d"),
    ("sample commutative-maltsev -n 5 --seed 11 --count 4",
     "aaec475128ce8278d2ea862f7f65e3f0250eecb7943db74774ec7b75ff13a560"),
    ("sample hagemann-mitschke-3 -n 3 --seed 2 --count 2",
     "2ad3175d305936e096a04870934b42b1608ec26269ac948054fcb0d991596c3b"),
    ("sample near-unanimity-4 -n 3 --seed 0x2a --count 2",
     "74bd6521dd6ba12c0d47d79a327e05b73a46e167a97187ea42291c39b1bdf132"),
    ("census maltsev -n 6 --samples 200 --seed 3 --property subalg2,subalg3,"
     "subalgGT1,automorphism,cross,idemprimal,minority2,fixedB=0+1",
     "9c8b9048ceab8231e977d4673af0b0db2e8a0434b5c952f99a91757d339b4943"),
    ("census hagemann-mitschke-3 -n 5 --samples 60 --seed 9 "
     "--property subalg2,subalgGT1,idemprimal,fixedB=0+1+2",
     "b3fce2088ab8314aed15f3e84a541a52f6494e09cb28704041f493e6156322ad"),
    ("census majority -n 4 --samples 100 --seed 12345 "
     "--property subalg2,subalg3,automorphism,cross",
     "a7dde62fe22a0e9931b1dbb8120ab6ee5720fe47e3c7f7d5c85f987486535abd"),
    # recorded before the draw layout became arrays: entries with d >= 4
    # and nontrivial symmetry groups
    ("sample day-2 -n 4 --seed 5 --count 2",
     "fd568533427925ff971f9ef5b7eb3319abe69e7813695bb310beb00e1ff2a4c6"),
    ("sample cyclic-5 -n 5 --seed 3",
     "95354665e0af4c8bdce9146c110b3f50ddef2d286493b6d481364979fa6546ee"),
    ("census near-unanimity-5 -n 6 --samples 40 --seed 8 "
     "--property subalg2,subalg3,cross,fixedB=0+2+4",
     "3006bda2149a7504cea30f1d7390ec2420d1fdee34b5654f274d9db17b8eff63"),
    ("census commutative-maltsev -n 5 --samples 60 --seed 4 "
     "--property minority2,subalg2,fixedB=1+3",
     "b00dc5d23fa9e020979ee430b74b2717927930fb6c400db86f1db6eabd6a2233"),
]


def fixture_argv(command: str) -> list[str]:
    cmd, system, *rest = command.split()
    return [cmd, str(SYSTEMS_DIR / f"{system}.mlt"), *rest]


def assert_one_line_error(err: str):
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command,digest", PINNED_OUTPUTS)
def test_pinned_output_digests(command, digest, capsys):
    assert main(fixture_argv(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `analyze --json` stdout for every shipped fixture, recorded
# before class infos moved to index arrays
PINNED_ANALYSES = {
    "commutative-maltsev":
        "ec336d8c34f379703f10693751e2781f652507c16e305197256f16bf4551f026",
    "cube-2":
        "ecb31e2b313e46699db03ac3d74cd94aa16cff8d01081345aaa3b3f8ed5ce882",
    "cube-3":
        "977256d4fc011d3fdfa39ff9fbc257b4e87873dc6cf5d1303854ebb3c55ccf91",
    "cyclic-2":
        "fb240360d907a7bd827882ea77efd1139c5a1b784031fa609fb3faa4543271b8",
    "cyclic-3":
        "4c42a48917aabc2cdd754dd0bb03e81d94146b933da6f2cef457eef7496ccff9",
    "cyclic-4":
        "cdf7c9a728af9101d74221f590de1eb74e297c706721454face82dbfc4081c3d",
    "cyclic-5":
        "250a12a74b9994939359939e6972d2187c0c2f35aa83e7eaad34a56a92e6ecfb",
    "day-2":
        "6822cf0a6ffce8e3e950e3e21105afde1f85ca48a273e01fb0a97115b59d1f5c",
    "day-3":
        "8c460c97e74a5a1926c102f81c22f83d1e9e2ff94b8beaf1c67565c2beb574d3",
    "day-4":
        "7b4df81355ecaffec32c542d30ee4b63ce1c9dedcadc561efac75b619eeebeb1",
    "day-5":
        "0a868bf11e03498f5c6720432b58420ff0339dfe2eba03fb4df4c8e821aab4bc",
    "edge-2":
        "fce66da65e0ad4540507c9ec4d7dc46f914cc28d72d6410e3368c1810aeff283",
    "edge-3":
        "bf58a08ebffe31cdedfedb51b25b37829188837f54059898128c2be15e4c736a",
    "edge-4":
        "895d8ae0355b74d1d8f22c045a745c74f4ad6953dfc99c93d082b03f8fe3a0bc",
    "edge-5":
        "1db6977e2e24a47b4a2ea199b4100b67f741ad026b7cc1ee1a56c1eb464bd998",
    "gumm-0":
        "57f2920399d852aceb356cfb12e983c90c6446ef898684bb2c8b2bf131ad65eb",
    "gumm-1":
        "e8514748b4afee2a5bce0a1f1b74def11ddbe29d89e79305a9609951e672a86e",
    "gumm-2":
        "587faccf28ae9cc5f2e0b9448fe590b0114728494de96b1d51534e836f6d425e",
    "gumm-3":
        "4731336a0d570b3ec7dc049912961503ebeea0eb2be0a215446f8b0f154a3e49",
    "gumm-4":
        "aa92b33563d6fa9dcf640fea7965134900028a4f394ced3b88a75f008735361e",
    "gumm-5":
        "4d92c6ee809c1bf2ab08b82af6727a6185cea1dd6d634f9166aa656d1f8ab07d",
    "hagemann-mitschke-2":
        "745cc503be884d98669e7a9bdbb8e104403b0a0d193c6b5c3657932c698665c7",
    "hagemann-mitschke-3":
        "6bd7c859e1cb05fcd6030e0a92f4706b5351d20326657a7b8ba66d4c4d5242d3",
    "hagemann-mitschke-4":
        "a1c259df0908be0ee259458eac83248d98887c7c9abb1db786c25b82e365ca0b",
    "hagemann-mitschke-5":
        "14a91d2ed19ebd72a3534538d15ff304b399dd669d3e202fd6035436cc63dd63",
    "jonsson-2":
        "ae21bba800f44e94c31f45f7bd0b6aa4c3c5cbe6be111dd126e0fb170885b48a",
    "jonsson-3":
        "d79a71613a0bfc52e405895a45c41ba45459559dd23ef435b8a54aeff749f3c9",
    "jonsson-4":
        "8bb292889e9c0fa3ccc575d3e446232111680d9cab6ccf7c84b5e546bda4ee7c",
    "jonsson-5":
        "34173f4bd3f8696f1c48e4b2ccda0a6a9f515144e1df7e4029f4518d7c72160a",
    "majority":
        "ff4a37c833891f6f9746043a4a4535d3adad555a6767d1489a390ae6c1a47a3e",
    "maltsev":
        "1f7e9186de989f9a1d4b2022b8ce03dcd8b0ae35509d22c325d92a5dba0caa62",
    "minority1":
        "61a6612bc6a0f5e00ba6544afbf1f6f7bd1ecc9460c684c9589524e07482923f",
    "minority2":
        "bf06c2beba611543f043686e67e224079720df8b1e2b8c45bd10200d9e0936d4",
    "minority3":
        "a68a9456eded0539882706ec7e7bb600a7ee74bc2e73f5ddd58cf00b83d9ce16",
    "near-unanimity-3":
        "48a3f4bd488da39efa84a97f1e5bde0a2e453ef404f5ab0ec93a3740c4041d41",
    "near-unanimity-4":
        "9bb78c3c457726daae82d0c6c2755d613b5b9f3bc5dd1902c58da9180879ced6",
    "near-unanimity-5":
        "064cdd3e4e649fcf9d28a9ba944495a1ed1f71e2f70230e934855aff5ca8fc56",
    "olsak":
        "744026de67f29fb1682f3adfd259513c01517156a0b6bfd8e8cc5c29dd6273de",
    "parallelogram-1-1":
        "9c84db645c57b087b82233554e882273458ccbbdbe666950ec9fe0d24ea6db00",
    "parallelogram-1-2":
        "e624e66206918092258788870b0057ff600650c228cef5d7bb87ce4e70ecda8e",
    "parallelogram-2-1":
        "8f25a0b3343491ffe29a8006fc106acf071df83f6206deda6453d33b6b19ac35",
    "pixley-pair":
        "57157436e43aad55235d6cd98bd1f07d1ce98eec7f022eff21be0ceb7ba92b8d",
    "sd-join-2":
        "c86a3b5b6aad9411f2c1308df522a02f7666083dca312b8eed1b8a8b9a14e9fe",
    "sd-join-3":
        "0143595a5ebfe95a2ed00eab2001a82db33e42cad76e04d5c54bdd77ec20cc46",
    "sd-join-4":
        "b8be7dbdf59aaa994f9ff01505d99a8f832a1f91d5aa04c79315952e42a02ec4",
    "sd-join-5":
        "572fcafbf76b361404aa8e2019fc97be6642872685e5c1fa71a423c8fc6c44eb",
    "siggers4":
        "9d9ad439efea04711a74aa9aa504adb3aec28b072b7177e3b885da7e52256bd2",
    "siggers6":
        "e9baf20172091f7eceb2720b02bc6d135b7bd7fb0a911e3b734b05747adf8f13",
    "two-thirds-minority":
        "40af7cebd9deb78a826816bf5ca3622b29e21c8571e08394833b9e9b66285d7c",
    "weak-nu-3":
        "da0b7471064e16e1fa9fd65f26227f61451ae7c1e0c967dec9b718cd06046dd8",
    "weak-nu-4":
        "e4ebe88d97d4c46d2f67c643ca022453e0a6dc11f1b9da3c2f0b348051133a4d",
    "weak-nu-5":
        "a9bc802b04b8ce349e5e0bf0c28601f9541c18d786423343953de6e7667f18f0",
}


def test_pinned_analyses_cover_every_fixture():
    assert set(PINNED_ANALYSES) == {p.stem for p in SYSTEMS_DIR.glob("*.mlt")}


@pytest.mark.parametrize("system,digest", sorted(PINNED_ANALYSES.items()))
def test_pinned_analysis_digests(system, digest, capsys):
    """In a full run, cube-3 reuses the closure and class infos cached by
    the verdict-table acceptance test."""
    assert main(["analyze", str(SYSTEMS_DIR / f"{system}.mlt"), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the checker witnesses on 10 census samples of every fixture
# but cube-3 at n = 3, 5 and 8, recorded before the automorphism search
# extended generator images by plain closure: the smallest proper pair
# closure, the first nontrivial automorphism and (ok, T) of the cross test
# at every a (30 automorphisms and 566 proper subalgebras in 1530 samples)
PINNED_WITNESSES = "2f724168f36b2fc41790ad370b85a87069ea4b9ea1587a19aafddef8c34d31c2"


def test_pinned_witness_digest():
    h = hashlib.sha256()
    for path in sorted(SYSTEMS_DIR.glob("*.mlt")):
        if path.stem == "cube-3":
            continue
        engine = CensusEngine(parse_system(path.read_text(), path.stem))
        for n in (3, 5, 8):
            ctx = engine.context(n)
            for j in range(10):
                tabs = ctx.realize_np(draw_values(mix(4242, j), n, ctx.total_draws))
                h.update(repr((path.stem, n, j, _pair_generated_proper(tabs, n),
                               _nontrivial_automorphism(tabs, n),
                               [(T is None, T)
                                for T in _cross_failures(tabs, n, range(n))])
                              ).encode())
    assert h.hexdigest() == PINNED_WITNESSES


@pytest.mark.parametrize("command", [
    "census near-unanimity-5 -n 64 --samples 10 --seed 1 --property subalg2",
    "sample near-unanimity-5 -n 64 --seed 1",
    "enumerate maltsev -n 50",
])
def test_budget_checked_before_orbit_index(command, monkeypatch, capsys):
    def no_orbit_index(*args):
        raise AssertionError("orbit index built before the budget check")

    monkeypatch.setattr(factory, "orbit_index", no_orbit_index)
    monkeypatch.setattr(census, "orbit_index", no_orbit_index)
    assert main(fixture_argv(command)) == 3
    err = capsys.readouterr().err
    assert_one_line_error(err)
    if "near-unanimity-5" in command:
        assert f"{64 ** 5} of them for g" in err


@pytest.mark.parametrize("options,code", [
    (["--samples", "0"], 3),
    (["--samples", "1000001"], 3),
    (["-n", "65"], 3),
    (["--property", "fixedB=0+99"], 1),
    (["--property", "fixedB=-1+2"], 1),
    (["--property", "minority2=zz"], 1),
])
def test_census_rejects_bad_inputs(options, code, maltsev_file, monkeypatch,
                                   capsys):
    def no_draws(*args):
        raise AssertionError("census sampled before checking its inputs")

    monkeypatch.setattr(census, "draw_values", no_draws)
    argv = ["census", maltsev_file, "-n", "8", "--samples", "10", "--seed",
            "1", "--property", "subalg2"] + options
    assert main(argv) == code
    assert_one_line_error(capsys.readouterr().err)


def test_census_has_no_threads_option(maltsev_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", maltsev_file, "-n", "4", "--samples", "10", "--seed",
              "1", "--property", "subalg2", "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("prop", ["minority2", "minority2=c"])
def test_census_minority2_needs_ternary_symbol(prop, capsys):
    argv = fixture_argv("census cyclic-2 -n 4 --samples 5 --seed 1")
    assert main(argv + ["--property", prop]) == 1
    assert_one_line_error(capsys.readouterr().err)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_enumerate_rejects_empty_carrier(n, maltsev_file, capsys):
    assert main(["enumerate", maltsev_file, "-n", n]) == 1
    assert_one_line_error(capsys.readouterr().err)


def test_check_rejects_huge_arity_before_the_table_size(tmp_path, capsys):
    # computing 3 ** 10 ** 8 takes minutes; the short table says enough
    path = tmp_path / "alg.json"
    path.write_text('{"n": 3, "operations": {"f": {"arity": 100000000, "table": [0]}}}')
    start = time.perf_counter()
    assert main(["check", str(path), "--property", "subalg2"]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert "wrong length" in err


def test_check_rejects_empty_carrier(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text('{"n": 0, "operations": {"f": {"arity": 3, "table": []}}}')
    assert main(["check", str(path), "--property", "subalg2"]) == 1
    assert_one_line_error(capsys.readouterr().err)


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    '{"n": 2, "operations": {"f": {"table": [0, 1]}}}',
    '{"n": 2, "operations": {"f": {"arity": 1}}}',
    '{"n": 2, "operations": {"f": {"arity": 1, "table": [0, "one"]}}}',
    '{"n": 2, "operations": [1, 2]}',
    '{"n": 2.5, "operations": {"f": {"arity": 1, "table": [0, 1]}}}',
    '{"n": 2, "operations": {"f": {"arity": 1, "table": [0, 1]}, '
    '"f": {"arity": 2, "table": [0, 0, 1, 1]}}}',
])
def test_check_rejects_malformed_algebra(content, tmp_path, capsys):
    path = tmp_path / "alg.json"
    if content is not None:
        path.write_text(content)
    assert main(["check", str(path), "--property", "subalg2"]) == 2
    assert_one_line_error(capsys.readouterr().err)


# SHA-256 of `check` stdout for all eight properties on sampled algebras,
# recorded before the property registry.  The three maltsev n=3 pins differ
# from the recorded output only in the subalg3 line: the whole 3-element
# carrier was reported as a subalgebra, and is now not (census meaning).
CHECK_PROPERTIES = ("subalg2,subalg3,subalgGT1,automorphism,cross,idemprimal,"
                    "minority2,fixedB=0+1")
PINNED_CHECKS = [
    ("maltsev -n 3 --seed 0",
     "f2f0d2a179fda98f9a3bfe6bd59dff17c1229c3709cf16b92bc0f8b0c76a1870"),
    ("maltsev -n 3 --seed 1",
     "1ae05aa7f39ee4b415471f8113b488f40ab316b6d461a784fe9a197c4ed8bd92"),
    ("maltsev -n 3 --seed 3",
     "4d14996468ee92f490a534c9215b53e17649c5715335c7033786fb63b44ff439"),
    ("maltsev -n 5 --seed 0",
     "ec4aa7bd74565056c3e03b7668cf6fb812456a431fb67c82363e1e6b5a3c8ddc"),
    ("maltsev -n 5 --seed 2",
     "93b47afb44fc8a63e67b4350824152e73cedd1f2ebb25cfee3fb7cc160e22ae9"),
    ("maltsev -n 5 --seed 8",
     "d654ce77953a0b8f406a11b162c768d7ab4dc9f9752f78240fe2b497037c5f02"),
    ("maltsev -n 5 --seed 16",
     "a7cf91108175ee9132d9083d3ce0939ffbde5934885b19eebb8301d7a3f30706"),
    ("hagemann-mitschke-3 -n 5 --seed 0",
     "cd25f39387fabc515e371c4b12e6b48c5abe19df79a214ce5327e6c1b35bf58e"),
    ("hagemann-mitschke-3 -n 5 --seed 3",
     "fbe09236fea461d4fa4e08917f11aefd6d4306dcd93fb8d77beb1d5a80992167"),
    ("hagemann-mitschke-3 -n 5 --seed 129",
     "6f79e68b94ad84eb28ab1f6d900931e2ad4fc9e128554e40b6f97d486a10310f"),
    # automorphism and cross witnesses
    ("majority -n 3 --seed 23",
     "4242871d9e1026249c88cc0f208206ad81546250017f77fa96918fef26c673c2"),
    ("majority -n 4 --seed 3",
     "8f360e3a37345bf48b4bc47b4f7729330d499df07bea4ec977e30e075283671a"),
]


@pytest.mark.parametrize("sample,digest", PINNED_CHECKS)
def test_pinned_check_digests(sample, digest, tmp_path, capsys):
    alg = tmp_path / "alg.json"
    assert main(fixture_argv("sample " + sample) + ["-o", str(alg)]) == 0
    assert main(["check", str(alg), "--property", CHECK_PROPERTIES]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("props", ["automorphism,idemprimal", "automorphism"])
def test_check_applies_the_automorphism_size_cap(props, tmp_path, capsys):
    """A random idempotent binary algebra at n = 65: check stops at the
    n <= 64 automorphism cap, as has_nontrivial_automorphism does."""
    rng = np.random.default_rng(65)
    table = rng.integers(0, 65, size=65 * 65)
    table[::66] = np.arange(65)  # the diagonal cells (a, a)
    alg = tmp_path / "alg65.json"
    alg.write_text(json.dumps({"n": 65, "operations": {
        "f": {"arity": 2, "table": table.tolist()}}}))
    assert main(["check", str(alg), "--property", props]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=65 exceeds the automorphism budget 64\n"


def _algebra240(tmp_path):
    """A random idempotent binary algebra at n = 240, written as JSON."""
    rng = np.random.default_rng(240)
    table = rng.integers(0, 240, size=240 * 240)
    table[::241] = np.arange(240)  # the diagonal cells (a, a)
    alg = tmp_path / "alg240.json"
    alg.write_text(json.dumps({"n": 240, "operations": {
        "f": {"arity": 2, "table": table.tolist()}}}))
    return alg


def test_check_applies_the_subset_budget(tmp_path, capsys, monkeypatch):
    """A random idempotent binary algebra at n = 240: C(240, 3) subsets
    exceed the 2M budget, and check stops before the first is tried."""
    def no_subsets(*args):
        raise AssertionError("a subset was tried before the budget check")

    monkeypatch.setattr(checkers, "_subuniverse", no_subsets)
    alg = _algebra240(tmp_path)
    assert main(["check", str(alg), "--property", "subalg3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: C(240,3) = 2275280 subsets exceed the subset "
                            "budget 2000000\n")


def test_check_prints_nothing_when_a_later_property_trips_a_budget(tmp_path, capsys):
    """cross is decided at n = 240, but subalg3 then trips the subset
    budget, so no line reaches stdout."""
    alg = _algebra240(tmp_path)
    assert main(["check", str(alg), "--property", "cross,subalg3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error(captured.err)
    assert "subset budget" in captured.err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_agrees_with_census_at_small_n(n, tmp_path, capsys):
    """check and census count only proper subalgebras, so at n=1, 2, 3
    subalgGT1, subalg2 and subalg3 are false on every algebra."""
    props = ["subalg2", "subalg3", "subalgGT1", "automorphism", "cross",
             "minority2", f"fixedB={n - 1}"] + (["idemprimal"] if n >= 3 else [])
    samples, seed = 12, 5
    for system in ("maltsev", "majority"):
        models = tmp_path / f"{system}.jsonl"
        assert main(fixture_argv(f"sample {system} -n {n} --seed {seed} "
                                 f"--count {samples}") + ["-o", str(models)]) == 0
        holds = dict.fromkeys(props, 0)
        alg = tmp_path / "alg.json"
        for line in models.read_text().splitlines():
            alg.write_text(line)
            assert main(["check", str(alg), "--property", ",".join(props)]) == 0
            for obj in map(json.loads, capsys.readouterr().out.splitlines()):
                holds[obj["property"]] += obj["holds"]
        spec = parse_system((SYSTEMS_DIR / f"{system}.mlt").read_text())
        report = census.run_census(census.Experiment(spec, n, samples, seed,
                                                     tuple(props)))
        assert holds == {row.property: row.successes for row in report.rows}
        assert holds[{1: "subalgGT1", 2: "subalg2", 3: "subalg3"}[n]] == 0
        if n < 3:
            assert main(["check", str(alg), "--property", "idemprimal"]) == 1
            assert_one_line_error(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["census", "check"])
@pytest.mark.parametrize("props", ["subalg2,subalg2", "fixedB=0+1,fixedB=1+0",
                                   "minority2,minority2=f"])
def test_repeated_property_rejected(command, props, maltsev_file, tmp_path,
                                    capsys):
    if command == "census":
        argv = ["census", maltsev_file, "-n", "3", "--samples", "5", "--seed", "1"]
    else:
        alg = tmp_path / "alg.json"
        assert main(["sample", maltsev_file, "-n", "3", "--seed", "1",
                     "-o", str(alg)]) == 0
        argv = ["check", str(alg)]
    assert main(argv + ["--property", props]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error(captured.err)
    assert "repeats" in captured.err


@pytest.mark.parametrize("command", [
    "sample maltsev -n 3 --seed 1",
    "enumerate maltsev -n 2",
    "census maltsev -n 3 --samples 5 --seed 1 --property subalg2",
])
def test_output_into_missing_directory(command, tmp_path, monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("census sampled before opening its output")

    monkeypatch.setattr(census, "draw_values", no_draws)
    out = tmp_path / "missing" / "out.txt"
    assert main(fixture_argv(command) + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error(captured.err)


@pytest.mark.parametrize("count", ["-2", "0"])
def test_sample_rejects_count_below_one(count, maltsev_file, capsys):
    assert main(["sample", maltsev_file, "-n", "3", "--seed", "1",
                 "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error(captured.err)


def test_unreadable_input_files(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (["analyze", str(binary)],
                 ["check", str(binary), "--property", "subalg2"],
                 ["check", str(tmp_path), "--property", "subalg2"]):
        assert main(argv) == 2
        assert_one_line_error(capsys.readouterr().err)


def test_failed_census_keeps_existing_output(maltsev_file, tmp_path, monkeypatch,
                                             capsys):
    def no_draws(*args):
        raise BudgetError("draws refused")

    monkeypatch.setattr(census, "draw_values", no_draws)
    out = tmp_path / "out.csv"
    out.write_text("previous results\n")
    assert main(["census", maltsev_file, "-n", "3", "--samples", "5", "--seed",
                 "1", "--property", "subalg2", "-o", str(out)]) == 3
    assert_one_line_error(capsys.readouterr().err)
    assert out.read_text() == "previous results\n"


def test_check_rejects_algebra_of_another_signature(maltsev_file, tmp_path,
                                                    capsys):
    other = tmp_path / "g.mlt"
    other.write_text("signature g/3\nidentity g(x,y,y) = x\nidentity g(x,x,y) = y\n")
    alg = tmp_path / "alg.json"
    assert main(["sample", str(other), "-n", "3", "--seed", "1", "-o", str(alg)]) == 0
    assert main(["check", str(alg), "--system", maltsev_file,
                 "--property", "subalg2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error(captured.err)


def test_enumerate_family_rejects_non_idempotent_system(tmp_path, capsys):
    system = tmp_path / "nonidem.mlt"
    system.write_text("signature f/2\nidentity f(x,y) = f(y,x)\n")
    assert main(["enumerate", str(system), "-n", "2"]) == 1
    assert_one_line_error(capsys.readouterr().err)
    assert main(["enumerate", str(system), "-n", "2", "--backend", "brute"]) == 0


def test_enumerate_uses_the_checked_closure(maltsev_file, monkeypatch, capsys):
    def no_closure(*args, **kwargs):
        raise AssertionError("enumerate_models computed its own closure")

    # a second closure would ignore --max-vars and take the default budget
    monkeypatch.setattr(factory, "compute_closure", no_closure)
    assert main(["enumerate", maltsev_file, "-n", "2", "--max-vars", "3"]) == 0
    assert capsys.readouterr().err == "4 models\n"


def test_enumerate_brute_rejects_max_vars(maltsev_file, capsys):
    # the brute backend computes no closure, so a variable budget would do nothing
    argv = ["enumerate", maltsev_file, "-n", "1", "--backend", "brute"]
    assert main(argv + ["--max-vars", "7"]) == 2
    assert capsys.readouterr().err == (
        "error: --max-vars applies only to the family backend\n")
    assert main(argv) == 0
    assert main(argv[:-2] + ["--max-vars", "0"]) == 3


@pytest.mark.parametrize("command", [
    "census nonidem.mlt -n 3 --samples 5 --seed 1 --property subalg2",
    "sample nonidem.mlt -n 3 --seed 1",
    "enumerate nonidem.mlt -n 2",
])
def test_standing_assumptions_error_is_shared(command, tmp_path, capsys):
    system = tmp_path / "nonidem.mlt"
    argv = command.split()
    argv[1] = str(system)
    for text, detail in (
            ("identity f(x,y) = f(y,x)", "symbol 'f' is not idempotent"),
            # the projection: idempotent and satisfiable, but no term is nontrivial
            ("identity f(x,y) = x", "every linear term is equivalent to a variable")):
        system.write_text(f"signature f/2\n{text}\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: system fails the standing assumptions: {detail}\n")


def test_cross_needs_two_elements(tmp_path, capsys):
    """At n=1 the cross at 0 is the whole square A x A, so no algebra on
    one element has a proper cross."""
    argv = fixture_argv("census maltsev -n 1 --samples 20 --seed 1 --property cross")
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[5] == "0"
    assert row[9:11] == ["exact_finite_n", "0"]
    alg = tmp_path / "one.json"
    alg.write_text('{"n":1,"operations":{"f":{"arity":3,"table":[0]}}}')
    assert main(["check", str(alg), "--property", "cross"]) == 0
    assert json.loads(capsys.readouterr().out) == {"property": "cross", "holds": False}


def test_check_has_no_max_vars_option(tmp_path, capsys):
    # check computes no closure, so a variable budget would do nothing
    alg = tmp_path / "one.json"
    alg.write_text('{"n":1,"operations":{"f":{"arity":3,"table":[0]}}}')
    with pytest.raises(SystemExit) as exc:
        main(["check", str(alg), "--property", "cross", "--max-vars", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --max-vars 0" in err
    assert "Traceback" not in err
