"""Command-line front end.

Subcommands: analyze, entail, sample, enumerate, check, census, builtin.
Exit codes: 0 success, 1 domain error (unsatisfiable system, failed
assumption), 2 usage or parse error, 3 budget exceeded.

Randomized subcommands (sample, census) require an explicit --seed; there
is no wall-clock default, so identical invocations are bit-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import census as census_mod
from . import checkers, factory, library, params as params_mod
from .analysis import (canonical_transversal, class_infos, classify_minimal,
                       minimal_terms)
from .closure import (DEFAULT_MAX_VARS, checked_closure, compute_closure,
                      entails_auto, validate_assumptions)
from .errors import DomainError, MaltkitError, ParseError
from .terms import (parse_identity, parse_system, render_system, render_term,
                    variable_names)

SCHEMA_VERSION = 1


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise ParseError(f"no such {what} file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from None


def _load_system(path: str):
    return parse_system(_read_text(path, "system"), name=Path(path).stem)


def _parse_seed(value: str) -> int:
    try:
        seed = int(value, 0)
    except ValueError:
        raise ParseError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ParseError("seed must fit in an unsigned 64-bit integer")
    return seed


def _require_seed(args) -> int:
    if args.seed is None:
        raise ParseError("--seed is required; randomized commands have no "
                         "wall-clock default")
    return _parse_seed(args.seed)


def _out_stream(args, mode="w"):
    """Context manager for -o; stdout is not closed."""
    if not args.output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.output, mode, newline="")
    except OSError as exc:
        raise ParseError(f"cannot write {args.output}: {exc.strerror}") from None


def _property_list(args) -> tuple[str, ...]:
    return tuple(p.strip() for p in args.property.split(","))


def _render(spec, term):
    m = max(term.args) if term.args else 1
    names = variable_names(spec.signature, max(m, len(term.args)))
    return render_term(term, spec.signature, names)


# ---------------------------------------------------------------------------
# analyze


def _analysis_payload(spec, max_vars: int) -> dict:
    closure = compute_closure(spec, max_vars=max_vars)
    report = validate_assumptions(spec, max_vars=max_vars)
    payload = {
        "schema": SCHEMA_VERSION,
        "system": spec.name or "system",
        "idempotent": report.idempotent,
        "satisfiable": report.satisfiable,
    }
    if not report.idempotent:
        payload["detail"] = report.detail
        return payload
    if not report.satisfiable:
        # two distinct variables merged; x1 roots its class, so report it
        # with the next variable there
        m = closure.universe.m
        names = variable_names(spec.signature, m)
        with_x1 = [names[v] for v, r in enumerate(closure.roots()[:m].tolist()) if r == 0]
        payload["witness"] = with_x1[:2] if len(with_x1) > 1 else []
        return payload
    trans = canonical_transversal(closure)
    pars = params_mod.parameters(trans)
    facts = class_infos(closure)
    entries = []
    for e in trans.entries:
        entries.append({
            "rep": _render(spec, e.rep),
            "d": e.d,
            "group_order": len(e.group),
            "q": e.q,
        })
    minimal = []
    for t in minimal_terms(closure, trans):
        rep = classify_minimal(closure, t)
        minimal.append({"term": _render(spec, t), "kind": rep.kind})
    verdict = params_mod.idemprimality_verdict(pars)
    payload.update({
        "num_classes": len(facts),
        "num_orbits": facts.num_orbits,
        "transversal": entries,
        "d_M": pars.d_M,
        "p": {str(k): params_mod.p_of_k(pars, k)
              for k in range(pars.d_M, pars.d_M + 4)},
        "minimal_terms": minimal,
        "subalgebra_table": [{"size": size, "value": text, "float": value}
                             for size, text, value in params_mod.asymptotic_table(pars)],
        "verdict": {
            "almost_surely_idemprimal": verdict.almost_surely,
            "limit_probability": verdict.limit_probability,
            "limit_label": verdict.limit_label,
            "justification": list(verdict.justification),
        },
    })
    return payload


def cmd_analyze(args) -> int:
    spec = _load_system(args.system)
    payload = _analysis_payload(spec, args.max_vars)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_analysis_text(payload)
    if not payload["idempotent"]:
        print("error: system is not idempotent", file=sys.stderr)
        return 1
    if not payload["satisfiable"]:
        w = payload.get("witness") or ["x", "y"]
        print(f"error: system is unsatisfiable: {w[0]} = {w[1]} is entailed",
              file=sys.stderr)
        return 1
    return 0


def _print_analysis_text(p: dict):
    print(f"system: {p['system']}")
    print(f"idempotent: {p['idempotent']}  satisfiable: {p['satisfiable']}")
    if not (p["idempotent"] and p["satisfiable"]):
        return
    print(f"classes: {p['num_classes']}  orbits: {p['num_orbits']}")
    print("transversal:")
    for e in p["transversal"]:
        print(f"  {e['rep']}  d={e['d']}  |G|={e['group_order']}  q={e['q']}")
    print(f"d_M = {p['d_M']}")
    print("p(k): " + "  ".join(f"p({k})={v}" for k, v in p["p"].items()))
    print("minimal terms:")
    for t in p["minimal_terms"]:
        print(f"  {t['term']}  [{t['kind']}]")
    print("limiting probability of a proper subalgebra, by size:")
    for row in p["subalgebra_table"]:
        print(f"  size {row['size']}: {row['value']}")
    v = p["verdict"]
    print(f"idemprimal almost surely: {v['almost_surely_idemprimal']} "
          f"(limit {v['limit_label']})")
    for j in v["justification"]:
        print(f"  - {j}")


# ---------------------------------------------------------------------------
# entail


def cmd_entail(args) -> int:
    spec = _load_system(args.system)
    try:
        ident = parse_identity(args.identity, spec.signature)
    except ParseError as exc:
        raise ParseError(f"query: {exc}") from None
    report = validate_assumptions(spec, max_vars=args.max_vars)
    if not report.satisfiable:
        print("UNSATISFIABLE (every identity is semantically entailed)")
        return 1
    holds = entails_auto(spec, ident.lhs, ident.rhs, max_vars=args.max_vars)
    print("ENTAILED" if holds else "NOT ENTAILED")
    return 0


# ---------------------------------------------------------------------------
# sample / enumerate / check


def cmd_sample(args) -> int:
    seed = _require_seed(args)
    if args.count < 1:
        raise DomainError("--count must be at least 1")
    spec = _load_system(args.system)
    closure = checked_closure(spec, max_vars=args.max_vars)
    trans = canonical_transversal(closure)
    dispatch = factory.build_dispatch(closure, trans)
    factory.check_cells(spec.signature, args.n)
    with _out_stream(args) as fh:
        for i in range(args.count):
            fam = factory.sample_mfamily(trans, args.n, factory.mix(seed, i))
            alg = factory.realize(dispatch, fam)
            fh.write(factory.algebra_to_json(alg) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    if args.max_vars is None:
        args.max_vars = DEFAULT_MAX_VARS
    elif args.backend == "brute":
        raise ParseError("--max-vars applies only to the family backend")
    spec = _load_system(args.system)
    closure = (checked_closure(spec, max_vars=args.max_vars)
               if args.backend == "family" else None)
    with _out_stream(args) as fh:
        count = 0
        for alg in factory.enumerate_models(spec, args.n, backend=args.backend,
                                            closure=closure):
            fh.write(factory.algebra_to_json(alg) + "\n")
            count += 1
    print(f"{count} models", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    alg = factory.algebra_from_json(_read_text(args.algebra, "algebra"))
    if args.system:
        spec = _load_system(args.system)
        if alg.signature != spec.signature:
            raise DomainError("the algebra's operations differ from the system's signature")
        ok, witness = factory.validate_model(spec, alg)
        if not ok:
            raise DomainError(f"algebra does not satisfy the system: "
                              f"identity {witness[0]} fails at {witness[1]}")
    props = census_mod.parse_properties(_property_list(args), alg.signature, alg.n)
    tabs = checkers._tabs(alg)
    # decide all before printing any, so a tripped budget leaves stdout empty
    results = {prop: entry.decide(tabs, alg.n, arg) for prop, (entry, arg) in props.items()}
    for prop, (holds, witness) in results.items():
        obj = {"property": prop, "holds": holds}
        if witness is not None:
            obj["witness"] = witness
        print(json.dumps(obj))
    return 0


# ---------------------------------------------------------------------------
# census / builtin


def cmd_census(args) -> int:
    seed = _require_seed(args)
    spec = _load_system(args.system)
    exp = census_mod.Experiment(spec, args.n, args.samples, seed,
                                _property_list(args))
    engine = census_mod.CensusEngine(spec, max_vars=args.max_vars)
    if args.output:  # an unwritable path fails before sampling; none is truncated
        _out_stream(args, "a").close()
    report = census_mod.run_census(exp, engine=engine)
    with _out_stream(args) as fh:
        census_mod.write_csv([report], fh)
    return 0


def cmd_builtin(args) -> int:
    fam = library.FAMILIES.get(args.name)
    if fam is None:
        raise ParseError(f"unknown builtin {args.name!r}; known: "
                         + ", ".join(sorted(library.FAMILIES)))
    for flag in ("k", "m", "n"):
        wanted = flag in fam.params
        if wanted == (getattr(args, flag) is None):
            verb = "requires" if wanted else "does not take"
            raise ParseError(f"builtin {args.name!r} {verb} --{flag}")
    sys.stdout.write(library.builtin_mlt(args.name, *(getattr(args, p) for p in fam.params)))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="maltkit",
        description="analyze, sample, and census random finite models of "
                    "idempotent linear identity systems")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, system=True):
        if system:
            p.add_argument("system", help="path to a .mlt system file")
        p.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS,
                       help="variable budget for the term universe")

    p = sub.add_parser("analyze", help="closure, transversal, parameters, verdict")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("entail", help="decide entailment of a linear identity")
    common(p)
    p.add_argument("identity", help="query identity, e.g. 'f(y,y,x) = x'")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("sample", help="sample uniform random models")
    common(p)
    p.add_argument("-n", type=int, required=True, help="carrier size")
    p.add_argument("--seed", help="master seed (unsigned 64-bit)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="enumerate all models at tiny n")
    common(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--backend", choices=("family", "brute"), default="family")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate, max_vars=None)  # None: not given

    p = sub.add_parser("check", help="check properties of a concrete algebra")
    p.add_argument("algebra", help="path to an algebra JSON file")
    p.add_argument("--system", help="optional .mlt file to validate against")
    p.add_argument("--property", required=True,
                   help="comma-separated property list")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("census", help="seeded Monte Carlo property census")
    common(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", help="master seed (unsigned 64-bit)")
    p.add_argument("--property", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("builtin", help="print a builtin system as .mlt")
    p.add_argument("name")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_builtin)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MaltkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
