"""Command-line front door: validate, analyze, decompose, audit, catalog.

Exit status: 0 on success (audits: no hard failure), 1 on a failed check,
2 on unusable input.  All output ordering is canonical, so reports are
byte-identical across runs and parallelism degrees.
"""

from __future__ import annotations

import argparse
import sys

from .auditor import _fmt_mask, audit_corpus
from .catalog import (
    make_B,
    make_end_semiring,
    make_lattice_semiring,
    make_matrix_semiring,
    make_product,
)
from .core import DEFAULT_LIMITS, Limits, enumerate_congruences, enumerate_subsemimodules
from .errors import AxiomViolations, EngineError
from .semisimple import condition_profile, semisimplicity_profile, simplicity_profile
from .summands import irreducible_decomposition, summand_poset
from .textio import ParseError, emit_semiring, parse_text


def _parse_limits(pairs: list[str]) -> Limits:
    values = {}
    for pair in pairs:
        for item in pair.split(","):
            if not item:
                continue
            if "=" not in item:
                raise ParseError(f"--limits expects key=value, got '{item}'")
            key, _, raw = item.partition("=")
            if key not in Limits.__dataclass_fields__:
                raise ParseError(f"unknown limit '{key}'")
            try:
                values[key] = int(raw)
            except ValueError:
                raise ParseError(f"limit '{key}' needs an integer, got '{raw}'")
    for key, val in values.items():
        if val <= 0:
            raise ParseError(f"limit '{key}' must be positive")
    return Limits(**values) if values else DEFAULT_LIMITS


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _first_semiring(path: str):
    parsed = parse_text(_read_file(path))
    if not parsed.semirings:
        raise ParseError(f"{path} contains no semiring block")
    return parsed.semirings[0]


def cmd_validate(args) -> int:
    try:
        parsed = parse_text(_read_file(args.file))
    except AxiomViolations as exc:
        print("invalid:")
        for v in exc.violations:
            print(f"  {v}")
        return 1
    print(f"ok: {len(parsed.semirings)} semiring(s), {len(parsed.semimodules)} "
          f"semimodule(s), {len(parsed.lattices)} lattice(s), {len(parsed.maps)} map(s)")
    for s in parsed.semirings:
        print(f"  semiring order {s.order}: commutative={s.commutative} "
              f"zerosumfree={s.zerosumfree} cancellative={s.cancellative}")
    return 0


def cmd_analyze(args) -> int:
    limits = _parse_limits(args.limits)
    s = _first_semiring(args.file)
    m = s.left_module()
    subs = enumerate_subsemimodules(m, limits)
    subt = [t for t in subs if t.is_subtractive()]
    cons = enumerate_congruences(m, limits)
    simp = simplicity_profile(m, limits)
    ss = semisimplicity_profile(s, limits)
    cp = condition_profile(s, limits)
    poset = summand_poset(m, limits)
    print(f"semiring of order {s.order} (zero={s.zero}, one={s.one})")
    print(f"flags: commutative={s.commutative} zerosumfree={s.zerosumfree} "
          f"cancellative={s.cancellative}")
    print(f"left ideals: {len(subs)}{'' if subs.exhaustive else ' (truncated)'}")
    for t in subs:
        tag = " subtractive" if t.is_subtractive() else ""
        print(f"  {_fmt_mask(t.members)}{tag}")
    print(f"subtractive ideals: {len(subt)}{'' if subs.exhaustive else ' (truncated)'}")
    print(f"congruences: {len(cons)}{'' if cons.exhaustive else ' (truncated)'}")
    for rho in cons:
        print(f"  classes {list(rho.class_of)}")
    print(f"direct summands: {[ _fmt_mask(x) for x in poset.masks() ]}")
    print(f"ideal-simple: {simp.ideal_simple}  congruence-simple: {simp.congruence_simple}")
    print(f"ideal-semisimple: {ss.ideal_semisimple}  "
          f"congruence-semisimple: {ss.congruence_semisimple}")
    print(f"C1: {cp.c1}  C2: {cp.c2}  C2': {cp.c2prime}"
          f"{'' if cp.exhaustive else ' (truncated)'}")
    return 0


def cmd_decompose(args) -> int:
    limits = _parse_limits(args.limits)
    s = _first_semiring(args.file)
    dec = irreducible_decomposition(s, limits)
    print(f"irreducible summands: {len(dec.parts)}")
    for part, proj in zip(dec.parts, dec.projections):
        print(f"  part {_fmt_mask(part.members)} projection {list(proj.image_of)}")
    return 0


def cmd_audit(args) -> int:
    limits = _parse_limits(args.limits)
    report = audit_corpus(order_bound=args.order,
                          commutative_only=args.commutative,
                          include_fixtures=args.fixtures,
                          limits=limits,
                          parallelism=args.parallel)
    if args.format == "jsonl":
        out = report.to_jsonl()
    else:
        out = "\n".join(report.summary_lines()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 1 if report.hard_failures() else 0


def cmd_catalog(args) -> int:
    limits = _parse_limits(args.limits)
    if args.family == "bni":
        sys.stdout.write(emit_semiring(make_B(args.n, args.i)))
    elif args.family == "lattice":
        parsed = parse_text(_read_file(args.file))
        if not parsed.lattices:
            raise ParseError(f"{args.file} contains no lattice block")
        sys.stdout.write(emit_semiring(make_lattice_semiring(parsed.lattices[0])))
    elif args.family == "end":
        parsed = parse_text(_read_file(args.file))
        if not parsed.lattices:
            raise ParseError(f"{args.file} contains no lattice block")
        sys.stdout.write(emit_semiring(
            make_end_semiring(parsed.lattices[0],
                              top_preserving=args.top_preserving, limits=limits)))
    elif args.family == "matrix":
        s = _first_semiring(args.file)
        sys.stdout.write(emit_semiring(make_matrix_semiring(s, args.k, limits)))
    elif args.family == "product":
        factors = [_first_semiring(path) for path in args.files]
        sys.stdout.write(emit_semiring(make_product(factors)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsemi",
        description="decision procedures and audits for finite semirings")
    parser.add_argument("--limits", action="append", default=[],
                        help="search bounds as key=value pairs, comma separated")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate the blocks of a table file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="ideals, congruences, simplicity, conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="decompose into irreducible summands")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("audit", help="audit all small semirings and fixtures")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--fixtures", action="store_true")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("catalog", help="emit a named construction")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("bni")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q = fam.add_parser("lattice")
    q.add_argument("file")
    q = fam.add_parser("end")
    q.add_argument("file")
    q.add_argument("--top-preserving", action="store_true")
    q = fam.add_parser("matrix")
    q.add_argument("file")
    q.add_argument("--k", type=int, required=True)
    q = fam.add_parser("product")
    q.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_catalog)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AxiomViolations as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
