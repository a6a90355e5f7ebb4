"""Command-line interface: build rings from a declarative config or from
catalog shorthand, print presentations, bases, series and normal forms,
and run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from dataclasses import dataclass

from . import catalog, extension, verify
from .algebra import (
    GeneratorSymbol,
    Generators,
    GradedElement,
    QuotientRing,
    RingPresentation,
    make_presentation,
)
from .series import series_from_ring
from .catalog import BasisFamily, SpaceDescriptor
from .expressions import one_budget

LARGE_OUTPUT_CAP = 64
# The largest cutoff a job may ask for, with or without --force-large. A
# series to cutoff 10^6 of the point takes about a second and 100 MB; every
# degree up to the cutoff is visited, so 10^8 would need about 9 GB.
MAX_CUTOFF = 1_000_000


class ConfigError(ValueError):
    """Schema violation in a job config, with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


@dataclass
class BuiltJob:
    ring: QuotientRing
    family: BasisFamily | None = None
    kind: str = ""  # the config's top-level key, set by build_job


def _is_int(value) -> bool:
    """An integer but not a bool, since JSON `true` and `false` are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


# The fields each config object reads; any other key is refused.
FIELDS = {
    "space": ("family", "k", "n", "variant"),
    "presentation": ("generators", "relations", "label"),
    "bundle": ("base", "kind", "rank", "total_class", "euler_class", "extension", "suffix", "k", "full"),
    "tower": ("base", "stages"),
    "pushout": ("b0", "b1", "e0", "map_b1", "map_e0"),
}
STAGE_FIELDS = ("extension", "kind", "rank", "total_class", "euler_class", "k")


def _check_fields(doc: dict, path: str, known) -> None:
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _field(doc: dict, path: str, key: str, kind, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = doc[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_elements(gens: Generators, value, path: str) -> list[GradedElement]:
    """An element is a string, or a list of component strings."""
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(path, "expected an expression string or a list of them")
    out = []
    for i, text in enumerate(value):
        try:
            out.append(gens.parse(text))
        except ValueError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc)) from exc
    return out


def _sum_elements(gens, value, path) -> GradedElement:
    return gens._sum(_parse_elements(gens, value, path))


def build_job(doc: dict, path: str = "config", cutoff: int | None = None) -> BuiltJob:
    """Build a ring (plus basis family when known) from a config document:
    one of space | presentation | bundle | tower | pushout.
    A library ValueError becomes a ConfigError at the sub-document's path.
    The expressions of the whole job, nested bases included, share one
    count against expressions.MAX_TERM_PRODUCTS."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object")
    _check_fields(doc, path, ("cutoff", *FIELDS))
    kinds = [k for k in FIELDS if k in doc]
    if len(kinds) != 1:
        raise ConfigError(path, "need exactly one of space/presentation/bundle/tower/pushout")
    cutoff = doc.get("cutoff", cutoff)
    if cutoff is not None and (not _is_int(cutoff) or cutoff < 0):
        raise ConfigError(f"{path}.cutoff", "must be a nonnegative integer")
    if cutoff is not None and cutoff > MAX_CUTOFF:
        raise ConfigError(f"{path}.cutoff", f"{cutoff} exceeds the limit {MAX_CUTOFF}")
    kind = kinds[0]
    sub = doc[kind]
    path = f"{path}.{kind}"
    if not isinstance(sub, dict):
        raise ConfigError(path, "expected an object")
    _check_fields(sub, path, FIELDS[kind])

    try:
        with one_budget():
            if kind == "space":
                job = _build_space_job(sub, path, cutoff)
            elif kind == "presentation":
                pres = parse_presentation(sub, path)
                if cutoff is None:
                    raise ConfigError(path, "inline presentations need an explicit cutoff")
                job = BuiltJob(QuotientRing(pres, cutoff))
            elif kind == "bundle":
                job = _build_bundle_job(sub, path, cutoff)
            elif kind == "tower":
                job = _build_tower_job(sub, path, cutoff)
            else:
                job = _build_pushout_job(sub, path, cutoff)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    job.kind = kind
    return job


def _build_space_job(sub, path, cutoff) -> BuiltJob:
    family = _field(sub, path, "family", str)
    k = _field(sub, path, "k", int, required=False, default=0)
    n = _field(sub, path, "n", int, required=False, default=0)
    variant = _field(sub, path, "variant", str, required=False, default="")
    desc = SpaceDescriptor(family, k, n, variant)
    pres, _, basis_family = catalog.build_space(desc)
    ring = QuotientRing(pres, catalog.default_cutoff(pres) if cutoff is None else cutoff)
    return BuiltJob(ring, basis_family)


def parse_presentation(sub, path) -> RingPresentation:
    gen_docs = _field(sub, path, "generators", list)
    symbols = []
    for i, g in enumerate(gen_docs):
        if not (isinstance(g, list) and len(g) == 2 and isinstance(g[0], str) and _is_int(g[1])):
            raise ConfigError(f"{path}.generators[{i}]", "expected [name, degree]")
        symbols.append(GeneratorSymbol(g[0], g[1]))
    gens = Generators(symbols)
    relations = []
    for i, rel in enumerate(_field(sub, path, "relations", list, required=False, default=[])):
        relations.extend(_parse_elements(gens, rel, f"{path}.relations[{i}]"))
    return make_presentation(gens, relations, _field(sub, path, "label", str, required=False, default=""))


def _build_bundle_job(sub, path, cutoff) -> BuiltJob:
    base = build_job(_field(sub, path, "base", dict), f"{path}.base").ring
    kind = _field(sub, path, "kind", str)
    rank = _field(sub, path, "rank", int)
    total = _sum_elements(base.gens, _field(sub, path, "total_class", None), f"{path}.total_class")
    euler = None
    if sub.get("euler_class") is not None:
        euler = _sum_elements(base.gens, sub["euler_class"], f"{path}.euler_class")
    bundle = extension.BundleData(base, kind, rank, total, euler)
    ext = _field(sub, path, "extension", str)
    suffix = _field(sub, path, "suffix", str, required=False, default="")
    if ext not in extension.BUNDLE_EXTENSIONS:
        raise ConfigError(f"{path}.extension", f"unknown extension {ext!r}")
    k = _read_if(ext in ("grassmannian", "odd-grassmannian"), sub, path, ext, "k", int)
    full = _read_if(ext == "flag", sub, path, ext, "full", bool, required=False, default=False)
    return BuiltJob(extension.extend(bundle, ext, k, suffix, full, cutoff))


def _read_if(reads: bool, sub, path, ext, key, kind, **options):
    """The field if the extension reads it. If it does not, the field must
    be absent, and the result is the default."""
    if reads:
        return _field(sub, path, key, kind, **options)
    if key in sub:
        raise ConfigError(f"{path}.{key}", f"the {ext} extension takes no {key}")
    return options.get("default")


def _build_tower_job(sub, path, cutoff) -> BuiltJob:
    stage_docs = _field(sub, path, "stages", list)
    ring = build_job(sub["base"], f"{path}.base").ring if "base" in sub else extension.point_ring()
    for i, s in enumerate(stage_docs):
        spath = f"{path}.stages[{i}]"
        if not isinstance(s, dict):
            raise ConfigError(spath, "expected an object")
        _check_fields(s, spath, STAGE_FIELDS)
        ext = _field(s, spath, "extension", str)
        # an unknown extension is left to bott_tower, which refuses it by name
        reads_k = ext == "grassmannianize" or ext not in extension.TOWER_EXTENSIONS
        stage = extension.TowerStage(
            extension=ext,
            kind=_field(s, spath, "kind", str, required=False, default="complex"),
            rank=_field(s, spath, "rank", int),
            total_class=_sum_elements(ring.gens, s.get("total_class", "1"), f"{spath}.total_class"),
            euler_class=None
            if s.get("euler_class") is None
            else _sum_elements(ring.gens, s["euler_class"], f"{spath}.euler_class"),
            k=_read_if(reads_k, s, spath, ext, "k", int, required=False),
        )
        ring = extension.bott_tower([stage], base=ring, start_index=i + 1)
    if cutoff is not None:
        ring = QuotientRing(ring.presentation, cutoff)
    return BuiltJob(ring)


def _build_pushout_job(sub, path, cutoff) -> BuiltJob:
    b0 = build_job(_field(sub, path, "b0", dict), f"{path}.b0").ring
    b1 = build_job(_field(sub, path, "b1", dict), f"{path}.b1").ring
    e0 = build_job(_field(sub, path, "e0", dict), f"{path}.e0").ring
    map_b1 = _field(sub, path, "map_b1", dict, required=False, default={})
    map_e0 = _field(sub, path, "map_e0", dict, required=False, default={})
    for key, images in (("map_b1", map_b1), ("map_e0", map_e0)):
        for name, value in images.items():
            if not (isinstance(value, str) or _is_int(value)):
                raise ConfigError(f"{path}.{key}.{name}", "expected an expression string or an integer")
    return BuiltJob(extension.ring_pushout(b0, b1, e0, map_b1, map_e0, cutoff=cutoff))


# -- rendering ----------------------------------------------------------------


def element_doc(el: GradedElement) -> list:
    terms = el.terms
    return [[list(exps), terms[exps].numerator, terms[exps].denominator] for exps in el._sorted_exps()]


def presentation_doc(pres: RingPresentation) -> dict:
    return {
        "label": pres.label,
        "generators": [[s.name, s.degree] for s in pres.generators],
        "relations": [element_doc(r) for r in pres.relations],
    }


def render_presentation(pres: RingPresentation, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(presentation_doc(pres), indent=2)
    lines = [f"ring {pres.label or '(unlabelled)'}"]
    gens = ", ".join(f"{s.name}({s.degree})" for s in pres.generators) or "(none)"
    lines.append(f"generators: {gens}")
    if pres.relations:
        lines.append("relations:")
        lines.extend(f"  {r}" for r in pres.relations)
    else:
        lines.append("relations: (none)")
    return "\n".join(lines)


# -- subcommands ---------------------------------------------------------------


def _job_from_args(args, parser) -> BuiltJob:
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
            # each nested base, b0, b1 or e0 is built by a recursive call
            return build_job(doc, cutoff=args.cutoff)
        except OSError as exc:
            raise ConfigError(args.config, str(exc))
        except json.JSONDecodeError as exc:
            raise ConfigError(args.config, f"invalid JSON: line {exc.lineno} col {exc.colno}")
        except RecursionError:
            raise ConfigError(args.config, "nested too deeply") from None
    if args.family:
        doc = {"space": {"family": args.family, "k": args.k, "n": args.n, "variant": args.variant}}
        return build_job(doc, cutoff=args.cutoff)
    parser.error("give a catalog FAMILY or --config PATH")


def cmd_present(args, parser) -> int:
    job = _job_from_args(args, parser)
    print(render_presentation(job.ring.presentation, args.format))
    return 0


def cmd_series(args, parser) -> int:
    job = _job_from_args(args, parser)
    n = args.cutoff if args.cutoff is not None else job.ring.cutoff
    if n > LARGE_OUTPUT_CAP and not args.force_large:
        raise ConfigError("cutoff", f"{n} exceeds the cap {LARGE_OUTPUT_CAP}; pass --force-large")
    ts = series_from_ring(job.ring, min(n, job.ring.cutoff))
    closed_form = job.ring.presentation.closed_form
    if args.format == "structured":
        doc = {
            "label": job.ring.label,
            "cutoff": ts.cutoff,
            "coefficients": list(ts.coefficients),
            "closed_form": None
            if closed_form is None
            else [
                {"coeff": t.coeff, "shift": t.shift, "num": list(t.num), "den": list(t.den)}
                for t in closed_form.terms
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"poincare series of {job.ring.label or 'ring'} up to degree {ts.cutoff}:")
        print("  " + str(ts))
        if closed_form is not None:
            print(f"closed form: {closed_form}")
    return 0


def cmd_basis(args, parser) -> int:
    d = args.degree
    if d < 0:
        raise ConfigError("--degree", "must be a nonnegative integer")
    job = _job_from_args(args, parser)
    if d > LARGE_OUTPUT_CAP and not args.force_large:
        raise ConfigError("degree", f"{d} exceeds the cap {LARGE_OUTPUT_CAP}; pass --force-large")
    basis = job.ring.degree_basis(d)
    family = job.family.monomials_of_degree(d) if job.family is not None else None
    if args.format == "structured":
        doc = {
            "label": job.ring.label,
            "degree": d,
            "basis": [{"exponents": list(m.exps), "text": str(m)} for m in basis],
            "family": None if family is None else [{"exponents": list(m.exps), "text": str(m)} for m in family],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"degree-{d} basis of {job.ring.label or 'ring'} ({len(basis)} monomials):")
        for m in basis:
            mark = ""
            if job.family is not None:
                mark = "  [family]" if job.family.contains(m.exps) else ""
            print(f"  {m}{mark}")
        if family is not None:
            print(f"characteristic family in degree {d}: {', '.join(str(m) for m in family) or '(empty)'}")
    return 0


def cmd_mul(args, parser) -> int:
    job = _job_from_args(args, parser)
    try:
        a = job.ring.gens.parse(args.a)
        b = job.ring.gens.parse(args.b)
    except ValueError as exc:
        raise ConfigError("element", str(exc)) from exc
    nf = job.ring.multiply(a, b)
    if args.format == "structured":
        print(
            json.dumps(
                {"label": job.ring.label, "a": args.a, "b": args.b, "normal_form": element_doc(nf)},
                indent=2,
            )
        )
    else:
        print(f"({args.a}) * ({args.b}) = {nf}")
    return 0


def cmd_verify(args, parser) -> int:
    suites = args.suites or list(verify.SUITES)
    for s in suites:
        if s not in verify.SUITES:
            raise ConfigError("suite", f"unknown suite {s!r}; known: {', '.join(verify.SUITES)}")
    if args.max_n < 0:
        raise ConfigError("--max-n", "must be a nonnegative integer")
    if args.max_n > verify.MAX_N:
        raise ConfigError("--max-n", f"must be at most {verify.MAX_N}, the largest that completes")
    checks = verify.run_suites(suites, max_n=args.max_n)
    for check in checks:
        print(check.line())
    failed = sum(not check.ok for check in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_tower(args, parser) -> int:
    return _present_kind(args, parser, "tower")


def cmd_pushout(args, parser) -> int:
    return _present_kind(args, parser, "pushout")


def _present_kind(args, parser, kind: str) -> int:
    job = _job_from_args(args, parser)
    if job.kind != kind:
        raise ConfigError("config", f"the {kind} command needs a config with a '{kind}' entry")
    print(render_presentation(job.ring.presentation, args.format))
    return 0


def _target_parser(formatter) -> argparse.ArgumentParser:
    """The arguments the ring commands share, for their `parents=`."""
    target = argparse.ArgumentParser(add_help=False, formatter_class=formatter)
    target.add_argument("family", nargs="?", help="catalog space family")
    target.add_argument("-k", type=int, default=0)
    target.add_argument("-n", type=int, default=0)
    target.add_argument("--variant", default="")
    target.add_argument("--config", help="path to a JSON job config")
    target.add_argument("--cutoff", type=int, default=None)
    target.add_argument("--format", choices=("text", "structured"), default="text")
    target.add_argument("--force-large", action="store_true")
    return target


def build_parser() -> argparse.ArgumentParser:
    # argparse starts a help formatter for each argument it adds, and each
    # reads the terminal size unless given a width: one read serves them all
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="flagcohom",
        description="presentations, bases and Poincare series of flag-bundle cohomology rings",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    target = _target_parser(formatter)

    # each command's arguments after the shared ones, as (name, options)
    commands = {
        "present": (cmd_present, "print a ring presentation", ()),
        "series": (cmd_series, "print Poincare series coefficients", ()),
        "basis": (cmd_basis, "print an additive basis in one degree", (("--degree", {"type": int, "required": True}),)),
        "mul": (cmd_mul, "multiply two elements and print the normal form", (("a", {}), ("b", {}))),
        "tower": (cmd_tower, "build a tower config and print its presentation", ()),
        "pushout": (cmd_pushout, "build a pushout config and print its presentation", ()),
    }
    for name, (func, help_text, extra) in commands.items():
        sp = sub.add_parser(name, help=help_text, parents=[target], formatter_class=formatter)
        for arg, options in extra:
            sp.add_argument(arg, **options)
        sp.set_defaults(func=func)

    vp = sub.add_parser("verify", help="run verification suites", formatter_class=formatter)
    vp.add_argument("suites", nargs="*", help=" | ".join(verify.SUITES) + " (default: all)")
    vp.add_argument(
        "--max-n",
        type=int,
        default=4,
        help="largest n in the catalog and odd-identity suites, which stops at 3 "
        "(default: 4); the extensions and equivariant suites do not read it. 5 is the largest "
        "that completes, and larger values are refused: at 6, Fl~(R^12) has a degree with more "
        "monomials than the limit",
    )
    vp.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
