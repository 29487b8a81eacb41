"""Batch front door: parse category files, run computations, emit reports.

Every command prints one JSON report to stdout with canonical key order, so
identical inputs produce identical bytes; wall-clock timing goes to stderr.
Reports are written by ``specfile.to_json`` and spec files by
``specfile.dump_category``; reports match
``json.dumps(report, indent=2, sort_keys=True)`` byte for byte.
Exit codes: 0 for success or a positive verdict, 1 for mathematical failures
(axiom violations, INCONCLUSIVE verdicts), 2 for input errors (unreadable or
malformed files, undeclared names, size caps).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from .algebra import decompose, idempotent_classes, morita_check
from .bernoulli import build_bernoulli
from .completion import (
    cauchy_completion,
    completion_inclusion,
    completion_size,
    enlargement_check,
    equivalence_check,
    restriction_groupoid,
)
from .core import (
    FiniteCategory,
    Functor,
    InverseCategory,
    certified_inverse_structure,
    inclusion_functor,
    validate_category,
)
from .errors import (
    NotInverseCategory,
    ParseError,
    ToolkitError,
    UndeclaredName,
)
from .expansion import inner_expansion, szendrei
from .limits import check_cap, max_elements_from_env
from .specfile import _load_json, load_category, save_category, to_json

_INPUT_ERROR_CODES = {
    "PARSE_ERROR",
    "UNDECLARED_NAME",
    "SIZE_CAP_EXCEEDED",
    "NOT_A_SUBCATEGORY",
    "NOT_A_FUNCTOR",
    "IO_ERROR",
}


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load_inverse(path: str) -> tuple[InverseCategory, list[str]]:
    """Load and validate; certify a declared inverse map, or search for
    one when there is none or it fails; violations become messages."""
    cat, declared = load_category(path)
    report = validate_category(cat)
    if not report.ok:
        raise NotInverseCategory(
            f"{path} does not describe a valid category",
            violations=[str(v) for v in report.violations],
        )
    ic = certified_inverse_structure(cat, declared)
    return ic, _declaration_notes(ic, declared)


def _declaration_notes(ic: InverseCategory, declared: dict[str, str] | None) -> list[str]:
    """The note for a declared inverse map that differs from the computed one."""
    if declared is not None and declared != ic.inverse:
        return ["inverse-declaration: declared inverse map differs from the computed one"]
    return []


def _emit(report: dict, started: float) -> None:
    print(to_json(report))
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.path: _sha256(args.path)}
    cat, declared = load_category(args.path)
    report = validate_category(cat)
    result: dict = {
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "valid": False,
    }
    violations = [str(v) for v in report.violations]
    if report.ok:
        try:
            ic = certified_inverse_structure(cat, declared)
        except NotInverseCategory as exc:
            violations.append(str(exc))
        else:
            notes = _declaration_notes(ic, declared)
            result["valid"] = not notes
            result["idempotents"] = sorted(ic.idempotents())
            result["inverse"] = {m: ic.inv(m) for m in sorted(cat.morphisms)}
            violations += notes
    return inputs, result, violations, 0 if result["valid"] else 1


def cmd_bernoulli(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.path: _sha256(args.path)}
    ic, notes = _load_inverse(args.path)
    bp = build_bernoulli(ic, pointed=args.circ, max_elements=args.max_elements)
    elements = [
        {
            "key": key,
            "object": elt.obj,
            "idempotent": elt.idem,
            "members": sorted(elt.members),
        }
        for key, elt in sorted(bp.elements.items())
    ]
    order = sorted([a, b] for (a, b) in bp.poset.relation if a != b)
    variants = ("partial", "strict_partial") if args.circ else ("global", "strict_global")
    domains = {
        variant: {s: sorted(bp.domain(s, strict)) for s in ic.morphisms}
        for variant, strict in zip(variants, (False, True))
    }
    result = {
        "pointed": args.circ,
        "count": len(bp.elements),
        "elements": elements,
        "order": order,
        "domains": domains,
    }
    return inputs, result, notes, 0


def cmd_expand(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.path: _sha256(args.path)}
    ic, notes = _load_inverse(args.path)
    variant = args.variant.replace("-", "_")
    sz = szendrei(ic, variant, max_elements=args.max_elements)
    result: dict = {
        "variant": args.variant,
        "count": len(sz.ic.morphisms),
        "arrows": sorted(sz.ic.morphisms),
        "idempotents": sz.ic.idempotents(),
    }
    if args.inner is not None:
        if args.inner not in ic.objects:
            raise UndeclaredName(
                f"--inner object {args.inner!r} is not an object of the category",
                name=args.inner,
            )
        ie = inner_expansion(sz, args.inner, max_elements=args.max_elements)
        result["inner"] = {
            "object": ie.obj,
            "elements": sorted(ie.elements),
            "identity": ie.identity,
            "table": sorted([a, b, c] for (a, b), c in ie.table.items()),
        }
    if args.emit_spec is not None:
        save_category(args.emit_spec, sz.ic.cat, sz.ic.inverse)
        result["emitted"] = {"path": args.emit_spec, "sha256": _sha256(args.emit_spec)}
    return inputs, result, notes, 0


def cmd_cauchy(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.path: _sha256(args.path)}
    ic, notes = _load_inverse(args.path)
    cc = cauchy_completion(ic, max_elements=args.max_elements)
    groupoid = restriction_groupoid(ic)
    classes = idempotent_classes(ic)
    result = {
        "objects": sorted(cc.ic.objects),
        "morphisms": len(cc.ic.morphisms),
        "morphism_names": sorted(cc.ic.morphisms),
        "groupoid_morphisms": len(groupoid.morphisms),
        "classes": [
            {
                "representative": c.representative,
                "multiplicity": c.multiplicity,
                "group_order": len(c.group.elements),
            }
            for c in classes
        ],
    }
    return inputs, result, notes, 0


def _load_embedding(path: str, sub: FiniteCategory, sup: FiniteCategory) -> Functor:
    with open(path, "r", encoding="utf-8") as handle:
        data = _load_json(handle.read(), path)
    if not isinstance(data, dict) or set(data) != {"objects", "morphisms"} or not all(
        isinstance(m, dict) and all(isinstance(v, str) for v in m.values()) for m in data.values()
    ):
        raise ParseError(
            f"embedding file {path} must contain exactly 'objects' and 'morphisms' maps of names"
        )
    return Functor(sub, sup, data["objects"], data["morphisms"])


def cmd_enlargement(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.sub: _sha256(args.sub), args.sup: _sha256(args.sup)}
    if args.embedding is not None:
        inputs[args.embedding] = _sha256(args.embedding)
    sub, notes1 = _load_inverse(args.sub)
    sup, notes2 = _load_inverse(args.sup)
    if args.embedding is not None:
        emb = _load_embedding(args.embedding, sub.cat, sup.cat)
    else:
        emb = inclusion_functor(sub.cat, sup.cat)
    larger = max(completion_size(sub), completion_size(sup))
    check_cap("Cauchy completion", larger, args.max_elements)
    report = enlargement_check(sub, sup, emb)
    result: dict = {
        "axioms": {
            "axiom1": report.axiom1,
            "axiom2": report.axiom2,
            "axiom3": report.axiom3,
        },
        "overall": report.overall,
        "witnesses": {k: list(v) for k, v in sorted(report.witnesses.items())},
    }
    code = 1
    if report.overall:
        _, _, inclusion = completion_inclusion(sub, sup, emb)
        eq = equivalence_check(inclusion)
        result["equivalence"] = {
            "faithful": eq.faithful,
            "full": eq.full,
            "essentially_surjective": eq.essentially_surjective,
            "overall": eq.overall,
        }
        code = 0 if eq.overall else 1
    return inputs, result, notes1 + notes2, code


def cmd_decompose(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.path: _sha256(args.path)}
    ic, notes = _load_inverse(args.path)
    check_cap("category algebra", len(ic.morphisms), args.max_elements)
    dec = decompose(ic)
    result = {
        "blocks": [
            {
                "representative": c.representative,
                "multiplicity": c.multiplicity,
                "group_order": len(c.group.elements),
                "group_elements": list(c.group.elements),
            }
            for c in dec.blocks
        ],
        "dimension": dec.dimension,
        "morphisms": len(ic.morphisms),
        "identity_holds": dec.dimension == len(ic.morphisms),
    }
    return inputs, result, notes, 0


def cmd_morita(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    inputs = {args.a: _sha256(args.a), args.b: _sha256(args.b)}
    left, notes1 = _load_inverse(args.a)
    right, notes2 = _load_inverse(args.b)
    for ic in (left, right):
        check_cap("category algebra", len(ic.morphisms), args.max_elements)
    verdict = morita_check(left, right)
    result = {
        "status": verdict.status,
        "evidence": {k: [list(x) if isinstance(x, tuple) else x for x in v]
                     for k, v in sorted(verdict.evidence.items())},
    }
    return inputs, result, notes1 + notes2, 0 if verdict.certified else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: each ``parse_args`` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="invcat",
        description="Computations on finite inverse categories described by JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-elements",
            type=int,
            help="size cap for derived structures (env INVCAT_MAX_ELEMENTS)",
        )

    p = sub.add_parser("validate", help="check the category axioms and inverse structure")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bernoulli", help="subsets-of-R-classes poset and action domains")
    p.add_argument("path")
    p.add_argument(
        "--circ",
        action="store_true",
        help="restrict to subsets containing their own idempotent",
    )
    common(p)
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("expand", help="build an expansion over the subset poset")
    p.add_argument("path")
    p.add_argument(
        "--variant",
        choices=("global", "partial", "strict-global", "strict-partial"),
        default="global",
    )
    p.add_argument("--inner", metavar="OBJECT", help="also list the inner expansion at OBJECT")
    p.add_argument("--emit-spec", metavar="OUT", help="write the expansion as a category file")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("cauchy", help="idempotent splitting, groupoid, idempotent classes")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("enlargement", help="check the enlargement axioms for a subcategory")
    p.add_argument("sub")
    p.add_argument("sup")
    p.add_argument("--embedding", metavar="FILE", help="JSON with 'objects' and 'morphisms' maps")
    common(p)
    p.set_defaults(func=cmd_enlargement)

    p = sub.add_parser("decompose", help="matrix-over-group block decomposition")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("morita", help="compare block decompositions of two categories")
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(func=cmd_morita)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = _build_parser().parse_args(argv)
    try:
        if args.max_elements is None:
            args.max_elements = max_elements_from_env()
        inputs, result, violations, code = args.func(args)
    except OSError as exc:
        _emit(
            {
                "command": args.command,
                "error": {"code": "IO_ERROR", "message": str(exc)},
            },
            started,
        )
        return 2
    except ToolkitError as exc:
        _emit(
            {
                "command": args.command,
                "error": {
                    "code": exc.code,
                    "message": exc.message,
                    "details": {k: v for k, v in sorted(exc.details.items())},
                },
            },
            started,
        )
        return 2 if exc.code in _INPUT_ERROR_CODES else 1
    _emit(
        {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "violations": violations,
        },
        started,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
