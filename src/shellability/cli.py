"""Command-line interface.

Four subcommands: ``check`` decides a property (or an obstruction/hereditary
variant) for a complex read from a facet-list file, ``enumerate`` writes an
obstruction catalog, ``atlas`` emits the full dimension <= 2 obstruction
atlas, and ``indcycle`` prints the independence complex of a cycle graph.

Exit codes for ``check``: 0 when the queried predicate holds, 1 when it does
not, 2 on usage or parse errors; ``indcycle`` exits 2 for a cycle length
outside 3..30.  All outputs are deterministic, and every search, the
seven-vertex core scan included, runs in this process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import catalog as catalog_mod
from .complexes import CapacityError, SimplicialComplex, face_vertices, format_complex, parse_complex
from .enumeration import MAX_OBSTRUCTION_VERTICES, EnumerationTask, enumerate_obstructions
from .graphs import cycle_graph, independence_complex
from .obstruction import is_hereditary, obstruction_report
from .properties import PropertyKind, decide
from .shelling import is_shellable

CHECK_SCHEMA = "shellability-check/1"

VARIANTS = ("plain", "hereditary", "obstruction", "strong-obstruction")


def _face_words(mask: int) -> str:
    return "{" + ",".join(map(str, face_vertices(mask))) + "}"


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _property(name: str) -> PropertyKind:
    try:
        return PropertyKind(name)
    except ValueError:
        raise ValueError(f"unknown property {name!r}") from None


def _certificate_lines(c: SimplicialComplex, prop: PropertyKind, decision) -> tuple[list[str], dict]:
    """The certificate or witness in the decider's answer, as lines and JSON fields."""
    lines: list[str] = []
    payload: dict = {}
    if prop is PropertyKind.SHELLABLE:
        if decision.certificate is not None:
            cert = decision.certificate
            payload["shelling_order"] = [list(face_vertices(f)) for f in cert.ordering]
            payload["restriction_sets"] = [list(face_vertices(r)) for r in cert.restriction_sets]
            lines.append("shelling order (facet | restriction set):")
            for f, r in zip(cert.ordering, cert.restriction_sets):
                lines.append(f"  {_face_words(f)} | {_face_words(r)}")
        else:
            lines.append("no shelling exists; see the obstruction/hereditary variants for witnesses")
    elif prop is PropertyKind.PARTITIONABLE:
        if decision.certificate is not None:
            payload["intervals"] = [
                {"facet": list(face_vertices(sigma)), "bottom": list(face_vertices(tau))}
                for sigma, tau in decision.certificate.assignment
            ]
            lines.append("interval partition (bottom -> facet):")
            for sigma, tau in decision.certificate.assignment:
                lines.append(f"  [{_face_words(tau)}, {_face_words(sigma)}]")
        else:
            lines.append("no interval partition exists")
    else:
        if decision.witness is not None:
            w = decision.witness
            payload["witness"] = {
                "skeleton_dim": w.skeleton_dim,
                "face": list(face_vertices(w.face)),
                "degree": w.degree,
                "homology": str(w.group),
            }
            lines.append(
                f"witness: pure {w.skeleton_dim}-skeleton, link of {_face_words(w.face)} "
                f"has reduced H_{w.degree} = {w.group}"
            )
        elif is_shellable(c).shellable:
            lines.append("sequentially Cohen-Macaulay; the complex is shellable, which implies it")
        else:
            lines.append("sequentially Cohen-Macaulay; every pure skeleton passes the homology checks")
    return lines, payload


def cmd_check(args: argparse.Namespace) -> int:
    prop = _property(args.property)
    path = Path(args.path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        c = parse_complex(text)
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2

    names = {
        PropertyKind.SHELLABLE: ("shellable", "nonshellable"),
        PropertyKind.PARTITIONABLE: ("partitionable", "not partitionable"),
        PropertyKind.SEQUENTIALLY_CM: ("sequentially Cohen-Macaulay", "not sequentially Cohen-Macaulay"),
    }
    lines: list[str] = []
    payload = {
        "schema": CHECK_SCHEMA,
        "input": str(path),
        "n_vertices": c.n_vertices,
        "dim": c.dim,
        "property": prop.value,
        "variant": args.variant,
    }

    if args.variant == "plain" or args.certificate:
        verdict, decision = decide(c, prop)
    if args.variant == "plain":
        holds = verdict
        lines.append(names[prop][0] if holds else names[prop][1])
    elif args.variant == "hereditary":
        holds, failing = is_hereditary(c, prop)
        if holds:
            lines.append(f"hereditarily {names[prop][0]}")
        else:
            where = "the complex itself" if failing == c.vertices else _face_words(failing)
            lines.append(f"not hereditary: restriction to {where} fails")
            payload["failing_restriction"] = list(face_vertices(failing))
    else:
        report = obstruction_report(c, prop)
        if args.variant == "obstruction":
            holds = report.is_obstruction
        else:
            holds = report.is_strong
        kind = "strong obstruction" if args.variant == "strong-obstruction" else "obstruction"
        lines.append(f"{'is' if holds else 'is not'} a {kind} to {prop.value}")
        if report.failing_restriction is not None:
            lines.append(f"  restriction to {_face_words(report.failing_restriction)} also fails")
            payload["failing_restriction"] = list(face_vertices(report.failing_restriction))
        if report.failing_link is not None:
            lines.append(f"  link of {_face_words(report.failing_link)} fails the property")
            payload["failing_link"] = list(face_vertices(report.failing_link))

    payload["verdict"] = holds
    if args.certificate:
        cert_lines, cert_payload = _certificate_lines(c, prop, decision)
        lines.extend(cert_lines)
        payload.update(cert_payload)
    _emit(payload, args.as_json, lines)
    return 0 if holds else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.edge_minimal and args.strong:
        raise ValueError("--edge-minimal and --strong are exclusive")
    mode = "obstructions"
    if args.edge_minimal:
        mode = "edge_minimal_obstructions"
    elif args.strong:
        mode = "strong_obstructions"
    task = EnumerationTask(args.dim, _property(args.property), mode, args.max_vertices)
    compare = [_property(name) for name in args.compare]
    found = enumerate_obstructions(task)
    entries = catalog_mod.build_entries(found)
    doc = catalog_mod.catalog_document(
        entries,
        kind="obstruction-catalog",
        dimension=task.dimension,
        property=task.property.value,
        mode=task.mode,
        max_vertices=task.resolved_max_vertices(),
    )
    text = catalog_mod.catalog_json(doc)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(entries)} classes to {args.output}")
    else:
        sys.stdout.write(text)
    if args.summary:
        for line in catalog_mod.summary_lines(entries):
            print(line)
    classes = {c.canonical_form() for c in found}
    for other in compare:
        other_task = EnumerationTask(task.dimension, other, task.mode, task.max_vertices)
        others = enumerate_obstructions(other_task)
        same = classes == {c.canonical_form() for c in others}
        tag = f"obstructions({task.property.value}) vs obstructions({other.value})"
        print(f"{tag}: {'IDENTICAL' if same else 'DIFFERENT'}")
        if not same:
            return 1
    return 0


def cmd_atlas(args: argparse.Namespace) -> int:
    try:
        paths = catalog_mod.write_atlas(args.out_dir, args.max_vertices)
    except CapacityError as exc:
        raise ValueError(f"--max-vertices must be 1..{MAX_OBSTRUCTION_VERTICES}") from exc
    print(f"wrote {len(paths)} files under {args.out_dir}")
    return 0


# Building Ind(C_n) absorbs its maximal independent sets pairwise, which is
# quadratic in their number: 0.9 s at n = 30, 11 s at n = 34.
MAX_INDCYCLE = 30


def cmd_indcycle(args: argparse.Namespace) -> int:
    n = args.n
    if not 3 <= n <= MAX_INDCYCLE:
        raise ValueError(f"indcycle n must be 3..{MAX_INDCYCLE}")
    c = independence_complex(cycle_graph(n))
    text = format_complex(c)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote independence complex of the {n}-cycle to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shellability",
        description="Exact shellability, partitionability and sequential "
                    "Cohen-Macaulayness checks with obstruction catalogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide a property for a facet-list file")
    p_check.set_defaults(run=cmd_check)
    p_check.add_argument("path")
    p_check.add_argument("--property", required=True,
                         help="shellable | partitionable | scm")
    p_check.add_argument("--variant", default="plain", choices=VARIANTS)
    p_check.add_argument("--json", action="store_true", dest="as_json")
    p_check.add_argument("--certificate", action="store_true")

    p_enum = sub.add_parser("enumerate", help="enumerate obstruction classes")
    p_enum.set_defaults(run=cmd_enumerate)
    p_enum.add_argument("--dim", type=int, required=True, choices=(0, 1, 2))
    p_enum.add_argument("--property", default="shellable")
    p_enum.add_argument("--max-vertices", type=int, default=None)
    p_enum.add_argument("--edge-minimal", action="store_true")
    p_enum.add_argument("--strong", action="store_true")
    p_enum.add_argument("--output", default=None)
    p_enum.add_argument("--summary", action="store_true")
    p_enum.add_argument("--compare", action="append", default=[],
                        help="second property; verifies the obstruction sets coincide")

    p_atlas = sub.add_parser("atlas", help="write the full dimension <= 2 obstruction atlas")
    p_atlas.set_defaults(run=cmd_atlas)
    p_atlas.add_argument("out_dir")
    p_atlas.add_argument("--max-vertices", type=int, default=7)

    p_ind = sub.add_parser("indcycle", help="print the independence complex of an n-cycle")
    p_ind.set_defaults(run=cmd_indcycle)
    p_ind.add_argument("n", type=int)
    p_ind.add_argument("--output", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
