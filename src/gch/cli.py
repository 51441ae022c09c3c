"""Command-line interface.

Commands emit JSON lines on stdout, byte-for-byte deterministic for fixed
inputs.  Exit codes: 0 success, 1 failed verification, 2 usage error,
3 infeasible request (an enumeration that needs --max-edges to be finite).
An infeasible request is refused when its spec is made, before an
``--export`` target is opened, so it writes no file; so is a ``moduli``
genus below 2 (exit 2).  The target is opened
before any work, so an unusable one exits 2 with nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .context import canonical_entry
from .complexes import (
    KINDS,
    ComplexSpec,
    build_complex,
    degree_report,
    homology,
)
from .generate import EnumSpec, InfeasibleEnumeration, enumerate_graphs
from .io import DocumentError, graph_to_document, matrix_to_text, parse_graph_json
from .moduli import build_cell_poset, build_spine, f_vector, refuse_request
from .ribbon import surface_invariants
from .verify import run_suite


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _cmd_enumerate(args) -> int:
    spec = EnumSpec(
        genus=args.genus,
        min_valence=args.min_valence,
        allow_tadpoles=args.tadpoles,
        weighted=args.weighted,
        max_edges=args.max_edges,
        ribbon=args.ribbon,
        min_edges=1 if args.weighted else 0,
    )
    forms = enumerate_graphs(spec)
    for form in forms:
        doc = graph_to_document(form.graph, form.ribbon)
        doc["certificate"] = form.certificate
        _emit(doc)
    _emit({"count": len(forms), "genus": args.genus})
    return 0


def _spec_from_args(args) -> ComplexSpec:
    return ComplexSpec(
        kind=args.kind,
        parity=args.parity,
        genus=args.genus,
        max_edges=args.max_edges,
    )


def _open_export(target: str | None, name: str | None = None):
    """The export file, opened before any work, so that an unusable target
    exits 2 with nothing on stdout; a null context without a target.  With
    ``name`` the target is a directory, made if missing, and the file is
    ``name`` in it."""
    if not target:
        return contextlib.nullcontext()
    if name is not None:
        os.makedirs(target, exist_ok=True)
        target = os.path.join(target, name)
    return open(target, "w", encoding="utf-8")


def _cmd_complex(args) -> int:
    spec = _spec_from_args(args)
    with _open_export(args.export, "generators.jsonl") as generators:
        complex_ = build_complex(spec)
        for k in range(complex_.max_grade + 1):
            gens = complex_.grades.get(k, [])
            row = {"grade": k, "generators": len(gens)}
            m = complex_.boundary(k)
            row["boundary_entries"] = m.nnz
            _emit(row)
        _emit({
            "kind": spec.kind,
            "parity": spec.parity,
            "genus": spec.genus,
            "total_generators": complex_.total_generators(),
            "d_squared_zero": complex_.d_squared_is_zero(),
        })
        if generators:
            _export_complex(complex_, args.export, generators)
            _emit({"exported_to": args.export})
    return 0


def _export_complex(complex_, directory: str, generators):
    for k in sorted(complex_.grades):
        for idx, gen in enumerate(complex_.grades[k]):
            doc = graph_to_document(gen.graph, gen.ribbon)
            doc.update({"grade": k, "index": idx, "key": gen.key})
            if gen.subset is not None:
                doc["subset"] = list(gen.subset)
            if gen.surface is not None:
                doc["surface"] = list(gen.surface)
            generators.write(json.dumps(doc, sort_keys=True) + "\n")
    for k in range(1, complex_.max_grade + 1):
        m = complex_.boundary(k)
        path = os.path.join(directory, f"boundary_{k}.sms")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(matrix_to_text(m))


def _cmd_homology(args) -> int:
    spec = _spec_from_args(args)
    complex_ = build_complex(spec)
    report = homology(complex_)
    degrees = degree_report(report, args.N)
    for k in sorted(report.counts):
        row = {
            "grade": k,
            "generators": report.counts[k],
            "rank_boundary": report.ranks.get(k, 0),
            "dim_homology": report.dims[k],
        }
        row.update(degrees[k])
        _emit(row)
    _emit({
        "kind": spec.kind,
        "parity": spec.parity,
        "genus": spec.genus,
        "N": args.N,
        "euler_characteristic": report.euler_characteristic(),
        "total_dim_homology": sum(report.dims.values()),
    })
    return 0


def _cmd_moduli(args) -> int:
    # refused before the export target is opened, so it writes no file
    refuse_request(args.genus, args.spine)
    with _open_export(args.export) as fh:
        built = build_spine(args.genus) if args.spine else build_cell_poset(args.genus)
        row = {
            "genus": args.genus,
            "spine": args.spine,
            "max_dimension": built.max_dimension,
            "f_vector": list(f_vector(built)),
            "f_vector_odd_symmetry_free": list(f_vector(built, odd_symmetry_free=True)),
        }
        if args.spine:
            row.update(cubes=len(built.entries), facets_closed=built.facets_closed())
        else:
            row.update(cells=len(built.nodes), covers=len(built.covers),
                       positive_weight_cells=sum(n.weight_total >= 1 for n in built.nodes))
        _emit(row)
        if fh:
            (_export_spine if args.spine else _export_poset)(built, fh)
            _emit({"exported_to": args.export})
    return 0


def _export_poset(poset, fh):
    payload = {
        "genus": poset.genus,
        "nodes": [
            {
                "certificate": n.certificate,
                "dimension": n.dimension,
                "weight_total": n.weight_total,
                "odd_symmetric": n.odd_symmetric,
                "graph": graph_to_document(n.graph),
            }
            for n in poset.nodes
        ],
        "covers": sorted(list(c) for c in poset.covers),
    }
    json.dump(payload, fh, sort_keys=True, indent=1)
    fh.write("\n")


def _export_spine(spine, fh):
    payload = {
        "genus": spine.genus,
        "cubes": [
            {
                "key": e.key,
                "graph_certificate": e.graph_certificate,
                "subset": list(e.subset),
                "dimension": e.dimension,
                "aut_order": e.aut_order,
                "odd_symmetric": e.odd_symmetric,
                "collapse_facets": list(e.collapse_facets),
                "deletion_facets": list(e.deletion_facets),
            }
            for e in spine.entries
        ],
    }
    json.dump(payload, fh, sort_keys=True, indent=1)
    fh.write("\n")


def _cmd_surface(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    graph, ribbon = parse_graph_json(text)
    if ribbon is None:
        raise DocumentError("ribbon", "surface invariants need a ribbon structure")
    gs, b = surface_invariants(graph, ribbon)
    _emit({"genus": gs, "boundaries": b,
           "certificate": canonical_entry(graph, ribbon)[0].certificate})
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        _emit({"check": r.name, "passed": r.passed, "detail": r.detail})
        if not r.passed:
            failed += 1
    _emit({"suite": args.suite, "checks": len(results), "failed": failed})
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gch",
        description="Exact-arithmetic graph complex homology engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list isomorphism classes of generator graphs")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--min-valence", type=int, choices=(2, 3), default=3)
    p.add_argument("--tadpoles", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--ribbon", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    for name, fn in (("complex", _cmd_complex), ("homology", _cmd_homology)):
        p = sub.add_parser(name, help=f"build a complex and report {name} data")
        p.add_argument("--kind", choices=KINDS, required=True)
        p.add_argument("--parity", choices=("even", "odd"), required=True)
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--max-edges", type=int, default=None)
        if name == "complex":
            p.add_argument("--export", metavar="DIR", default=None)
        else:
            p.add_argument("--N", type=int, default=0)
        p.set_defaults(fn=fn)

    p = sub.add_parser("moduli", help="cell poset or spine summary")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--spine", action="store_true")
    p.add_argument("--export", metavar="FILE", default=None)
    p.set_defaults(fn=_cmd_moduli)

    p = sub.add_parser("surface", help="thickened-surface invariants of a ribbon graph")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_surface)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("core", "paper"), default="core")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleEnumeration as exc:
        print(f"infeasible request: {exc}", file=sys.stderr)
        return 3
    except DocumentError as exc:
        print(f"invalid document: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
