"""Command-line front end.

Exit codes: 0 success or orientation found, 1 a definite negative (proven
none / invalid / class fails), 2 engine refusal (DP state budget, cut
search budget, recursion limit), 3 input error, naming its file.  Results
go to stdout or ``-o``; diagnostics to stderr.  Each handler takes the
parsed arguments, so every default lives in the parser.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .cuts import CutBudgetError, check_class, classify_cut, enumerate_robust_cuts
from .embedding import (
    EmbeddedGraph,
    EmbeddingError,
    OperationError,
    face_of_anchor,
    trace_faces,
)
from .families import (
    FamilyError,
    _check_random_pt_args,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from .orient import (
    OracleBoundError,
    OrientationError,
    _check_prescription,
    is_valid_orientation,
    oracle_solve,
    orientation_from_tails,
    random_prescription,
)
from .pgr import (
    PgrError,
    parse_graph,
    parse_orientation,
    parse_prescription,
    serialize_graph,
    serialize_orientation,
)
from .solver import SolverRefusal, serialize_trace, solve


class CliInputError(Exception):
    pass


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str, parse):
    """``parse`` applied to the text of the file ``path`` (a byte-order mark
    is skipped); an error reading or parsing it names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"cannot read {path}: not UTF-8 text") from exc
    except PgrError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _resolve_prescription(
    g: EmbeddedGraph, embedded: dict[int, int] | None, args: argparse.Namespace
) -> dict[int, int]:
    """The prescription to use, with one residue in {-1, 0, 1} per vertex;
    its total may still miss 0 mod 3, which no orientation can meet."""
    if args.prescription is None:
        if embedded is None:
            raise CliInputError(
                "graph file carries no prescription; pass --p random or --p <file>"
            )
        p = embedded
    elif args.prescription == "random":
        return random_prescription(g, args.seed)
    else:
        p = _read(args.prescription, parse_prescription)
    _check_prescription(g, p)
    return p


# ------------------------------------------------------------- handlers


def _cmd_gen(args: argparse.Namespace) -> int:
    fam, param = args.family, args.parameter
    if fam == "b":
        text = serialize_graph(gen_circulant_b(param))
    elif fam == "a":
        text = serialize_graph(gen_a(param))
    elif fam == "ce":
        g, p, _ = gen_counterexample(param)
        text = serialize_graph(g, prescription=p)
    else:  # rpt
        g, p = gen_random_pt(param, args.max_vertices)
        text = serialize_graph(g, prescription=p)
    _emit(text, args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g, embedded = _read(args.input, parse_graph)
    p = _resolve_prescription(g, embedded, args)
    orientation, trace = solve(g, p)
    if args.trace_path is not None:
        with open(args.trace_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_trace(trace))
    if orientation is None:
        _say(f"no valid orientation (proven, {len(trace.steps)} steps)")
        return 1
    _emit(serialize_orientation(orientation.tails()), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g, embedded = _read(args.input, parse_graph)
    p = _resolve_prescription(g, embedded, args)
    tails = _read(args.orientation, parse_orientation)
    try:
        valid = is_valid_orientation(g, p, orientation_from_tails(g, tails))
    except OrientationError as exc:  # p is well-formed, so the fault is the orientation's
        _say(f"orientation does not fit the graph: {exc}")
        valid = False
    _emit("valid" if valid else "invalid", args.output)
    return 0 if valid else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    g, embedded = _read(args.input, parse_graph)
    p = _resolve_prescription(g, embedded, args)
    orientation = oracle_solve(g, p)
    if orientation is None:
        _say("no valid orientation (frontier DP)")
        return 1
    _emit(serialize_orientation(orientation.tails()), args.output)
    return 0


def _cmd_cuts(args: argparse.Namespace) -> int:
    g, _ = _read(args.input, parse_graph)
    lines = []
    for cut in enumerate_robust_cuts(g, args.max_size, args.min_side):
        try:
            cut = classify_cut(g, cut)
            kind = str(cut.cut_type)
        except EmbeddingError:
            kind = "-"
        side = ",".join(str(v) for v in sorted(cut.side))
        lines.append(f"cut size={cut.size} type={kind} side={side}")
    _emit("\n".join(lines) + ("\n" if lines else ""), args.output)
    return 0


def _cmd_faces(args: argparse.Namespace) -> int:
    g, _ = _read(args.input, parse_graph)
    faces = trace_faces(g)
    marked = {face_of_anchor(g, faces, a) for a in g.specified}
    if not g.rotation:
        raise OperationError("empty graph has no embedding")
    # chi is defined only for a connected graph; a lone vertex's face is its empty walk
    lines = [f"chi {len(g.rotation) - len(g.edges) + len(faces)}"] if g.is_connected() else []
    for i, f in enumerate(faces):
        tag = " specified" if i in marked else ""
        walk = ",".join(str(t) for t in f.tails)
        lines.append(f"face {i} length={f.length}{tag} walk={walk}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g, embedded = _read(args.input, parse_graph)
    if embedded is None:  # a file without p lines is checked against all zeros
        embedded = dict.fromkeys(g.rotation, 0)
    report = check_class(g, _resolve_prescription(g, embedded, args), args.klass)
    lines = [f"class {args.klass} holds={'true' if report.holds else 'false'}"]
    for cond, text in report.violations:
        lines.append(f"violation {cond} {text}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.holds else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    lo, hi = args.seeds
    _check_random_pt_args(lo, args.max_vertices)
    lines = []
    for seed in range(lo, hi + 1):
        try:
            g, p = gen_random_pt(seed, args.max_vertices)
        except FamilyError as exc:
            lines.append(f"seed {seed} error={exc}")
            continue
        try:
            orientation, trace = solve(g, p)
            outcome = "valid" if orientation is not None else "none"
            extra = f" steps={len(trace.steps)}"
        except SolverRefusal:
            outcome, extra = "refused", ""
        lines.append(
            f"seed {seed} vertices={len(g.vertices)} edges={len(g.edges)} "
            f"outcome={outcome}{extra}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# --------------------------------------------------------------- parsing


def _seed_range(text: str) -> tuple[int, int]:
    if ".." in text:
        a, _, b = text.partition("..")
    else:
        a = b = text
    try:
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError("empty seed range")
    return lo, hi


def _non_negative(what: str, text: str) -> int:
    """An integer >= 0, read as the argparse type ``partial(_non_negative,
    what)``; ``what`` names it in the error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"{what} must be >= 0, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="crossflow",
        description="Valid orientations of graphs embedded in the plane "
        "and projective plane.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write results here instead of stdout")

    def add_prescription(p):
        p.add_argument("--p", dest="prescription", default=None, metavar="random|FILE",
                       help="prescription source (default: the one in the file)")
        p.add_argument("--seed", type=partial(_non_negative, "seed"), default=0,
                       help="seed for --p random (default 0)")

    p = sub.add_parser("gen", help="generate a family instance as .pgr")
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("family", choices=["b", "a", "ce", "rpt"])
    p.add_argument("parameter", type=int, help="family index, scale, or seed")
    p.add_argument("--max-vertices", type=int, default=9, help="rpt size cap (default 9)")
    add_output(p)

    p = sub.add_parser("solve", help="find a valid orientation or prove none")
    p.set_defaults(handler=_cmd_solve)
    p.add_argument("input")
    add_prescription(p)
    p.add_argument("--trace", dest="trace_path", default=None, help="write the reduction trace here")
    add_output(p)

    p = sub.add_parser("verify", help="check an orientation file against a graph")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("input")
    p.add_argument("orientation")
    add_prescription(p)
    add_output(p)

    p = sub.add_parser("oracle", help="decide with the frontier DP and read its witness, "
                       "no reductions")
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("input")
    add_prescription(p)
    add_output(p)

    p = sub.add_parser("cuts", help="enumerate and classify robust small cuts")
    p.set_defaults(handler=_cmd_cuts)
    p.add_argument("input")
    p.add_argument("--max", dest="max_size", default=5, type=partial(_non_negative, "cut size"),
                   help="largest cut size (default 5)")
    p.add_argument("--min-side", dest="min_side", default=2,
                   type=partial(_non_negative, "side order"),
                   help="minimum vertices per side (default 2)")
    add_output(p)

    p = sub.add_parser("faces", help="facial walks and Euler characteristic")
    p.set_defaults(handler=_cmd_faces)
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("check", help="validate a graph-class membership")
    # prescription None: the file's own, as _resolve_prescription reads it
    p.set_defaults(handler=_cmd_check, prescription=None)
    p.add_argument("input")
    p.add_argument("--class", dest="klass", required=True,
                   choices=["pt", "3pt", "ft", "dts", "3dts"])
    add_output(p)

    p = sub.add_parser("corpus", help="generate and solve a seeded batch")
    p.set_defaults(handler=_cmd_corpus)
    p.add_argument("--seeds", type=_seed_range, required=True, metavar="A..B")
    p.add_argument("--max-vertices", type=int, default=9)
    add_output(p)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 3
    try:
        return args.handler(args)
    except (SolverRefusal, OracleBoundError, CutBudgetError) as exc:
        _say(f"refused: {exc}")
        return 2
    except (CliInputError, FamilyError, EmbeddingError, OrientationError) as exc:
        _say(f"input error: {exc}")
        return 3
    except OSError as exc:
        _say(f"i/o error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
