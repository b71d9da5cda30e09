"""Command-line surface.

Exit codes: 0 all requested verdicts pass, 1 identity violation, 2 input
error, 3 internal-consistency alarm (tensor and operator forms of the MYBE
disagree; unreachable unless the package itself is broken).

Exit 1 comes only from a failing ``ViolationReport``: a checker's verdict or
a construction whose precondition fails.  Every malformed or unsupported
input (an unreadable or invalid document, an algebra or module dimension
over ``MAX_DIM``, a missing block or product, a linear map with the wrong
domain, mismatched dimensions, an unknown ``--identities`` name) exits 2
with one ``error:`` line on stderr and no traceback.  The document parser
applies the cap, before it builds the space of the block over it.  With
``--json`` every verdict, including a failed construction precondition, is
printed as a JSON report.

One ordered table, ``_IDENTITIES``, lists the identities.  It drives
``check``, ``report``, the ``--identity`` choices and the validation of the
``--identities`` names; ``mybe`` is the entry for the tensor and operator
forms of the MYBE.

``main`` reads each document once and hands it to the subcommand's handler.
Each subcommand declares the product its document must hold, as the parser
default ``product``: ``"mul"``, or None for ``check`` and ``report``, which
check the product per identity.  So every error comes in one order: the
witness limit, the read, the parse and the product, then the handler's own
block and domain checks.

Reports on stdout are byte-identical across runs for the same input; the
optional ``--timings`` flag fills the wall-time field and is therefore
excluded from the byte-stability guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .graded import GradedVector
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    ViolationReport,
    check_left_alternative,
    check_malcev,
    check_pre_alternative,
    check_pre_malcev,
    check_right_alternative,
    commutator_superalgebra,
)
from .reps import (
    check_alternative_bimodule,
    check_malcev_representation,
    dual_representation,
    semidirect_alternative,
    semidirect_malcev,
)
from .operators import (
    IdentityViolation,
    check_o_operator_alternative,
    check_o_operator_malcev,
    check_rota_baxter,
    check_symplectic,
    pre_alternative_from_o_operator,
    pre_malcev_from_invertible_rota_baxter,
    pre_malcev_from_o_operator,
    pre_malcev_from_rota_baxter,
    pre_malcev_from_symplectic,
)
from .yangbaxter import (
    MybeCandidate,
    canonical_r,
    check_operator_form,
    mybe_lhs,
    r_from_o_operator,
    symplectic_from_r,
)
from .serialize import AlgebraDocument, ParseError, parse, serialize

PASS, FAIL, INPUT_ERROR, ALARM = 0, 1, 2, 3

# Largest algebra or module dimension a document may declare.  A check's work
# follows the nonzero constants, but a dense product has up to n^3 of them and
# its checks up to n^4 nonzero tuples, so larger documents are refused before
# they are built.
MAX_DIM = 64

_TUPLE_NOUNS = {
    "left-alternative": "triples",
    "right-alternative": "triples",
    "malcev": "quadruples",
    "pre-malcev": "quadruples",
    "pre-alternative": "triples",
    "representation": "triples",
    "bimodule": "pairs",
    "o-operator": "pairs",
    "o-operator-alternative": "pairs",
    "rota-baxter": "pairs",
    "rota-baxter-signed": "pairs",
    "symplectic": "triples",
    "operator-form": "pairs",
    "mybe-tensor": "entry pairs",
}

class InputError(Exception):
    pass


def _format_vector(v: GradedVector) -> str:
    terms = []
    for i, c in v._entries.items():
        label = v.space.labels[i]
        if c == 1:
            terms.append(f"+ {label}")
        elif c == -1:
            terms.append(f"- {label}")
        elif c < 0:
            terms.append(f"- {-c}*{label}")
        else:
            terms.append(f"+ {c}*{label}")
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


def _leftover_json(leftover):
    if isinstance(leftover, GradedVector):
        return {"coords": [str(c) for c in leftover.coords]}
    return str(leftover)


def _leftover_text(leftover) -> str:
    if isinstance(leftover, GradedVector):
        return _format_vector(leftover)
    return str(leftover)


def _check_json(report: ViolationReport) -> dict:
    return {
        "identity": report.identity,
        "verdict": "pass" if report.ok else "fail",
        "checked_tuples": report.checked_tuples,
        "violations": report.violation_count,
        "precondition_failures": list(report.precondition_failures),
        "witnesses": [
            {"indices": list(indices), "leftover": _leftover_json(leftover)}
            for indices, leftover in report.witnesses
        ],
    }


def _check_text(report: ViolationReport) -> str:
    noun = _TUPLE_NOUNS.get(report.identity, "tuples")
    if report.ok:
        return f"{report.identity}: pass, {report.checked_tuples} {noun}"
    if report.precondition_failures:
        line = (f"{report.identity}: FAIL (precondition: "
                + "; ".join(report.precondition_failures) + ")")
    else:
        line = (f"{report.identity}: FAIL, {report.violation_count} "
                f"violation(s) over {report.checked_tuples} {noun}")
    lines = [line]
    for indices, leftover in report.witnesses[:4]:
        lines.append(f"  witness {tuple(indices)} -> {_leftover_text(leftover)}")
    return "\n".join(lines)


def _tensor_report(candidate: MybeCandidate, witness_limit: int) -> ViolationReport:
    lhs = mybe_lhs(candidate)
    entries = sorted(lhs.coeffs.items())
    witnesses = tuple((key, val) for key, val in entries[:witness_limit])
    npairs = len(candidate.r.sparse()) ** 2
    return ViolationReport("mybe-tensor", witnesses, len(entries), npairs)


def _mybe_reports(candidate: MybeCandidate, witness_limit: int) -> list[ViolationReport]:
    """The tensor and the operator form of the MYBE for one candidate."""
    return [_tensor_report(candidate, witness_limit),
            check_operator_form(candidate, witness_limit=witness_limit)]


def _mybe_agreement(checks: list[ViolationReport]) -> bool | None:
    """Whether the two MYBE forms among ``checks`` agree; None if absent."""
    verdicts = {r.identity: r.ok for r in checks}
    if "mybe-tensor" not in verdicts:
        return None
    return verdicts["mybe-tensor"] == verdicts["operator-form"]


def _mybe(doc: AlgebraDocument, limit: int) -> list[ViolationReport]:
    # report skips a tensor that is not skew-supersymmetric; mybe-check rejects it
    if not doc.tensor2.is_skew_supersymmetric():
        return []
    return _mybe_reports(MybeCandidate(doc.algebra, doc.tensor2), limit)


# name -> (document block the identity reads, or None for the algebra alone;
#          the product it needs, "mul" or "prec/succ";
#          reports(doc, witness_limit)), in the order ``report`` runs them
_IDENTITIES = {
    "left-alt": (None, "mul", lambda doc, limit: [
        check_left_alternative(doc.algebra, witness_limit=limit)]),
    "right-alt": (None, "mul", lambda doc, limit: [
        check_right_alternative(doc.algebra, witness_limit=limit)]),
    "malcev": (None, "mul", lambda doc, limit: [
        check_malcev(doc.algebra, witness_limit=limit)]),
    "pre-malcev": (None, "mul", lambda doc, limit: [
        check_pre_malcev(doc.algebra, witness_limit=limit)]),
    "pre-alternative": (None, "prec/succ", lambda doc, limit: [
        check_pre_alternative(doc.algebra, witness_limit=limit)]),
    "representation": ("representation", "mul", lambda doc, limit: [
        check_malcev_representation(doc.representation, witness_limit=limit)]),
    "bimodule": ("bimodule", "mul", lambda doc, limit: [
        check_alternative_bimodule(doc.bimodule, witness_limit=limit)]),
    "symplectic": ("bilinear_form", "mul", lambda doc, limit: [
        check_symplectic(doc.bilinear_form, doc.algebra, witness_limit=limit)]),
    "mybe": ("tensor2", "mul", _mybe),
}


def _emit(args, checks: list[ViolationReport], agreement: bool | None = None,
          document: AlgebraDocument | None = None) -> int:
    """Write the report and return the exit status.

    ``agreement`` False (two forms of one verdict disagree) is the internal
    alarm.  ``document`` goes to ``--out`` if given, else after the text
    report; a JSON report on stdout leaves it out.
    """
    if document is not None and getattr(args, "out", None):
        _write_document(args, document)  # first, so a failed write prints no report
        document = None
    if agreement is False:
        status = ALARM
    elif all(r.ok for r in checks):
        status = PASS
    else:
        status = FAIL
    wall = None
    if args.timings:
        wall = round((time.perf_counter() - args.started) * 1000.0, 3)
    if args.json:
        payload = {
            "command": args.command,
            "input": args.file,
            "checks": [_check_json(r) for r in checks],
        }
        if agreement is not None:
            payload["agreement"] = agreement
        payload["exit_status"] = status
        payload["wall_time_ms"] = wall
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for r in checks:
            sys.stdout.write(_check_text(r) + "\n")
        if agreement is not None:
            sys.stdout.write(
                f"agreement: {'yes' if agreement else 'NO (internal alarm)'}\n"
            )
        if document is not None:
            sys.stdout.write(serialize(document))
        if wall is not None:
            sys.stdout.write(f"wall_time_ms: {wall}\n")
    return status


def _write_document(args, doc: AlgebraDocument) -> int:
    text = serialize(doc)
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return PASS


def _has(doc: AlgebraDocument, product: str) -> bool:
    return set(product.split("/")) <= set(doc.algebra.product_names())


def _need_product(doc: AlgebraDocument, product: str, what: str) -> None:
    if not _has(doc, product):
        noun = f"a {product!r} product" if "/" not in product else f"{product} products"
        raise InputError(f"{what} needs {noun}")


def _load(args, product: str | None) -> AlgebraDocument:
    """Parse the input document and check it has ``product``, the product the
    subcommand declares (None: ``_run`` checks it per identity).

    The parser refuses a space over ``MAX_DIM`` dimensions before it builds it."""
    try:
        data = Path(args.file).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from None
    try:
        doc = parse(data, MAX_DIM)
    except ParseError as exc:
        raise InputError(f"{args.file}: {exc}") from None
    if product is not None:
        _need_product(doc, product, args.command)
    return doc


def _need(doc: AlgebraDocument, what: str):
    value = getattr(doc, what)
    if value is None:
        raise InputError(f"document has no {what.replace('_', ' ')} block")
    return value


def _linear_map(doc: AlgebraDocument, command: str, domain: str, *blocks: str) -> tuple:
    """The linear map, then ``blocks``; the map must have domain ``domain``.

    O-operators on a representation or bimodule need domain 'module',
    Rota-Baxter operators domain 'algebra'.  A missing block is reported
    before a wrong domain."""
    T = _need(doc, "linear_map")
    found = [_need(doc, block) for block in blocks]
    if doc.linear_map_domain != domain:
        raise InputError(f"{command} expects a linear map with domain {domain!r}")
    return (T, *found)


def _run(doc: AlgebraDocument, name: str, limit: int) -> list[ViolationReport]:
    """The reports of one identity of the table."""
    block, product, reports = _IDENTITIES[name]
    if block is not None:
        _need(doc, block)
    _need_product(doc, product, f"{name} check")
    return reports(doc, limit)


# -- subcommand handlers --------------------------------------------------


def _cmd_check(args, doc: AlgebraDocument) -> int:
    return _emit(args, _run(doc, args.identity, args.witness_limit))


def _cmd_commutator(args, doc: AlgebraDocument) -> int:
    return _write_document(args, AlgebraDocument(commutator_superalgebra(doc.algebra)))


def _cmd_semidirect(args, doc: AlgebraDocument) -> int:
    kind = args.kind
    if kind == "auto":
        kind = "rep" if doc.representation is not None else "bimodule"
    if kind == "rep":
        result = semidirect_malcev(_need(doc, "representation"))
    else:
        result = semidirect_alternative(_need(doc, "bimodule"))
    return _write_document(args, AlgebraDocument(result))


def _cmd_dual_rep(args, doc: AlgebraDocument) -> int:
    dual = dual_representation(_need(doc, "representation"))
    return _write_document(args, AlgebraDocument(doc.algebra, representation=dual))


def _cmd_oop_check(args, doc: AlgebraDocument) -> int:
    _need(doc, "linear_map")
    if args.context == "rep" or (args.context == "auto" and doc.representation is not None):
        check, block = check_o_operator_malcev, "representation"
    elif args.context == "bimodule" or doc.bimodule is not None:
        check, block = check_o_operator_alternative, "bimodule"
    else:
        raise InputError("document has neither representation nor bimodule block")
    T, module = _linear_map(doc, "oop-check", "module", block)
    return _emit(args, [check(T, module, witness_limit=args.witness_limit)])


def _cmd_rb_check(args, doc: AlgebraDocument) -> int:
    Rop, = _linear_map(doc, "rb-check", "algebra")
    return _emit(args, [check_rota_baxter(Rop, doc.algebra, sign_variant=args.sign_variant,
                                          witness_limit=args.witness_limit)])


def _cmd_construct(args, doc: AlgebraDocument) -> int:
    command = f"construct --via {args.via}"
    if args.via == "oop":
        result = pre_malcev_from_o_operator(
            *_linear_map(doc, command, "module", "representation"))
    elif args.via == "rb":
        result = pre_malcev_from_rota_baxter(*_linear_map(doc, command, "algebra"), doc.algebra)
    elif args.via == "rb-inv":
        result = pre_malcev_from_invertible_rota_baxter(
            *_linear_map(doc, command, "algebra"), doc.algebra)
    elif args.via == "symplectic":
        result = pre_malcev_from_symplectic(
            _need(doc, "bilinear_form"), doc.algebra)
    else:  # prealt-oop
        result = pre_alternative_from_o_operator(
            *_linear_map(doc, command, "module", "bimodule"))
    return _write_document(args, AlgebraDocument(result))


def _cmd_mybe_check(args, doc: AlgebraDocument) -> int:
    tensor = _need(doc, "tensor2")
    candidate = MybeCandidate(doc.algebra, tensor)
    if not tensor.is_skew_supersymmetric():
        raise InputError("tensor2 is not skew-supersymmetric")
    checks = _mybe_reports(candidate, args.witness_limit)
    return _emit(args, checks, _mybe_agreement(checks))


def _cmd_build_r(args, doc: AlgebraDocument) -> int:
    T, = _linear_map(doc, "build-r", "module")
    R = _need(doc, "representation")
    oop_report = check_o_operator_malcev(T, R, witness_limit=args.witness_limit)
    candidate = r_from_o_operator(T, R)
    tensor_report = _tensor_report(candidate, args.witness_limit)
    # T is an O-operator iff r = T - sigma(T) is a skew solution of the MYBE
    agreement = oop_report.ok == tensor_report.ok and candidate.r.is_skew_supersymmetric()
    return _emit(args, [oop_report, tensor_report], agreement,
                 AlgebraDocument(candidate.algebra, tensor2=candidate.r))


def _cmd_canonical_r(args, doc: AlgebraDocument) -> int:
    candidate = canonical_r(doc.algebra)
    checks = _mybe_reports(candidate, args.witness_limit)
    return _emit(args, checks, _mybe_agreement(checks),
                 AlgebraDocument(candidate.algebra, tensor2=candidate.r))


def _cmd_symplectic(args, doc: AlgebraDocument) -> int:
    omega = symplectic_from_r(MybeCandidate(doc.algebra, _need(doc, "tensor2")))
    report = check_symplectic(omega, doc.algebra, witness_limit=args.witness_limit)
    return _emit(args, [report], document=AlgebraDocument(doc.algebra, bilinear_form=omega))


def _cmd_report(args, doc: AlgebraDocument) -> int:
    wanted = set(args.identities.split(",")) if args.identities else set(_IDENTITIES)
    unknown = sorted(wanted - _IDENTITIES.keys())
    if unknown:
        raise InputError(f"unknown identity {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(_IDENTITIES)}")
    checks: list[ViolationReport] = []
    for name, (block, product, _) in _IDENTITIES.items():
        applies = getattr(doc, block) is not None if block else _has(doc, product)
        if name in wanted and applies:
            checks += _run(doc, name, args.witness_limit)
    if not checks:
        raise InputError("nothing to check (empty identity selection?)")
    return _emit(args, checks, _mybe_agreement(checks))

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supermalcev",
        description="Exact checkers and constructions for Malcev-type "
                    "superalgebras and the super Malcev Yang-Baxter equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="input document (JSON)")
        p.add_argument("--witness-limit", type=int, default=DEFAULT_WITNESS_LIMIT)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timings", action="store_true",
                       help="fill wall_time_ms (breaks byte-stability)")
        p.set_defaults(handler=handler, product="mul")
        return p

    p = add("check", _cmd_check, help="run one identity checker")
    p.set_defaults(product=None)
    # mybe has its own subcommand, which also reports the agreement of its two forms
    p.add_argument("--identity", required=True,
                   choices=[name for name in _IDENTITIES if name != "mybe"])

    p = add("commutator", _cmd_commutator, help="commutator superalgebra")
    p.add_argument("--out")

    p = add("semidirect", _cmd_semidirect, help="semidirect product")
    p.add_argument("--kind", choices=("auto", "rep", "bimodule"), default="auto")
    p.add_argument("--out")

    p = add("dual-rep", _cmd_dual_rep, help="dual representation")
    p.add_argument("--out")

    p = add("oop-check", _cmd_oop_check, help="super O-operator check")
    p.add_argument("--context", choices=("auto", "rep", "bimodule"), default="auto")

    p = add("rb-check", _cmd_rb_check, help="Rota-Baxter check")
    p.add_argument("--sign-variant", action="store_true",
                   help="check the Koszul-signed variant of the identity")

    p = add("construct", _cmd_construct, help="pre-Malcev / pre-alternative constructions")
    p.add_argument("--via", required=True,
                   choices=("oop", "rb", "rb-inv", "symplectic", "prealt-oop"))
    p.add_argument("--out")

    add("mybe-check", _cmd_mybe_check, help="tensor and operator MYBE forms")

    p = add("build-r", _cmd_build_r, help="embed an O-operator as r = T - sigma(T)")
    p.add_argument("--out")

    p = add("canonical-r", _cmd_canonical_r, help="canonical solution in the double")
    p.add_argument("--out")

    p = add("symplectic", _cmd_symplectic, help="symplectic form of an invertible r")
    p.add_argument("--out")

    p = add("report", _cmd_report, help="all applicable checks")
    p.set_defaults(product=None)
    p.add_argument("--identities", default="",
                   help="comma-separated subset of identities to run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        if args.witness_limit < 1:
            raise InputError(f"--witness-limit must be at least 1, got {args.witness_limit}")
        return args.handler(args, _load(args, args.product))
    except IdentityViolation as exc:  # a construction's precondition fails
        return _emit(args, [exc.report])
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
