"""Command-line surface.

Exit codes: 0 all requested verdicts pass, 1 identity violation, 2 input
error, 3 internal-consistency alarm (tensor and operator forms of the MYBE
disagree; unreachable unless the package itself is broken).

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

from .graded import GradedVector, ParityViolation
from .algebras import (
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

_IDENTITY_CHECKS = {
    "left-alt": lambda doc, limit: check_left_alternative(doc.algebra, witness_limit=limit),
    "right-alt": lambda doc, limit: check_right_alternative(doc.algebra, witness_limit=limit),
    "malcev": lambda doc, limit: check_malcev(doc.algebra, witness_limit=limit),
    "pre-malcev": lambda doc, limit: check_pre_malcev(doc.algebra, witness_limit=limit),
    "pre-alternative": lambda doc, limit: check_pre_alternative(doc.algebra, witness_limit=limit),
}


class InputError(Exception):
    pass


def _format_vector(v: GradedVector) -> str:
    terms = []
    for i, c in enumerate(v.coords):
        if c == 0:
            continue
        label = v.space.labels[i]
        if c == 1:
            terms.append(f"+ {label}")
        elif c == -1:
            terms.append(f"- {label}")
        elif c < 0:
            terms.append(f"- {-c}*{label}")
        else:
            terms.append(f"+ {c}*{label}")
    if not terms:
        return "0"
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


def _emit(out_stream, args, command: str, checks: list[ViolationReport],
          exit_status: int, agreement: bool | None = None,
          document: str | None = None, started: float | None = None) -> int:
    wall = None
    if getattr(args, "timings", False) and started is not None:
        wall = round((time.perf_counter() - started) * 1000.0, 3)
    if getattr(args, "json", False):
        payload = {
            "command": command,
            "input": args.file,
            "checks": [_check_json(r) for r in checks],
        }
        if agreement is not None:
            payload["agreement"] = agreement
        payload["exit_status"] = exit_status
        payload["wall_time_ms"] = wall
        out_stream.write(json.dumps(payload, indent=2) + "\n")
    else:
        for r in checks:
            out_stream.write(_check_text(r) + "\n")
        if agreement is not None:
            out_stream.write(
                f"agreement: {'yes' if agreement else 'NO (internal alarm)'}\n"
            )
        if document is not None:
            out_stream.write(document)
        if wall is not None:
            out_stream.write(f"wall_time_ms: {wall}\n")
    return exit_status


def _write_document(args, doc: AlgebraDocument) -> None:
    text = serialize(doc)
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(args) -> AlgebraDocument:
    path = Path(args.file)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from None
    try:
        return parse(data)
    except ParseError as exc:
        raise InputError(f"{args.file}: {exc}") from None


def _need(doc: AlgebraDocument, what: str):
    value = getattr(doc, what)
    if value is None:
        raise InputError(f"document has no {what.replace('_', ' ')} block")
    return value


def _need_mul(doc: AlgebraDocument, what: str) -> None:
    if "mul" not in doc.algebra.product_names():
        raise InputError(f"{what} needs a 'mul' product")


def _operator_context(doc: AlgebraDocument, args):
    """Pick the representation or bimodule context for O-operator commands."""
    choice = getattr(args, "context", "auto")
    if choice == "rep" or (choice == "auto" and doc.representation is not None):
        return "rep", _need(doc, "representation")
    if choice in ("bimodule", "auto") and doc.bimodule is not None:
        return "bimodule", doc.bimodule
    raise InputError("document has neither representation nor bimodule block")


# -- subcommand handlers --------------------------------------------------


def _cmd_check(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    identity = args.identity
    if identity in _IDENTITY_CHECKS:
        if identity == "pre-alternative":
            if set(doc.algebra.product_names()) != {"prec", "succ"}:
                raise InputError("pre-alternative check needs prec/succ products")
        else:
            _need_mul(doc, f"{identity} check")
        report = _IDENTITY_CHECKS[identity](doc, args.witness_limit)
    elif identity == "representation":
        report = check_malcev_representation(
            _need(doc, "representation"), witness_limit=args.witness_limit)
    elif identity == "bimodule":
        report = check_alternative_bimodule(
            _need(doc, "bimodule"), witness_limit=args.witness_limit)
    elif identity == "symplectic":
        form = _need(doc, "bilinear_form")
        _need_mul(doc, "symplectic check")
        report = check_symplectic(form, doc.algebra, witness_limit=args.witness_limit)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown identity {identity!r}")
    status = PASS if report.ok else FAIL
    return _emit(sys.stdout, args, "check", [report], status, started=started)


def _cmd_commutator(args) -> int:
    doc = _load(args)
    product = "mul" if "mul" in doc.algebra.product_names() else None
    if product is None:
        raise InputError("commutator needs a 'mul' product")
    _write_document(args, AlgebraDocument(commutator_superalgebra(doc.algebra)))
    return PASS


def _cmd_semidirect(args) -> int:
    doc = _load(args)
    kind = args.kind
    if kind == "auto":
        kind = "rep" if doc.representation is not None else "bimodule"
    if kind == "rep":
        result = semidirect_malcev(_need(doc, "representation"))
    else:
        result = semidirect_alternative(_need(doc, "bimodule"))
    _write_document(args, AlgebraDocument(result))
    return PASS


def _cmd_dual_rep(args) -> int:
    doc = _load(args)
    dual = dual_representation(_need(doc, "representation"))
    _write_document(args, AlgebraDocument(doc.algebra, representation=dual))
    return PASS


def _cmd_oop_check(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    T = _need(doc, "linear_map")
    kind, context = _operator_context(doc, args)
    if kind == "rep":
        report = check_o_operator_malcev(T, context, witness_limit=args.witness_limit)
    else:
        report = check_o_operator_alternative(T, context, witness_limit=args.witness_limit)
    status = PASS if report.ok else FAIL
    return _emit(sys.stdout, args, "oop-check", [report], status, started=started)


def _cmd_rb_check(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    Rop = _need(doc, "linear_map")
    if doc.linear_map_domain == "module":
        raise InputError("rb-check expects a linear map with domain 'algebra'")
    report = check_rota_baxter(Rop, doc.algebra, sign_variant=args.sign_variant,
                               witness_limit=args.witness_limit)
    status = PASS if report.ok else FAIL
    return _emit(sys.stdout, args, "rb-check", [report], status, started=started)


def _cmd_construct(args) -> int:
    doc = _load(args)
    try:
        if args.via == "oop":
            kind, context = _operator_context(doc, args)
            T = _need(doc, "linear_map")
            if kind != "rep":
                raise InputError("construct --via oop needs a representation block")
            result = pre_malcev_from_o_operator(T, context)
        elif args.via == "rb":
            result = pre_malcev_from_rota_baxter(_need(doc, "linear_map"), doc.algebra)
        elif args.via == "rb-inv":
            result = pre_malcev_from_invertible_rota_baxter(
                _need(doc, "linear_map"), doc.algebra)
        elif args.via == "symplectic":
            result = pre_malcev_from_symplectic(
                _need(doc, "bilinear_form"), doc.algebra)
        elif args.via == "prealt-oop":
            kind, context = _operator_context(doc, args)
            T = _need(doc, "linear_map")
            if kind != "bimodule":
                raise InputError("construct --via prealt-oop needs a bimodule block")
            result = pre_alternative_from_o_operator(T, context)
        else:  # pragma: no cover
            raise InputError(f"unknown construction {args.via!r}")
    except IdentityViolation as exc:
        sys.stdout.write(_check_text(exc.report) + "\n")
        return FAIL
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _write_document(args, AlgebraDocument(result))
    return PASS


def _cmd_mybe_check(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    tensor = _need(doc, "tensor2")
    candidate = MybeCandidate(doc.algebra, tensor)
    if not tensor.is_skew_supersymmetric():
        raise InputError("tensor2 is not skew-supersymmetric")
    tensor_report = _tensor_report(candidate, args.witness_limit)
    operator_report = check_operator_form(candidate, witness_limit=args.witness_limit)
    agreement = tensor_report.ok == operator_report.ok
    if not agreement:
        status = ALARM
    elif tensor_report.ok:
        status = PASS
    else:
        status = FAIL
    return _emit(sys.stdout, args, "mybe-check", [tensor_report, operator_report],
                 status, agreement=agreement, started=started)


def _cmd_build_r(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    T = _need(doc, "linear_map")
    if doc.linear_map_domain != "module":
        raise InputError("build-r expects a linear map with domain 'module'")
    R = _need(doc, "representation")
    oop_report = check_o_operator_malcev(T, R, witness_limit=args.witness_limit)
    candidate = r_from_o_operator(T, R)
    tensor_report = _tensor_report(candidate, args.witness_limit)
    skew = candidate.r.is_skew_supersymmetric()
    agreement = oop_report.ok == tensor_report.ok and skew
    if not agreement:
        status = ALARM
    elif tensor_report.ok:
        status = PASS
    else:
        status = FAIL
    out_doc = AlgebraDocument(candidate.algebra, tensor2=candidate.r)
    document = None
    if getattr(args, "out", None):
        Path(args.out).write_text(serialize(out_doc), encoding="utf-8")
    elif not args.json:
        document = serialize(out_doc)
    return _emit(sys.stdout, args, "build-r", [oop_report, tensor_report],
                 status, agreement=agreement, document=document, started=started)


def _cmd_canonical_r(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    try:
        candidate = canonical_r(doc.algebra)
    except IdentityViolation as exc:
        sys.stdout.write(_check_text(exc.report) + "\n")
        return FAIL
    tensor_report = _tensor_report(candidate, args.witness_limit)
    operator_report = check_operator_form(candidate, witness_limit=args.witness_limit)
    agreement = tensor_report.ok == operator_report.ok
    if not agreement:
        status = ALARM
    elif tensor_report.ok:
        status = PASS
    else:
        status = FAIL
    out_doc = AlgebraDocument(candidate.algebra, tensor2=candidate.r)
    document = None
    if getattr(args, "out", None):
        Path(args.out).write_text(serialize(out_doc), encoding="utf-8")
    elif not args.json:
        document = serialize(out_doc)
    return _emit(sys.stdout, args, "canonical-r", [tensor_report, operator_report],
                 status, agreement=agreement, document=document, started=started)


def _cmd_symplectic(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    tensor = _need(doc, "tensor2")
    candidate = MybeCandidate(doc.algebra, tensor)
    try:
        omega = symplectic_from_r(candidate)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = check_symplectic(omega, doc.algebra, witness_limit=args.witness_limit)
    status = PASS if report.ok else FAIL
    out_doc = AlgebraDocument(doc.algebra, bilinear_form=omega)
    document = None
    if getattr(args, "out", None):
        Path(args.out).write_text(serialize(out_doc), encoding="utf-8")
    elif not args.json:
        document = serialize(out_doc)
    return _emit(sys.stdout, args, "symplectic", [report], status,
                 document=document, started=started)


def _cmd_report(args) -> int:
    started = time.perf_counter()
    doc = _load(args)
    wanted = set(args.identities.split(",")) if args.identities else None
    checks: list[ViolationReport] = []
    agreement = None
    names = set(doc.algebra.product_names())

    def include(name: str) -> bool:
        return wanted is None or name in wanted

    if "mul" in names:
        if include("left-alt"):
            checks.append(check_left_alternative(doc.algebra, witness_limit=args.witness_limit))
        if include("right-alt"):
            checks.append(check_right_alternative(doc.algebra, witness_limit=args.witness_limit))
        if include("malcev"):
            checks.append(check_malcev(doc.algebra, witness_limit=args.witness_limit))
        if include("pre-malcev"):
            checks.append(check_pre_malcev(doc.algebra, witness_limit=args.witness_limit))
    if {"prec", "succ"} <= names and include("pre-alternative"):
        checks.append(check_pre_alternative(doc.algebra, witness_limit=args.witness_limit))
    if doc.representation is not None and include("representation"):
        checks.append(check_malcev_representation(doc.representation,
                                                  witness_limit=args.witness_limit))
    if doc.bimodule is not None and include("bimodule"):
        checks.append(check_alternative_bimodule(doc.bimodule,
                                                 witness_limit=args.witness_limit))
    if doc.bilinear_form is not None and include("symplectic"):
        _need_mul(doc, "symplectic check")
        checks.append(check_symplectic(doc.bilinear_form, doc.algebra,
                                       witness_limit=args.witness_limit))
    if doc.tensor2 is not None and doc.tensor2.is_skew_supersymmetric() and include("mybe"):
        candidate = MybeCandidate(doc.algebra, doc.tensor2)
        tensor_report = _tensor_report(candidate, args.witness_limit)
        operator_report = check_operator_form(candidate, witness_limit=args.witness_limit)
        checks.extend([tensor_report, operator_report])
        agreement = tensor_report.ok == operator_report.ok
    if not checks:
        raise InputError("nothing to check (empty identity selection?)")
    if agreement is False:
        status = ALARM
    elif all(r.ok for r in checks):
        status = PASS
    else:
        status = FAIL
    return _emit(sys.stdout, args, "report", checks, status,
                 agreement=agreement, started=started)


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
        p.add_argument("--witness-limit", type=int, default=16)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timings", action="store_true",
                       help="fill wall_time_ms (breaks byte-stability)")
        p.set_defaults(handler=handler)
        return p

    p = add("check", _cmd_check, help="run one identity checker")
    p.add_argument("--identity", required=True, choices=(
        "left-alt", "right-alt", "malcev", "pre-malcev", "pre-alternative",
        "representation", "bimodule", "symplectic"))

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
    p.add_argument("--context", choices=("auto", "rep", "bimodule"), default="auto")
    p.add_argument("--out")

    add("mybe-check", _cmd_mybe_check, help="tensor and operator MYBE forms")

    p = add("build-r", _cmd_build_r, help="embed an O-operator as r = T - sigma(T)")
    p.add_argument("--out")

    p = add("canonical-r", _cmd_canonical_r, help="canonical solution in the double")
    p.add_argument("--out")

    p = add("symplectic", _cmd_symplectic, help="symplectic form of an invertible r")
    p.add_argument("--out")

    p = add("report", _cmd_report, help="all applicable checks")
    p.add_argument("--identities", default="",
                   help="comma-separated subset of identities to run")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ParityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
