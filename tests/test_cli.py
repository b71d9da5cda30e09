"""CLI behavior: exit codes, report text, JSON reports, determinism."""

import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from supermalcev import (SuperSpace, Tensor2, adjoint_representation, fixtures,
                         search_o_operators_malcev, sigma)
from supermalcev.cli import MAX_DIM, main
from supermalcev.serialize import AlgebraDocument, parse, serialize

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_malcev_sl2(capsys):
    code, out, _ = run(capsys, "check", str(FIX / "sl2.json"), "--identity", "malcev")
    assert code == 0
    assert "malcev: pass, 81 quadruples" in out


def test_check_broken_fixture_prints_witness(capsys):
    code, out, _ = run(capsys, "check", str(FIX / "broken_premalcev.json"),
                       "--identity", "pre-malcev")
    assert code == 1
    assert "FAIL" in out
    assert "witness (" in out


def test_check_alternativity_octonions(capsys):
    for identity in ("left-alt", "right-alt"):
        code, out, _ = run(capsys, "check", str(FIX / "split_octonions.json"),
                           "--identity", identity)
        assert code == 0
        assert "512 triples" in out


def test_mybe_check_zero(capsys):
    code, out, _ = run(capsys, "mybe-check", str(FIX / "sl2_r_zero.json"))
    assert code == 0
    assert "agreement: yes" in out


def test_mybe_check_solution_and_nonsolution(capsys):
    code, out, _ = run(capsys, "mybe-check", str(FIX / "sl2_r_solution.json"))
    assert code == 0
    code, out, _ = run(capsys, "mybe-check", str(FIX / "sl2_r_nonsolution.json"))
    assert code == 1
    assert "agreement: yes" in out


def _lopsided_documents(tmp_path):
    """(command, path) pairs over products that are not graded-anticommutative:
    a 2|0 product with a skew tensor, and seeded 1|1, 2|1 and 2|2 products
    with a skew tensor and with an operator on their adjoint action."""
    rng = random.Random(0)
    first = tmp_path / "lopsided_2_0.json"
    first.write_text(json.dumps({
        "format": "superalg/1", "even_dim": 2, "odd_dim": 0,
        "products": {"mul": [[0, 0, 1, "-1"], [0, 1, 1, "1"], [1, 0, 0, "-1"], [1, 1, 0, "1"]]},
        "tensor2": {"parity": 0, "coeffs": [["0", "1"], ["-1", "0"]]},
    }), encoding="utf-8")
    yield "mybe-check", first
    yield "report", first
    for shape in ((1, 1), (2, 1), (2, 2)):
        for seed in range(3):
            A = fixtures.random_product(SuperSpace(*shape), seed, -1, 1)
            r = fixtures.random_even_matrix(A.space, A.space, 0, rng, -1, 1)
            tensor = Tensor2(A.space, r.matrix, 0) - sigma(Tensor2(A.space, r.matrix, 0))
            path = tmp_path / f"lopsided_{shape[0]}_{shape[1]}_{seed}.json"
            path.write_text(serialize(AlgebraDocument(A, tensor2=tensor)), encoding="utf-8")
            yield "mybe-check", path
            yield "report", path
            ad = adjoint_representation(A)
            found = [T for T in search_o_operators_malcev(ad, values=(-1, 0, 1))
                     if any(any(row) for row in T.matrix)]
            for k, T in enumerate(found[:1] + [
                    fixtures.random_even_matrix(A.space, A.space, 0, rng, -1, 1)]):
                path = tmp_path / f"lopsided_{shape[0]}_{shape[1]}_{seed}_operator{k}.json"
                path.write_text(serialize(AlgebraDocument(
                    A, representation=ad, linear_map=T, linear_map_domain="module")),
                    encoding="utf-8")
                yield "build-r", path


def test_mybe_forms_agree_on_products_that_are_not_anticommutative(capsys, tmp_path):
    codes = []
    for command, path in _lopsided_documents(tmp_path):
        code, out, err = run(capsys, command, str(path))
        assert code in (0, 1), (command, path.name, out, err)
        assert "agreement: yes" in out
        codes.append((command, code))
    assert codes[:2] == [("mybe-check", 1), ("report", 1)]
    assert {("mybe-check", 0), ("mybe-check", 1), ("build-r", 0), ("build-r", 1)} <= set(codes)


def test_mybe_check_json_structure(capsys):
    code, out, _ = run(capsys, "mybe-check", str(FIX / "sl2_r_solution.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "mybe-check"
    assert payload["agreement"] is True
    assert payload["exit_status"] == 0
    assert payload["wall_time_ms"] is None
    assert [c["identity"] for c in payload["checks"]] == ["mybe-tensor", "operator-form"]


def test_reports_byte_identical_across_runs(capsys):
    args = ("report", str(FIX / "zorn_regular_rb.json"), "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("mybe-check", str(FIX / "sl2_r_nonsolution.json"))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_commutator_writes_canonical_document(capsys, tmp_path):
    out_file = tmp_path / "comm.json"
    code, out, _ = run(capsys, "commutator", str(FIX / "split_octonions.json"),
                       "--out", str(out_file))
    assert code == 0
    doc = parse(out_file.read_text())
    from supermalcev import check_malcev
    assert check_malcev(doc.algebra).ok


def test_semidirect_and_check_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "sd.json"
    code, _, _ = run(capsys, "semidirect", str(FIX / "sl2_adjoint.json"),
                     "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_file), "--identity", "malcev")
    assert code == 0
    assert "1296 quadruples" in out


def test_dual_rep_output_checks(capsys, tmp_path):
    out_file = tmp_path / "dual.json"
    code, _, _ = run(capsys, "dual-rep", str(FIX / "sl2_adjoint.json"),
                     "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_file), "--identity", "representation")
    assert code == 0


def test_oop_and_rb_checks(capsys):
    code, out, _ = run(capsys, "oop-check", str(FIX / "sl2_adjoint_rb.json"))
    assert code == 0 and "o-operator: pass" in out
    code, out, _ = run(capsys, "oop-check", str(FIX / "zorn_regular_rb.json"))
    assert code == 0 and "o-operator-alternative: pass" in out
    code, out, _ = run(capsys, "rb-check", str(FIX / "sl2_rb.json"))
    assert code == 0 and "rota-baxter: pass" in out
    code, out, _ = run(capsys, "rb-check", str(FIX / "sl2_rb.json"), "--sign-variant")
    assert code == 0 and "rota-baxter-signed: pass" in out


def test_construct_via_rb_and_oop(capsys, tmp_path):
    out_file = tmp_path / "pm.json"
    code, _, _ = run(capsys, "construct", str(FIX / "sl2_rb.json"), "--via", "rb",
                     "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_file), "--identity", "pre-malcev")
    assert code == 0
    code, _, _ = run(capsys, "construct", str(FIX / "sl2_adjoint_rb.json"),
                     "--via", "oop", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_file), "--identity", "pre-malcev")
    assert code == 0


def test_construct_via_prealt(capsys, tmp_path):
    out_file = tmp_path / "pa.json"
    code, _, _ = run(capsys, "construct", str(FIX / "zorn_regular_rb.json"),
                     "--via", "prealt-oop", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_file), "--identity", "pre-alternative")
    assert code == 0


def test_construct_precondition_failure_exits_1(capsys, tmp_path):
    # broken pre-Malcev fixture has no Rota-Baxter map block; use rb on a
    # fixture whose map fails the identity: identity map on sl(2)
    bad = tmp_path / "bad_rb.json"
    doc = json.loads((FIX / "sl2_rb.json").read_text())
    doc["linear_map"]["matrix"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "construct", str(bad), "--via", "rb")
    assert code == 1
    assert "rota-baxter: FAIL" in out


def test_build_r_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "build-r", str(FIX / "sl2_adjoint_rb.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    # break the operator: no longer an O-operator, but agreement must hold
    doc = json.loads((FIX / "sl2_adjoint_rb.json").read_text())
    doc["linear_map"]["matrix"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "build-r", str(bad), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["checks"][0]["verdict"] == "fail"


def test_canonical_r_subcommand(capsys):
    code, out, _ = run(capsys, "canonical-r", str(FIX / "pre_malcev11.json"))
    assert code == 0
    assert "agreement: yes" in out
    code, out, _ = run(capsys, "canonical-r", str(FIX / "broken_premalcev.json"))
    assert code == 1


def test_symplectic_subcommand(capsys):
    code, out, _ = run(capsys, "symplectic", str(FIX / "abelian22_r.json"))
    assert code == 0
    assert "symplectic: pass" in out


def test_report_subcommand(capsys):
    code, out, _ = run(capsys, "report", str(FIX / "sl2.json"),
                       "--identities", "malcev")
    assert code == 0
    code, out, _ = run(capsys, "report", str(FIX / "sl2.json"))
    # sl(2) is Malcev but not alternative, so the full survey fails
    assert code == 1
    assert "left-alternative: FAIL" in out and "malcev: pass" in out


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"),
                       "--identity", "malcev")
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "superalg/1", "even_dim": 1, "odd_dim": 1, '
                   '"basis_labels": ["e1", "f1"], '
                   '"products": {"mul": [[0, 0, 1, "1"]]}}')
    code, _, err = run(capsys, "check", str(bad), "--identity", "malcev")
    assert code == 2
    assert "parity violation" in err
    # non-skew tensor2 for mybe-check
    nons = tmp_path / "nonskew.json"
    nons.write_text('{"format": "superalg/1", "even_dim": 2, "odd_dim": 0, '
                    '"basis_labels": ["e1", "e2"], "products": {"mul": []}, '
                    '"tensor2": {"parity": 0, "coeffs": [["1", "0"], ["0", "0"]]}}')
    code, _, err = run(capsys, "mybe-check", str(nons))
    assert code == 2
    assert "skew" in err
    # a bilinear form on a prec/succ document: the symplectic check needs 'mul'
    prealt = tmp_path / "prealt_form.json"
    prealt.write_text('{"format": "superalg/1", "even_dim": 1, "odd_dim": 0, '
                      '"basis_labels": ["e1"], '
                      '"products": {"prec": [[0, 0, 0, "1"]], "succ": [[0, 0, 0, "1"]]}, '
                      '"bilinear_form": {"matrix": [["1"]]}}')
    for argv in (["check", str(prealt), "--identity", "symplectic"],
                 ["report", str(prealt)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: symplectic check needs a 'mul' product\n"
    # a witness limit below 1
    for argv, limit in (
        (["check", str(FIX / "broken_premalcev.json"), "--identity", "pre-malcev"], "-1"),
        (["mybe-check", str(FIX / "sl2_r_nonsolution.json")], "-1"),
        (["mybe-check", str(FIX / "sl2_r_nonsolution.json")], "0"),
    ):
        code, out, err = run(capsys, *argv, "--witness-limit", limit)
        assert code == 2 and out == ""
        assert err == f"error: --witness-limit must be at least 1, got {limit}\n"


def test_declared_dimension_over_the_cap_exits_2(capsys, tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps({"format": "superalg/1", **doc}))
        return str(path)

    one_entry = {"products": {"mul": [[0, 0, 0, "1"]]}}
    big = write("big.json", {"even_dim": MAX_DIM + 1, "odd_dim": 0, **one_entry})
    odd = write("odd.json", {"even_dim": 1, "odd_dim": MAX_DIM, **one_entry})
    # a 1-dim algebra acting by zero on a module one over the cap
    n = MAX_DIM + 1
    module = write("module.json", {"even_dim": 1, "odd_dim": 0, **one_entry,
                                   "representation": {"even_dim": n, "odd_dim": 0,
                                                      "matrices": [[["0"] * n] * n]}})
    for argv, what, dim in (
        (["check", big, "--identity", "malcev"], "algebra", n),
        (["report", big], "algebra", n),
        (["mybe-check", big], "algebra", n),
        (["canonical-r", odd], "algebra", n),
        (["commutator", odd], "algebra", n),
        (["check", module, "--identity", "representation"], "representation", n),
        (["semidirect", module], "representation", n),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        path = argv[1]
        assert err == f"error: {path}: {what} dimension {dim} exceeds the cap of {MAX_DIM}\n"
    # a document at the cap is accepted
    at_cap = write("at_cap.json", {"even_dim": MAX_DIM, "odd_dim": 0, **one_entry})
    code, out, _ = run(capsys, "commutator", at_cap)
    assert code == 0 and parse(out).algebra.space.dim == MAX_DIM


def test_mybe_check_reads_the_coadjoint_action_off_the_rows(capsys, tmp_path):
    # a 20|20 algebra where b_0 scales every other basis vector, and r = 0;
    # n dense n x n coadjoint matrices took a 4.3 MB peak here
    n = 40
    mul = [[0, j, j, "1"] for j in range(1, n)] + [[j, 0, j, "-1"] for j in range(1, n)]
    path = tmp_path / "r_zero_40.json"
    path.write_text(json.dumps({
        "format": "superalg/1", "even_dim": 20, "odd_dim": 20, "products": {"mul": mul},
        "tensor2": {"parity": 0, "coeffs": [["0"] * n] * n}}))
    tracemalloc.start()
    try:
        code = main(["mybe-check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1:] == [f"operator-form: pass, {n * n} pairs", "agreement: yes"]
    assert peak < 1.5e6


def test_console_script_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "supermalcev.cli", "check",
         str(FIX / "sl2.json"), "--identity", "malcev"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "malcev: pass, 81 quadruples" in result.stdout


def test_timings_flag_fills_wall_time(capsys):
    code, out, _ = run(capsys, "check", str(FIX / "sl2.json"),
                       "--identity", "malcev", "--json", "--timings")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["wall_time_ms"], float)


def prec_succ_document(dim, blocks):
    """A dim|0 document with zero prec/succ products and the named blocks:
    linear_map (domain 'algebra'), module_map (a linear_map with domain
    'module'), bilinear_form, tensor2, bimodule; every matrix is zero."""
    zeros = [["0"] * dim for _ in range(dim)]
    doc = {"format": "superalg/1", "even_dim": dim, "odd_dim": 0,
           "basis_labels": [f"e{i + 1}" for i in range(dim)],
           "products": {"prec": [], "succ": []}}
    for block in blocks:
        if block in ("linear_map", "module_map"):
            domain = "algebra" if block == "linear_map" else "module"
            doc["linear_map"] = {"domain": domain, "matrix": zeros}
        elif block == "bilinear_form":
            doc["bilinear_form"] = {"matrix": zeros}
        elif block == "tensor2":
            doc["tensor2"] = {"parity": 0, "coeffs": zeros}
        elif block == "bimodule":
            doc["bimodule"] = {"even_dim": dim, "odd_dim": 0,
                               "basis_labels": [f"v{i + 1}" for i in range(dim)],
                               "left": [zeros] * dim, "right": [zeros] * dim}
    return doc


# (command and options, blocks of the prec/succ document, what needs 'mul')
MISSING_MUL_CASES = [
    (["rb-check"], ["linear_map"], "rb-check"),
    (["rb-check", "--sign-variant"], ["linear_map"], "rb-check"),
    (["construct", "--via", "rb"], ["linear_map"], "construct"),
    (["construct", "--via", "rb-inv"], ["linear_map"], "construct"),
    (["construct", "--via", "symplectic"], ["bilinear_form"], "construct"),
    (["construct", "--via", "prealt-oop"], ["bimodule", "module_map"], "construct"),
    (["mybe-check"], ["tensor2"], "mybe-check"),
    (["canonical-r"], [], "canonical-r"),
    (["symplectic"], ["tensor2"], "symplectic"),
    (["check", "--identity", "bimodule"], ["bimodule"], "bimodule check"),
    (["oop-check"], ["bimodule", "module_map"], "oop-check"),
    (["semidirect"], ["bimodule"], "semidirect"),
    (["report"], ["bimodule"], "bimodule check"),
    (["report"], ["tensor2"], "mybe check"),
    (["commutator"], [], "commutator"),
]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("argv, blocks, what", MISSING_MUL_CASES,
                         ids=[" ".join(c[0]) + "/" + ",".join(c[1]) for c in MISSING_MUL_CASES])
def test_missing_mul_product_exits_2(capsys, tmp_path, dim, argv, blocks, what):
    path = tmp_path / "prec_succ.json"
    path.write_text(json.dumps(prec_succ_document(dim, blocks)))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {what} needs a 'mul' product\n"
    assert "Traceback" not in err


def test_operator_dimension_mismatch_exits_2(capsys, tmp_path):
    # a 1-dim algebra, a 2-dim representation, and T defined on the algebra
    doc = {"format": "superalg/1", "even_dim": 1, "odd_dim": 0, "basis_labels": ["a"],
           "products": {"mul": []},
           "representation": {"even_dim": 2, "odd_dim": 0, "basis_labels": ["v1", "v2"],
                              "matrices": [[["0", "0"], ["0", "0"]]]},
           "linear_map": {"domain": "algebra", "matrix": [["1"]]}}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    for argv in (["oop-check", str(path)], ["construct", str(path), "--via", "oop"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: o-operator: operator has (even, odd) dimensions")
        assert err.count("\n") == 1


def test_failed_precondition_prints_json_report(capsys, tmp_path):
    code, out, _ = run(capsys, "canonical-r", str(FIX / "broken_premalcev.json"), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "canonical-r"
    assert payload["exit_status"] == 1
    assert [(c["identity"], c["verdict"]) for c in payload["checks"]] == [("pre-malcev", "fail")]
    bad = tmp_path / "bad_rb.json"
    doc = json.loads((FIX / "sl2_rb.json").read_text())
    doc["linear_map"]["matrix"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "construct", str(bad), "--via", "rb", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "construct"
    assert payload["exit_status"] == 1
    assert [(c["identity"], c["verdict"]) for c in payload["checks"]] == [("rota-baxter", "fail")]


def test_report_rejects_unknown_identity(capsys):
    code, out, err = run(capsys, "report", str(FIX / "sl2.json"),
                         "--identities", "malcev,bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown identity 'bogus'")
    assert err.count("\n") == 1


def test_unwritable_out_exits_2(capsys, tmp_path):
    out_file = str(tmp_path / "missing" / "out.json")
    for argv in (["commutator", str(FIX / "sl2.json")],
                 ["build-r", str(FIX / "sl2_adjoint_rb.json")]):
        code, out, err = run(capsys, *argv, "--out", out_file)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_file}: ")
        assert err.count("\n") == 1
