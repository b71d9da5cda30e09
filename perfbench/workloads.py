"""The benchmark's four workloads: inputs, operations and output checks.

Each workload has a ``setup(ctx)`` that builds its inputs from the seed and
an ``ops(ctx, state, results)`` generator that yields the operations of one
pass.  The runner times each ``Op.call`` and stores its result in
``results`` under the op's name, so later operations of the pass (the
pipeline run on every search hit) can read earlier results.  After the pass
the runner calls ``Op.check(result, results)``; an operation fails if it
raised or its check is false.

Operations call the library through module attributes (``sm.check_malcev``)
so that a recorder's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import supermalcev as sm
from supermalcev import fixtures
from supermalcev.graded import SuperSpace

WITNESS_LIMIT = 16  # the checkers' default
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], bool]


@dataclass
class Context:
    root: Path  # checkout root; every child process runs there
    workdir: Path  # scratch files of the run, inside the checkout
    seed: int
    recorder: object = None  # tracing.Recorder of the current pass, or None


@dataclass
class Reply:
    """Outcome of one child process."""
    code: int
    stdout: bytes
    traceback: bool
    maxrss_kb: int


class OpError:
    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__


def spawn(argv: list[str], root: Path, workdir: Path) -> Reply:
    """Run a child with ``root/src`` on its path to completion and return its
    exit code, stdout, whether stderr holds a traceback, and its own peak RSS
    (from ``wait4``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Reply(proc.returncode, out_path.read_bytes(),
                 b"Traceback" in err_path.read_bytes(), usage.ru_maxrss)


# -- checks and digests -----------------------------------------------------


def consistent(r) -> bool:
    """Internal consistency of a ViolationReport: verdict, counts, witnesses."""
    return (isinstance(r, sm.ViolationReport)
            and len(r.witnesses) == min(r.violation_count, WITNESS_LIMIT)
            and r.ok == (r.violation_count == 0 and not r.precondition_failures))


def expect(ok: bool, tuples: int):
    """Check: a consistent report with this verdict and exact tuple count."""
    return lambda r, _: consistent(r) and r.ok is ok and r.checked_tuples == tuples


def counts(tuples: int):
    """Check for random inputs, whose verdict is not known in advance."""
    return lambda r, _: consistent(r) and r.checked_tuples == tuples


def canon(obj):
    """JSON-able canonical form of an operation result, for the digest."""
    if isinstance(obj, sm.ViolationReport):
        return ["report", obj.identity, obj.ok, obj.checked_tuples, obj.violation_count,
                list(obj.precondition_failures),
                [[list(indices), canon(left)] for indices, left in obj.witnesses]]
    if isinstance(obj, sm.GradedVector):
        return [str(c) for c in obj.coords]
    if isinstance(obj, sm.GradedLinearMap):
        return [[str(c) for c in row] for row in obj.matrix]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Reply):
        return ["reply", obj.code, hashlib.sha256(obj.stdout).hexdigest(), obj.traceback]
    if isinstance(obj, OpError):
        return ["error", obj.kind]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(names: list[str], results: dict) -> str:
    payload = json.dumps([[name, canon(results[name])] for name in names])
    return hashlib.sha256(payload.encode()).hexdigest()


# -- octonions ---------------------------------------------------------------
# Exact checks that all pass on sparse 8-dim tables; every residual is zero,
# so the witness path stays idle and the cost is the checkers' arithmetic.


def _octonions_setup(ctx):
    octonions = fixtures.split_octonions()
    return {
        "O": octonions,
        "M": sm.commutator_superalgebra(octonions),
        "zorn": sm.regular_bimodule(fixtures.zorn_split_octonions()),
    }


def _octonions_ops(ctx, s, results):
    O, M = s["O"], s["M"]
    yield Op("left_alternative", lambda: sm.check_left_alternative(O), expect(True, 512))
    yield Op("right_alternative", lambda: sm.check_right_alternative(O), expect(True, 512))
    yield Op("malcev_commutator", lambda: sm.check_malcev(M), expect(True, 4096))
    yield Op("zorn_bimodule", lambda: sm.check_alternative_bimodule(s["zorn"]),
             expect(True, 64))
    yield Op("coadjoint_representation",
             lambda: sm.check_malcev_representation(sm.coadjoint_representation(M)),
             expect(True, 512))
    # semidirect criterion: same verdict as the representation check
    yield Op("semidirect_malcev",
             lambda: sm.check_malcev(sm.semidirect_malcev(sm.coadjoint_representation(M))),
             lambda r, res: expect(True, 65536)(r, res)
             and r.ok == getattr(res["coadjoint_representation"], "ok", None))


# -- random_super --------------------------------------------------------------
# Dense, odd-graded random inputs on 2|2 and 3|3: Koszul signs on odd indices
# and thousands of violations per pass, so the witness path is busy.  Entries
# are drawn from {1, 2}: every parity-allowed entry is nonzero, so the seed
# changes the values but not the amount of work.

LOW, HIGH = 1, 2


def _random_setup(ctx):
    rng = random.Random(ctx.seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(11)]
    s22, s33 = SuperSpace(2, 2), SuperSpace(3, 3)

    def product(space, seed, two_products=False):
        return fixtures.random_product(space, seed, LOW, HIGH, two_products)

    def action(algebra, space, seed):
        return fixtures.random_action_maps(algebra, space, seed, LOW, HIGH)

    a2, a3 = product(s22, seeds[0]), product(s33, seeds[1])
    maps = random.Random(seeds[2])
    heisenberg, affine = fixtures.heisenberg_1_1(), fixtures.affine_1_1()
    return {
        "a2": a2,
        "a3": a3,
        "p2": product(s22, seeds[3], two_products=True),
        "r2": sm.Representation(a2, s22, action(a2, s22, seeds[4])),
        "r3": sm.Representation(a3, s33, action(a3, s33, seeds[5])),
        "b2": sm.Bimodule(a2, s22, action(a2, s22, seeds[6]), action(a2, s22, seeds[7])),
        "b3": sm.Bimodule(a3, s33, action(a3, s33, seeds[8]), action(a3, s33, seeds[9])),
        "rb": fixtures.random_even_matrix(s22, s22, 0, maps, LOW, HIGH),
        "oop": fixtures.random_even_matrix(s22, s22, 0, maps, LOW, HIGH),
        "heisenberg_ad": sm.adjoint_representation(heisenberg),
        "affine_coad": sm.coadjoint_representation(affine),
    }


def _same_verdict(rep_name: str, tuples: int):
    """Semidirect criterion: check_malcev(A x| V) agrees with the
    representation check of V."""
    return lambda r, res: counts(tuples)(r, res) and r.ok == getattr(res[rep_name], "ok", None)


def _random_ops(ctx, s, results):
    a2, a3 = s["a2"], s["a3"]
    yield Op("left_alternative_2_2", lambda: sm.check_left_alternative(a2), counts(64))
    yield Op("right_alternative_2_2", lambda: sm.check_right_alternative(a2), counts(64))
    yield Op("malcev_2_2", lambda: sm.check_malcev(a2), counts(256))
    yield Op("pre_malcev_2_2", lambda: sm.check_pre_malcev(a2), counts(256))
    yield Op("pre_alternative_2_2", lambda: sm.check_pre_alternative(s["p2"]), counts(64))
    yield Op("representation_2_2", lambda: sm.check_malcev_representation(s["r2"]), counts(64))
    yield Op("semidirect_2_2", lambda: sm.check_malcev(sm.semidirect_malcev(s["r2"])),
             _same_verdict("representation_2_2", 4096))
    yield Op("bimodule_2_2", lambda: sm.check_alternative_bimodule(s["b2"]), counts(16))
    yield Op("rota_baxter_2_2", lambda: sm.check_rota_baxter(s["rb"], a2), counts(16))
    yield Op("o_operator_2_2", lambda: sm.check_o_operator_malcev(s["oop"], s["r2"]),
             counts(16))
    yield Op("left_alternative_3_3", lambda: sm.check_left_alternative(a3), counts(216))
    yield Op("right_alternative_3_3", lambda: sm.check_right_alternative(a3), counts(216))
    yield Op("malcev_3_3", lambda: sm.check_malcev(a3), counts(1296))
    yield Op("representation_3_3", lambda: sm.check_malcev_representation(s["r3"]),
             counts(216))
    yield Op("bimodule_3_3", lambda: sm.check_alternative_bimodule(s["b3"]), counts(36))
    # passing 1|1 cases: adjoint and coadjoint actions of Lie superalgebras
    yield Op("heisenberg_adjoint", lambda: sm.check_malcev_representation(s["heisenberg_ad"]),
             expect(True, 8))
    yield Op("heisenberg_semidirect",
             lambda: sm.check_malcev(sm.semidirect_malcev(s["heisenberg_ad"])),
             lambda r, res: expect(True, 256)(r, res) and _same_verdict(
                 "heisenberg_adjoint", 256)(r, res))
    yield Op("affine_coadjoint", lambda: sm.check_malcev_representation(s["affine_coad"]),
             expect(True, 8))
    yield Op("affine_semidirect",
             lambda: sm.check_malcev(sm.semidirect_malcev(s["affine_coad"])),
             lambda r, res: expect(True, 256)(r, res) and _same_verdict(
                 "affine_coadjoint", 256)(r, res))


# -- operators_mybe ------------------------------------------------------------
# Grid searches that accept about 0.1% of their candidates, then the
# O-operator -> pre-Malcev -> r-matrix -> MYBE pipeline on every hit.

GRID = (-1, 0, 1)


def _operators_setup(ctx):
    sl2 = fixtures.sl2()
    zorn = fixtures.zorn_split_octonions()
    return {
        "sl2": sl2,
        "ad": sm.adjoint_representation(sl2),
        "support": tuple((i, j) for i in range(3) for j in range(3)),
        "zorn": sm.regular_bimodule(zorn),
        "zorn_entries": tuple((i, j) for i in range(8) for j in range(8)),
        "pre_malcev_1_1": fixtures.pre_malcev_1_1(),
    }


def _mybe(c):
    """Tensor and operator form of the MYBE on one candidate."""
    return sm.mybe_lhs(c).is_zero(), sm.check_operator_form(c)


def _solves_mybe(zero, form) -> bool:
    """Both forms agree, and the candidate solves the MYBE."""
    return consistent(form) and zero is True and form.ok is True


def _is_list(value) -> bool:
    return isinstance(value, list)


def _operators_ops(ctx, s, results):
    sl2, ad, support = s["sl2"], s["ad"], s["support"]
    yield Op("search_rota_baxter",
             lambda: sm.search_rota_baxter(sl2, GRID, support=support),
             lambda r, _: _is_list(r) and len(r) > 0)
    yield Op("search_o_operators_malcev",
             lambda: sm.search_o_operators_malcev(ad, GRID, support=support),
             lambda r, _: _is_list(r) and len(r) > 0)

    def alternative_sweep():
        """64 single-entry searches, each hit checked by its own checker."""
        found = [sm.search_o_operators_alternative(s["zorn"], GRID, support=(entry,))
                 for entry in s["zorn_entries"]]
        return found, [sm.check_o_operator_alternative(T, s["zorn"])
                       for hits in found for T in hits]
    yield Op("alternative_sweep", alternative_sweep,
             lambda r, _: all(hits for hits in r[0])
             and all(expect(True, 64)(report, None) for report in r[1]))

    # every hit passes its own checker, and the pipeline that follows it
    rbs = results["search_rota_baxter"]
    for k, R in enumerate(rbs if _is_list(rbs) else ()):
        def rb_pipeline(R=R):
            own = sm.check_rota_baxter(R, sl2)
            P = sm.pre_malcev_from_rota_baxter(R, sl2)
            return (own, sm.check_pre_malcev(P)) + _mybe(sm.canonical_r(P))
        yield Op(f"rota_baxter_hit_{k}", rb_pipeline,
                 lambda r, _: r[0].ok and r[1].ok and _solves_mybe(r[2], r[3]))

    oops = results["search_o_operators_malcev"]
    for k, T in enumerate(oops if _is_list(oops) else ()):
        def oop_pipeline(T=T):
            own = sm.check_o_operator_malcev(T, ad)
            P = sm.pre_malcev_from_o_operator(T, ad)
            return (own, sm.check_pre_malcev(P)) + _mybe(sm.r_from_o_operator(T, ad))
        yield Op(f"o_operator_hit_{k}", oop_pipeline,
                 lambda r, _: r[0].ok and r[1].ok and _solves_mybe(r[2], r[3]))

    def symplectic_1_1():
        c = sm.canonical_r(s["pre_malcev_1_1"])
        omega = sm.symplectic_from_r(c)
        return _mybe(c) + (sm.check_symplectic(omega, c.algebra),)
    yield Op("canonical_symplectic_1_1", symplectic_1_1,
             lambda r, _: _solves_mybe(r[0], r[1]) and expect(True, 64)(r[2], None))


# -- cli -------------------------------------------------------------------------
# One client in a closed loop: each request is a fresh ``python -m
# supermalcev.cli`` process, so interpreter start, import, parse and
# serialize dominate.  Each entry: op name, CLI arguments, documented exit
# code.  ``{work}`` is the run's scratch directory.

CLI_REQUESTS = (
    ("report_sl2", ["report", "fixtures/sl2.json"], 1),
    ("report_sl2_adjoint", ["report", "fixtures/sl2_adjoint.json",
                            "--identities", "malcev,representation"], 0),
    ("report_sl2_r_solution", ["report", "fixtures/sl2_r_solution.json",
                               "--identities", "malcev,mybe", "--json"], 0),
    ("check_octonions_left_alt", ["check", "fixtures/split_octonions.json",
                                  "--identity", "left-alt"], 0),
    ("check_sl2_malcev", ["check", "fixtures/sl2.json", "--identity", "malcev", "--json"], 0),
    ("check_broken_pre_malcev", ["check", "fixtures/broken_premalcev.json",
                                 "--identity", "pre-malcev"], 1),
    ("check_zorn_pre_alternative", ["check", "{work}/zorn_prealt.json",
                                    "--identity", "pre-alternative"], 0),
    ("commutator_octonions", ["commutator", "fixtures/split_octonions.json"], 0),
    ("semidirect_sl2_adjoint", ["semidirect", "fixtures/sl2_adjoint.json"], 0),
    ("semidirect_octonion_coadjoint", ["semidirect", "{work}/octonion_coadjoint.json"], 0),
    ("dual_rep_octonion_coadjoint", ["dual-rep", "{work}/octonion_coadjoint.json"], 0),
    ("construct_rb", ["construct", "fixtures/sl2_rb.json", "--via", "rb"], 0),
    ("construct_oop", ["construct", "fixtures/sl2_adjoint_rb.json", "--via", "oop"], 0),
    ("construct_prealt_oop", ["construct", "fixtures/zorn_regular_rb.json",
                              "--via", "prealt-oop"], 0),
    ("mybe_check_solution", ["mybe-check", "fixtures/sl2_r_solution.json"], 0),
    ("mybe_check_nonsolution", ["mybe-check", "fixtures/sl2_r_nonsolution.json"], 1),
    ("build_r", ["build-r", "fixtures/sl2_adjoint_rb.json"], 0),
    ("canonical_r_sl2", ["canonical-r", "fixtures/pre_lie_sl2.json"], 0),
    ("canonical_r_1_1", ["canonical-r", "fixtures/pre_malcev11.json", "--json"], 0),
    ("symplectic_abelian", ["symplectic", "fixtures/abelian22_r.json"], 0),
    # error paths: malformed or unsupported input exits 2 without a traceback
    ("error_truncated_json", ["check", "{work}/truncated.json", "--identity", "malcev"], 2),
    ("error_missing_block", ["check", "fixtures/sl2.json", "--identity", "representation"], 2),
    ("error_symplectic_prec_succ", ["check", "{work}/prealt_form.json",
                                    "--identity", "symplectic"], 2),
    ("error_report_prec_succ", ["report", "{work}/prealt_form.json"], 2),
)

# Requests that fail at this version of the library: a prec/succ document
# with a bilinear_form raises KeyError (traceback, exit 1) instead of
# exiting 2.  They stay in the workload and count as failed; a failure of
# any other operation makes the run incorrect.
KNOWN_DEFECTS = frozenset({"error_symplectic_prec_succ", "error_report_prec_succ"})


def _cli_setup(ctx):
    from supermalcev.serialize import AlgebraDocument, parse, serialize

    work = ctx.workdir
    octonion_bracket = sm.commutator_superalgebra(fixtures.split_octonions())
    (work / "octonion_coadjoint.json").write_text(serialize(AlgebraDocument(
        octonion_bracket, representation=sm.coadjoint_representation(octonion_bracket))),
        encoding="utf-8")
    # the document ``construct --via prealt-oop`` writes for the Zorn fixture
    zorn = parse((ctx.root / "fixtures" / "zorn_regular_rb.json").read_bytes())
    prealt = sm.pre_alternative_from_o_operator(zorn.linear_map, zorn.bimodule)
    (work / "zorn_prealt.json").write_text(serialize(AlgebraDocument(prealt)),
                                           encoding="utf-8")
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(8)) for i in range(8))
    (work / "prealt_form.json").write_text(serialize(AlgebraDocument(
        prealt, bilinear_form=sm.BilinearForm(prealt.space, identity))), encoding="utf-8")
    sl2_text = (ctx.root / "fixtures" / "sl2.json").read_bytes()
    (work / "truncated.json").write_bytes(sl2_text[: len(sl2_text) // 2])
    return {"work": os.path.relpath(work, ctx.root)}


def _cli_request(ctx, argv: list[str]) -> Reply:
    recorder = ctx.recorder
    if recorder is None:
        return spawn([sys.executable, "-m", "supermalcev.cli"] + argv, ctx.root, ctx.workdir)
    record = ctx.workdir / "child_record.json"
    mode = "count" if recorder.count_calls else "trace"
    child = str(Path(__file__).with_name("cli_child.py"))
    reply = spawn([sys.executable, child, str(record), mode] + argv, ctx.root, ctx.workdir)
    data = json.loads(record.read_text(encoding="utf-8"))
    recorder.adopt(data["spans"], data["facts"])
    return reply


def _cli_ops(ctx, s, results):
    for name, template, code in CLI_REQUESTS:
        argv = [arg.format(work=s["work"]) for arg in template]
        yield Op(name, lambda argv=argv: _cli_request(ctx, argv),
                 lambda r, _, code=code: r.code == code and not r.traceback)


# name -> (setup, ops, whether the operations run in this process)
WORKLOADS = {
    "octonions": (_octonions_setup, _octonions_ops, True),
    "random_super": (_random_setup, _random_ops, True),
    "operators_mybe": (_operators_setup, _operators_ops, True),
    "cli": (_cli_setup, _cli_ops, False),
}


def setup(name: str, ctx: Context):
    return WORKLOADS[name][0](ctx)


def ops(name: str, ctx: Context, state, results: dict):
    return WORKLOADS[name][1](ctx, state, results)


def in_process(name: str) -> bool:
    return WORKLOADS[name][2]
