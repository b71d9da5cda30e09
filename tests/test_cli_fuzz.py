"""Exit-code contract of the CLI on mutated fixtures.

Every subcommand, every ``check --identity`` and every ``construct --via``
runs in-process on seeded mutations of the small fixtures.  Whatever the
input, the CLI exits 0, 1 or 2, and never with a traceback; exit 2 prints
one ``error:`` line on stderr.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from supermalcev.cli import main

FIX = Path(__file__).resolve().parent.parent / "fixtures"

SMALL_FIXTURES = sorted(p.name for p in FIX.glob("sl2*.json")) + [
    "heisenberg11.json", "pre_malcev11.json", "abelian22_r.json"]

BLOCKS = ("products", "representation", "bimodule", "linear_map", "tensor2",
          "bilinear_form")

COMMANDS = (
    [["check", "--identity", identity] for identity in (
        "left-alt", "right-alt", "malcev", "pre-malcev", "pre-alternative",
        "representation", "bimodule", "symplectic")]
    + [["commutator"], ["semidirect"], ["dual-rep"], ["oop-check"], ["rb-check"],
       ["rb-check", "--sign-variant"], ["mybe-check"], ["build-r"], ["canonical-r"],
       ["symplectic"], ["report"], ["report", "--json"]]
    + [["construct", "--via", via] for via in (
        "oop", "rb", "rb-inv", "symplectic", "prealt-oop")]
)


def _sites(node, pick, path=()):
    """Paths (key tuples) of the nodes of a JSON tree for which ``pick`` holds."""
    if pick(path, node):
        yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _sites(child, pick, path + (key,))


def _is_matrix(path, node):
    return (isinstance(node, list) and bool(node) and isinstance(node[0], list)
            and bool(path) and path[0] != "products" and not isinstance(node[0][0], list))


def _is_scalar(path, node):
    return isinstance(node, str) and len(path) > 1


def _is_dimension(path, node):
    return bool(path) and path[-1] in ("even_dim", "odd_dim")


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def drop_block(doc, rng):
    present = [b for b in BLOCKS if b in doc]
    del doc[rng.choice(present)]


def rename_mul(doc, rng):
    if "mul" not in doc["products"]:
        return False
    triples = doc["products"].pop("mul")
    doc["products"].update({"prec": triples, "succ": copy.deepcopy(triples)})


def null_matrix(doc, rng):
    sites = list(_sites(doc, _is_matrix))
    if not sites:
        return False
    _set(doc, rng.choice(sites), None)


def bump_dimension(doc, rng):
    path = rng.choice(list(_sites(doc, _is_dimension)))
    _set(doc, path, _get(doc, path) + 1)


def huge_scalar(doc, rng):
    _set(doc, rng.choice(list(_sites(doc, _is_scalar))), "1e400")


def nest_deeply(doc, rng):
    """A block's value becomes 100 000 nested arrays; returns the text."""
    doc[rng.choice([b for b in BLOCKS if b in doc])] = "NESTED"
    return json.dumps(doc).replace('"NESTED"', "[" * 100_000 + "]" * 100_000)


# each edits the document in place, and returns False when it does not
# apply, or the text to write when the document cannot hold it
MUTATIONS = (drop_block, rename_mul, null_matrix, bump_dimension, huge_scalar, nest_deeply)


@pytest.mark.parametrize("fixture", SMALL_FIXTURES)
def test_mutated_fixtures_keep_the_exit_code_contract(capsys, tmp_path, fixture):
    original = json.loads((FIX / fixture).read_text())
    failures = []
    for mutate in MUTATIONS:
        doc = copy.deepcopy(original)
        text = mutate(doc, random.Random(f"{fixture}:{mutate.__name__}"))
        if text is False:
            continue
        path = tmp_path / f"{mutate.__name__}.json"
        path.write_text(text or json.dumps(doc))
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            try:
                code = main(argv)
            except Exception as exc:  # would end the process with a traceback
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or "Traceback" in err or (
                    code == 2 and not (err.startswith("error: ") and err.count("\n") == 1)):
                failures.append((mutate.__name__, " ".join(command), code, err))
    assert not failures
