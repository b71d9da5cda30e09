"""Every CLI subcommand over every fixture, plain and with --json, compared
byte for byte with the digests recorded in ``tests/cli_golden.json``.

Each request runs in-process from the repository root, so the file names in
reports and error lines are the relative ``fixtures/...`` paths.  A request
is recorded as the SHA-256 of its exit code, stdout and stderr; a request
that raises records the exception's type in place of the exit code.

Regenerate the digests (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from supermalcev.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

# every subcommand, with each value of the option that selects what it does
COMMANDS = (
    *(["check", "--identity", name] for name in (
        "left-alt", "right-alt", "malcev", "pre-malcev", "pre-alternative",
        "representation", "bimodule", "symplectic")),
    ["commutator"], ["semidirect"], ["dual-rep"], ["oop-check"], ["rb-check"],
    *(["construct", "--via", via] for via in ("oop", "rb", "rb-inv", "symplectic", "prealt-oop")),
    ["mybe-check"], ["build-r"], ["canonical-r"], ["symplectic"], ["report"],
)


def requests():
    """Each request's argument list, in a fixed order."""
    fixtures = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    for command in COMMANDS:
        for name in fixtures:
            for extra in ([], ["--json"]):
                yield [command[0], f"fixtures/{name}", *command[1:], *extra]


def outcome(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as exc:  # recorded, so a change in what raises shows too
            code = f"raised {type(exc).__name__}"
    payload = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode()).hexdigest()


def digests() -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {" ".join(argv): outcome(argv) for argv in requests()}
    finally:
        os.chdir(cwd)


def test_cli_reports_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert got.keys() == expected.keys()
    assert [key for key in got if got[key] != expected[key]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
