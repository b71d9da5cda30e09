"""The README's library quick tour runs against the package in src/ and
gives the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The python block under the "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs_and_states_its_values():
    ns: dict = {}
    exec(compile(quick_tour(), str(README), "exec"), ns)
    report = ns["check_left_alternative"](ns["octonions"])
    assert report.ok and report.checked_tuples == 512
    report = ns["check_malcev"](ns["bracket"])
    assert report.ok and report.checked_tuples == 4096
    assert ns["check_pre_malcev"](ns["P"]).ok
    c, c11 = ns["c"], ns["c11"]
    assert c.algebra.space.dim == 6
    assert (ns["mybe_lhs"](c).is_zero(), ns["check_operator_form"](c).ok) == (True, True)
    space = c11.algebra.space
    assert (space.even_dim, space.odd_dim) == (2, 2)
    odd = range(space.even_dim, space.dim)
    assert any(c11.r.coeffs[i][j] for i in odd for j in odd)
    assert all(c11.r.coeffs[i][j] == c11.r.coeffs[j][i] for i in odd for j in odd)
    assert ns["check_symplectic"](ns["omega"], c11.algebra).ok
