"""No float decides an outcome outside the places named below.

Every call of ``float`` or ``complex``, every use of ``cmath`` and of a
floating-point ``math`` name (all of ``math`` but its integer functions),
and every call of ``max_deviation`` (the largest of an RH report's float
deviations) is listed by the function that holds it.  The source is read
with ``ast``, not imported.  A site outside the allowlist fails, and so
does an allowlist entry with no site left, so the list stays the README's
"where floats appear", checkable.
"""

import ast
from pathlib import Path

import nazeta

EXACT_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}

ROOT_FINDER = "the root finder: floats refine the simple roots of exact square-free factors"
RESIDUAL_CHECK = "criterion 9's residual check of displayed roots"
UNTIL_ITEM_6 = "uniformity matcher's float pole lines (until ROADMAP item 6)"

# module.function (or module.Class.method) -> why floats are allowed there
ALLOWED = {
    "algebra._aberth": ROOT_FINDER,
    "algebra._scaled_coefficients": ROOT_FINDER,
    "algebra._companion_roots": ROOT_FINDER,
    "algebra._symmetrize_conjugates": ROOT_FINDER,
    "algebra.Poly.evaluate_complex": RESIDUAL_CHECK,
    "acceptance.criterion_9": RESIDUAL_CHECK,
    "purezeta.rh_report": "display fields: root moduli and deviations; the verdict is exact",
    "groupzeta.group_zeta_zeros": "display fields: zeros in s and deviations",
    "cli.cmd_pure": "display fields: the --csv-out rows of zeros in s",
    "numfield.siegel_volume": "numfield: real volumes from a table of zeta values",
    "numfield.moduli_volume": "numfield: real volumes from a table of zeta values",
    "acceptance.criterion_7": "numfield's volumes against powers of pi",
    "groupzeta._pole_lines": UNTIL_ITEM_6,
    "groupzeta._lines_match": UNTIL_ITEM_6,
    "acceptance.criterion_3": "deviation clause of two RH checks (until ROADMAP item 1b)",
    "purezeta.mass_digits_estimate": "a refusal (exit 2) on a digit estimate, not a verdict",
}


def _is_float_site(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in ("float", "complex"):
            return True
        return isinstance(f, ast.Attribute) and f.attr == "max_deviation"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = node.value.id
        return module == "cmath" or (module == "math" and node.attr not in EXACT_MATH)
    return False


def float_sites() -> dict[str, list[int]]:
    """module.function (or module.Class.method) -> lines of its float sites."""
    sites: dict[str, list[int]] = {}
    for path in sorted(Path(nazeta.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owners = [(getattr(top, "name", "<module>"), top)]
            if isinstance(top, ast.ClassDef):
                owners = [
                    (f"{top.name}.{getattr(node, 'name', '<body>')}", node)
                    for node in top.body
                ]
            for name, owner in owners:
                for node in ast.walk(owner):
                    if _is_float_site(node):
                        sites.setdefault(f"{path.stem}.{name}", []).append(node.lineno)
    return {name: sorted(lines) for name, lines in sites.items()}


def test_floats_appear_only_where_allowed():
    sites = float_sites()
    unlisted = {name: lines for name, lines in sites.items() if name not in ALLOWED}
    assert not unlisted, f"float sites outside the allowlist: {unlisted}"
    assert set(ALLOWED) <= set(sites), f"stale entries: {set(ALLOWED) - set(sites)}"
