"""Where the integer form and the packed layout of a polynomial are read.

The kernels of `algebra` keep their own integer interior: a product, a
derivation, a substitution, an evaluation or an exact division takes
rational polynomials and returns rational polynomials, so no caller
rescales.  Outside `algebra`, only `symmetry.extract_determining` reads
`integer_form`: it scales F because a homogeneous system does not change,
not for speed.  The packed monomial layout (field shifts, masks, the atom
table, the guard bits) is read outside `algebra` only where a kernel of
the determining system or of the exact transport works on packed
monomials; everything else decodes with `mono_pairs`.  The references are
found with `ast`.
"""

import ast
from pathlib import Path

import liejet

SRC = Path(liejet.__file__).resolve().parent


def _readers(name: str) -> set[str]:
    """module.function of every reference to `name` outside algebra.py,
    named by its innermost enclosing function ("module" at top level)."""
    out = set()

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where.split('.')[0]}.{child.name}"
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name):
                out.add(inner)
            walk(child, inner)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebra.py":
            walk(ast.parse(path.read_text()), path.stem)
    return out


def test_integer_form_read_only_by_the_determining_system():
    assert _readers("integer_form") == {"symmetry.extract_determining"}


# the names of the packed layout's internals
LAYOUT = ("_shift", "_fields", "_field_mask", "_check_exponents", "_SHIFT",
          "_ATOM_AT", "_GUARD")


def test_packed_layout_read_only_by_the_packed_kernels():
    assert set().union(*map(_readers, LAYOUT)) == {
        "symmetry._shards", "symmetry._linear_system",
        "symmetry.extract_determining", "groups.transport_local"}
