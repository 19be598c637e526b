"""One owner of factorizations and of dense linear algebra, by an AST scan.

Every sparse factorization is made in ``grid.py``, where its ordering and
lifetime are decided; the dense eigensolvers of ``scipy.linalg`` are read
by the pencil spectrum (``spectral.py``) and by the map's tridiagonal
(``forward.py``) only.
"""

import ast

from conftest import SRC

PACKAGE = SRC / "fluoinv"


def modules():
    """(file name, syntax tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def names_splu(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "splu"
            or isinstance(node, ast.Attribute) and node.attr == "splu"
            or isinstance(node, ast.alias) and node.name == "splu")


def imports_scipy_linalg(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.linalg") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("scipy.linalg") \
            or node.module == "scipy" and any(alias.name == "linalg" for alias in node.names)
    return False


def test_only_the_grid_factors():
    referencing = {name for name, tree in modules() if any(map(names_splu, ast.walk(tree)))}
    assert referencing == {"grid.py"}


def test_scipy_linalg_is_imported_by_spectral_and_forward_only():
    importing = {name for name, tree in modules()
                 if any(map(imports_scipy_linalg, ast.walk(tree)))}
    assert importing == {"spectral.py", "forward.py"}
