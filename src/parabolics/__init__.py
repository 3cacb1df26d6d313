"""Parabolic gradings of simple Lie algebras with machine-checked postconditions.

Modules by theme:

* rootsys / grading: integer root systems and colour-induced gradings
* walkdiag / classify: weight-diagram calculus and the bundled case/table data
* cxlinalg / mpchar: complex linear algebra, Moore-Penrose characteristics
* spinor / ampleness: half-spinor modules and verified deformation searches
* report: the verification report every check returns
* cli: the `parabolics` command
"""

from .grading import ColouredDiagram, Grading, compute_grading, diagram, grade
from .rootsys import RootSystem, build_root_system, is_root, parse_type

__version__ = "0.1.0"

__all__ = [
    "ColouredDiagram",
    "Grading",
    "RootSystem",
    "build_root_system",
    "compute_grading",
    "diagram",
    "grade",
    "is_root",
    "parse_type",
    "__version__",
]
