"""The library example in README.md runs, and its values are what its
comments say they are, so a README that drifts from the API fails."""

import ast
import os
import re
from fractions import Fraction

from hkit import IntMatrix

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run_example():
    """Run the README's ```python block statement by statement. Returns its
    namespace and the value of each bare expression, keyed by its source."""
    with open(README, encoding="utf-8") as f:
        (source,) = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_library_example():
    ns, values = run_example()
    assert ns["A"] == IntMatrix([[1, 0, -1], [0, 1, -1]])
    assert [c.multiplicity for c in ns["arr"].components] == [3]
    # z1 z2 z3, w1 w2 w3 and the three z_i w_i
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    assert {(g.u, g.v) for g in ns["basis"]} == {
        ((1, 1, 1), (0, 0, 0)),
        ((0, 0, 0), (1, 1, 1)),
    } | {(e, e) for e in units}
    assert values["coordinate_dimension(H)"] == 2
    # p q = s^3: the two pure generators against the one s class, cubed
    assert values["pres.reduced.relations"] == (((("g", 0), ("g", 1)), (("s", 0),) * 3, 1),)
    assert values["leaf_classification(H)[0].singularity"] == "A2"
    assert ns["line"].offsets == (Fraction(0), Fraction(1), Fraction(2))
    assert values["verify_genericity(H, line).all_pass"] is True
    walls = values["family_slice(H, line, 1)"].components
    assert [c.multiplicity for c in walls] == [1, 1, 1]
    assert len({c.hyperplane for c in walls}) == 3
    assert values["rep.equal"] is True
