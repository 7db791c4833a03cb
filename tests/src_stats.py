"""Size of the talex sources, per module and in total.

For each module: its lines, its functions (``def``, nested ones and methods
included), their named parameters other than ``self`` and ``cls`` (``*args``
and ``**kwargs`` are not counted), and how many of those parameters have a
default.  Run from the repository root:

    python tests/src_stats.py [SRC_DIR]

SRC_DIR defaults to ``src/talex``.
"""

import ast
import sys
from pathlib import Path


def module_stats(path):
    """(lines, functions, parameters, defaulted parameters) of one file."""
    text = path.read_text()
    funcs = params = defaulted = 0
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        funcs += 1
        a = node.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += sum(1 for name in names if name not in ("self", "cls"))
        defaulted += len(a.defaults) + sum(1 for d in a.kw_defaults if d is not None)
    return len(text.splitlines()), funcs, params, defaulted


def main(argv):
    src = Path(argv[1] if len(argv) > 1 else "src/talex")
    rows = [(p.name, *module_stats(p)) for p in sorted(src.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in zip(*(r[1:] for r in rows)))))
    print(f"{'module':<16}{'lines':>7}{'funcs':>7}{'params':>8}{'defaulted':>11}")
    for name, lines, funcs, params, defaulted in rows:
        print(f"{name:<16}{lines:>7}{funcs:>7}{params:>8}{defaulted:>11}")


if __name__ == "__main__":
    main(sys.argv)
