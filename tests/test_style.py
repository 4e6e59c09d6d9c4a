"""Source conventions that no configured linter checks."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spirallab"

#: The longest line the package source may hold.
MAX_LINE = 99


def test_no_source_line_is_longer_than_99_characters():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert sorted(SRC.glob("*.py")), "no package source found"
    assert long_lines == []


def test_only_cli_knows_the_json_forms():
    # configs are read and reports written in cli.py alone, so the library carries no JSON code
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "json" for module in modules):
                offenders.append(f"{path.name}:{node.lineno}: imports json")
            if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "from_json"):
                offenders.append(f"{path.name}:{node.lineno}: defines {node.name}")
    assert offenders == []


def test_cli_turns_only_input_errors_into_config_errors():
    # main catches the input errors alone, and only the file boundary catches ValueError (open()
    # and json.load raise it for bad bytes), so a bug that raises one is a traceback, never a
    # config error
    caught = {}  # function name -> the exception names its except clauses catch
    for func in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler):
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    caught.setdefault(func.name, set()).update(map(ast.unparse, types))
    assert caught["main"] == {"SystemExit", "InvalidParams", "OverflowError"}
    assert sorted(name for name, types in caught.items() if "ValueError" in types) == [
        "_load_config",
        "_open_out",
    ]


#: numpy's module-level products, each a Python-level dispatch before its BLAS call.
_NUMPY_PRODUCTS = {"dot", "vdot", "inner", "matmul"}

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_no_numpy_product_function_is_called_in_a_loop():
    # a recurrence step calls its dot as the ndarray method, which reaches the same cblas
    # routine without np.dot's dispatch (a step at order 256: 1.38 against 1.84 us)
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if not isinstance(loop, _LOOPS):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in _NUMPY_PRODUCTS
                ):
                    offenders.add(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert sorted(offenders) == []
