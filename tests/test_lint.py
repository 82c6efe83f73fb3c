"""Source rules checked on the syntax tree of ``src/stppfit``.

Only ``stppfit.io`` writes files. It opens each one with ``newline="\\n"``,
so every output is UTF-8 with ``\\n`` line endings on every platform; a
``Path.write_text`` elsewhere would write ``os.linesep``.

Only ``stppfit.glm`` calls LAPACK, through ``np.linalg`` or scipy's compiled
``_flapack`` extension, which it alone loads. There the rank check reduces
the design in row blocks, and scipy sees only n_cols x n_cols matrices, so
its OpenBLAS thread pool stays idle; a call elsewhere could hand either
library the whole design. No module imports ``scipy.linalg``: the package
costs about eight times the memory of the one extension a fit needs.

The key table of the fitted model JSON in FORMATS.md, and its ``fit`` row,
name exactly the keys ``model_to_dict`` writes, in order, so the format
document cannot drift from the writer.
"""

import ast
import re
from pathlib import Path

import pytest

from stppfit.io import load_model, model_to_dict

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stppfit"
WRITE_CALLS = {"write_text", "write_bytes"}
MODE_LETTERS = set("rwxabt+")
LINALG_MODULES = {"numpy.linalg", "scipy.linalg"}


def _open_mode(call: ast.Call) -> str:
    """The mode of an ``open`` call: the ``mode`` keyword, the second argument of the builtin,
    or a string argument made of mode letters (``Path.open("w")``); "r" when none is given.
    A mode that is not a string literal reads as "?", which counts as writing."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            return value.value if isinstance(value, ast.Constant) and isinstance(value.value, str) else "?"
    if isinstance(call.func, ast.Name) and len(call.args) > 1:
        mode = call.args[1]
        return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "?"
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and set(arg.value) <= MODE_LETTERS:
            return arg.value
    return "r"


def file_writes(source: str) -> list[str]:
    """``<line>: <call>`` for each call in ``source`` that writes a file: ``write_text``,
    ``write_bytes``, or an ``open`` whose mode writes, appends or creates."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_CALLS or name == "open" and set(_open_mode(node)) & set("wax+?"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "source, writes",
    [
        ("open(p, 'w', encoding='utf-8')", True),
        ("open(p, mode='a')", True),
        ("open(p, m)", True),
        ("Path(p).open('x')", True),
        ("Path(p).open(mode='r+')", True),
        ("Path(p).write_text(s)", True),
        ("p.write_bytes(b)", True),
        ("open(p)", False),
        ("open(p, 'rb')", False),
        ("Path(p).open()", False),
        ("Path(p).read_text(encoding='utf-8')", False),
        ("f.write(s)", False),
    ],
)
def test_the_check_tells_writes_from_reads(source, writes):
    assert bool(file_writes(source)) == writes


def test_only_io_writes_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "io.py" in modules
    writes = {
        path.name: found
        for path in modules
        if path.name != "io.py" and (found := file_writes(path.read_text(encoding="utf-8")))
    }
    assert writes == {}


def _dotted(node: ast.expr) -> list[str]:
    """``["np", "linalg", "qr"]`` for ``np.linalg.qr``; empty unless the chain starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def linalg_calls(source: str) -> list[str]:
    """``<line>: <call>`` for each call in ``source`` of an ``np.linalg`` or ``scipy.linalg``
    function: through a ``linalg`` attribute (``np.linalg.qr``), a module alias
    (``import scipy.linalg as sla``) or a name imported from such a module."""
    tree = ast.parse(source)
    bound = set()  # local names of linalg modules and of functions imported from them
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            bound |= {a.asname or a.name for a in node.names
                      if node.module in LINALG_MODULES or f"{node.module}.{a.name}" in LINALG_MODULES}
        elif isinstance(node, ast.Import):
            bound |= {a.asname for a in node.names if a.name in LINALG_MODULES and a.asname}
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (parts := _dotted(node.func))
        and ("linalg" in parts[:-1] or parts[0] in bound)
    ]


@pytest.mark.parametrize(
    "source, calls",
    [
        ("np.linalg.qr(b, mode='r')", True),
        ("numpy.linalg.eigvalsh(a)", True),
        ("scipy.linalg.cho_solve(f, g)", True),
        ("from scipy.linalg import qr\nqr(a)", True),
        ("from numpy.linalg import norm as n2\nn2(v)", True),
        ("from numpy import linalg\nlinalg.solve(a, b)", True),
        ("import scipy.linalg as sla\nsla.lu(a)", True),
        ("import scipy.linalg  # noqa: F401", False),
        ("np.dot(a, b) + a @ b", False),
        ("try:\n    f()\nexcept np.linalg.LinAlgError:\n    pass", False),
        ("from scipy.linalg import qr", False),
    ],
)
def test_the_check_finds_linalg_calls(source, calls):
    assert bool(linalg_calls(source)) == calls


def scipy_linalg_imports(source: str) -> list[str]:
    """``<line>: <statement>`` for each import in ``source`` of ``scipy.linalg`` or a module in it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "source, imports",
    [
        ("import scipy.linalg", True),
        ("import scipy.linalg as sla", True),
        ("def f():\n    import scipy.linalg  # noqa: F401", True),
        ("from scipy.linalg import cho_factor", True),
        ("from scipy import linalg", True),
        ("from scipy.linalg.lapack import dpotrf", True),
        ("import numpy, scipy.linalg._flapack", True),
        ("import scipy", False),
        ("import scipy.stats", False),
        ("from scipy import stats", False),
        ("from numpy import linalg", False),
        ("name = 'scipy.linalg._flapack'", False),
    ],
)
def test_the_check_finds_scipy_linalg_imports(source, imports):
    assert bool(scipy_linalg_imports(source)) == imports


def test_no_module_imports_scipy_linalg():
    imports = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := scipy_linalg_imports(path.read_text(encoding="utf-8")))
    }
    assert imports == {}


def _names_flapack(node: ast.AST) -> bool:
    """Whether ``node`` is a name, attribute, import alias or string holding ``flapack``."""
    if isinstance(node, ast.Name):
        text = node.id
    elif isinstance(node, ast.Attribute):
        text = node.attr
    elif isinstance(node, ast.alias):
        text = node.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        return False
    return "flapack" in text


def flapack_uses(source: str) -> list[str]:
    """``<line>: <code>`` for each name, attribute, import or string in ``source`` that
    names scipy's ``_flapack`` extension; a docstring is no use of it."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if _names_flapack(node) and id(node) not in docstrings
    ]


@pytest.mark.parametrize(
    "source, uses",
    [
        ("_flapack().dpotrf(a)", True),
        ("from .glm import _flapack", True),
        ("from . import glm\nglm._flapack().dgeqp3(a)", True),
        ("sys.modules['scipy.linalg._flapack']", True),
        ("path = os.path.join(d, '_flapack' + suffix)", True),
        ("importlib.import_module('scipy.linalg._flapack')", True),
        ('def f():\n    """Calls ``_flapack``."""\n    return 1', False),
        ('"""A module that names ``_flapack`` in its docstring."""', False),
        ("from .glm import fit_irls\nfit_irls(X, y, w)", False),
        ("lapack = np.linalg.qr(a)", False),
    ],
)
def test_the_check_finds_flapack_uses(source, uses):
    assert bool(flapack_uses(source)) == uses


def test_only_glm_loads_or_calls_flapack():
    modules = sorted(PACKAGE.glob("*.py"))
    assert flapack_uses((PACKAGE / "glm.py").read_text(encoding="utf-8"))
    uses = {
        path.name: found
        for path in modules
        if path.name != "glm.py" and (found := flapack_uses(path.read_text(encoding="utf-8")))
    }
    assert uses == {}


def test_only_glm_calls_linalg():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "glm.py" in modules
    calls = {
        path.name: found
        for path in modules
        if path.name != "glm.py" and (found := linalg_calls(path.read_text(encoding="utf-8")))
    }
    assert calls == {}


def model_json_keys(markdown: str) -> tuple[list[str], list[str]]:
    """The keys the table under ``## Fitted model JSON`` names, in order (a first cell may
    name several, separated by commas), and the keys its ``fit`` row lists as ``{a, b, ...}``."""
    section = ("\n" + markdown).split("\n## Fitted model JSON\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|", 1) for line in section.splitlines() if line.startswith("|")]
    keys, fit = [], []
    for cell, meaning in rows[2:]:  # after the header row and its rule
        keys += [key.strip() for key in cell.split(",")]
        if cell.strip() == "fit":
            fit = [key.strip() for key in re.fullmatch(r"\s*`\{(.*)\}`\s*", meaning).group(1).split(",")]
    return keys, fit


@pytest.mark.parametrize(
    "markdown, keys",
    [
        ("## Fitted model JSON\n\n| key | meaning |\n|--|--|\n| a | x |\n| b, c | y |\n", (["a", "b", "c"], [])),
        ("## Fitted model JSON\n| key | meaning |\n|-|-|\n| fit | `{d, e}` |\n\n## Next\n| g | h |\n",
         (["fit"], ["d", "e"])),
        ("## Other\n| z | z |\n## Fitted model JSON\n| key | meaning |\n|-|-|\n| a | `[x, y]` |\n", (["a"], [])),
    ],
)
def test_the_check_reads_the_model_key_table(markdown, keys):
    assert model_json_keys(markdown) == keys


def test_formats_md_names_the_keys_model_to_dict_writes():
    d = model_to_dict(load_model(ROOT / "tests" / "fixtures" / "golden_shared_ridge.json"))
    assert model_json_keys((ROOT / "FORMATS.md").read_text(encoding="utf-8")) == (list(d), list(d["fit"]))
