"""Source rules checked on the syntax tree of ``src/stppfit``.

Only ``stppfit.io`` writes files. It opens each one with ``newline="\\n"``,
so every output is UTF-8 with ``\\n`` line endings on every platform; a
``Path.write_text`` elsewhere would write ``os.linesep``.

Only ``stppfit.glm`` calls LAPACK through ``np.linalg`` or ``scipy.linalg``.
There the rank check reduces the design in row blocks, and scipy sees only
n_cols x n_cols matrices, so its OpenBLAS thread pool stays idle; a call
elsewhere could hand either library the whole design. A bare
``import scipy.linalg``, which sets the warning filters early, is no call.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stppfit"
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


def test_only_glm_calls_linalg():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "glm.py" in modules
    calls = {
        path.name: found
        for path in modules
        if path.name != "glm.py" and (found := linalg_calls(path.read_text(encoding="utf-8")))
    }
    assert calls == {}
