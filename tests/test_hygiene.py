"""Source hygiene: every imported name is used (no linter is installed),
the package's functions read every parameter and local they bind, the
package makes its FFT calls in one place, and only the plan and the time
loop build calls on work arrays."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = [path for tree in ("src", "tests", "demos", "perfbench")
           for path in sorted((ROOT / tree).rglob("*.py"))]
# the functions of spectral.py that alone run FFTs, and the names of
# numpy.fft's transforms and pocketfft's gufuncs (fftfreq is not one)
FFT_SEAM = {"_r2c", "_c2c", "_ic2c", "_c2r"}
FFT_TRANSFORM = re.compile(r"i?[rh]?fft([2n]|_n_even|_n_odd)?")
# the binders of `SpectralPlan`, which build calls on a caller's work
# arrays, and the modules that may read them: the plan's own and the
# time loop's; every other module runs an operation through the public
# methods
BINDERS = {"_to_coeffs", "_to_values", "_scaled_inverse", "_fine_values", "_project_fine",
           "_poly_coeffs"}
BINDER_MODULES = {"spectral.py", "solver.py"}


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name read in an attribute chain (`np.fft`) counts through its root
    name, and a name listed in a string `__all__` counts as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_flagged():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.fft\n"
    assert unused_imports(src) == [(2, "os")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in CHECKED if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_scope(fn):
    """The nodes of a function's own scope: its body without the bodies
    of the functions and classes nested in it (comprehensions included)."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def unread_names(source: str) -> list:
    """Parameters (but `self` and `cls`) and assigned locals (but `_`)
    that their function never reads, itself or in a function nested in it.

    Each function is checked, nested ones too; a name that a function
    declares `nonlocal` or `global` is not its local.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        a = fn.args
        bound = {arg.arg: fn.lineno for arg in a.posonlyargs + a.args + a.kwonlyargs
                 + [a.vararg, a.kwarg] if arg is not None and arg.arg not in ("self", "cls")}
        declared = set()
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(line, getattr(fn, "name", "<lambda>"), name) for name, line in bound.items()
                  if name != "_" and name not in read | declared]
    return sorted(found)


def test_unread_names_are_flagged():
    src = ("def f(self, a, b, *rest, c=1, **kw):\n    x, y = a\n    _, *z = b\n"
           "    def g(p):\n        nonlocal y\n        y = 1\n        return x\n"
           "    total = 0\n    total += 1\n    for i in rest:\n        pass\n"
           "    return [0 for j in kw], (lambda q: c)\n")
    # x is read by g, c by the lambda, kw by the comprehension; y is only
    # rebound through g's nonlocal, total only added to
    assert unread_names(src) == [(2, "f", "y"), (3, "f", "z"), (4, "g", "p"), (9, "f", "total"),
                                 (10, "f", "i"), (12, "<lambda>", "q"), (12, "f", "j")]


def test_the_package_reads_every_name_it_binds():
    found = [f"{path.relative_to(ROOT)}:{line}: {fn} binds {name}"
             for path in sorted((ROOT / "src" / "crossflux").rglob("*.py"))
             for line, fn, name in unread_names(path.read_text())]
    assert not found, "parameters and locals that nothing reads:\n" + "\n".join(found)


def fft_uses_outside_seam(source: str) -> list:
    """Lines that use an FFT transform outside the seam functions: an
    attribute named like one (`np.fft.rfft`, a gufunc; not the module
    `np.fft` in `np.fft.fftfreq`) or a transform imported by name from
    numpy.fft."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft")
                for alias in node.names if FFT_TRANSFORM.fullmatch(alias.name)}
    skipped = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    skipped.update(id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in FFT_SEAM
                   for node in ast.walk(fn))
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in skipped and (
        isinstance(node, ast.Attribute) and FFT_TRANSFORM.fullmatch(node.attr)
        or isinstance(node, ast.Name) and node.id in imported))


def test_fft_uses_outside_the_seam_are_flagged():
    src = ("import numpy as np\nfrom numpy.fft import irfft as inv\n"
           "def _r2c(a):\n    return np.fft.rfft(a)\n"
           "def f(a):\n    return np.fft.fftfreq(8), np.fft.fft2(a), inv(a)\n")
    assert fft_uses_outside_seam(src) == [6, 6]


def test_fft_calls_go_through_the_seam():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "crossflux").rglob("*.py"))
             for line in fft_uses_outside_seam(path.read_text())]
    assert not found, "FFT transforms outside spectral.py's seam:\n" + "\n".join(found)


def binder_reads(source: str) -> list:
    """Lines that read an attribute named like a binder (`plan._to_coeffs`)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in BINDERS)


def test_binder_reads_are_flagged():
    src = ("def _to_coeffs(vals):\n    return vals\n"
           "def f(plan, c, work):\n    return plan.to_coeffs(c), plan._poly_coeffs((), c, work)\n")
    assert binder_reads(src) == [4]


def test_binders_are_read_by_the_plan_and_the_time_loop_alone():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "crossflux").rglob("*.py"))
             if path.name not in BINDER_MODULES
             for line in binder_reads(path.read_text())]
    assert not found, "binders read outside spectral.py and solver.py:\n" + "\n".join(found)
