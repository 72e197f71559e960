"""Smoke runs of the scripts under ``scripts/`` as a user would start them,
a guard against library code that only tests reach, and one that keeps a
form's kind inside ``forms``."""

import ast
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("scripts/identity_fuzz.py", "--trials", "3"),
])
def test_script_runs(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag", ["--trials", "--k-max", "--dim-max"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_identity_fuzz_rejects_counts_below_one(flag, value):
    proc = run_script("scripts/identity_fuzz.py", flag, value)
    assert proc.returncode == 2
    assert "must be at least 1" in proc.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_rejects_an_unknown_name():
    proc = run_script("scripts/mutants.py", "no-such-mutant")
    assert proc.returncode == 2
    assert "unknown mutant no-such-mutant" in proc.stderr


def test_every_mutant_applies_to_the_tree(tmp_path):
    """Each mutant of ``scripts/mutants.py`` still applies to the source:
    every replaced text occurs exactly once where the script applies it, and
    every named test file exists.  No test is run."""
    mutants = load_script("mutants")
    stale = []
    for name, (_, replacements, tests) in mutants.MUTANTS.items():
        tree = tmp_path / name
        for rel in {rel for rel, _, _ in replacements}:
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / rel, tree / rel)
        error = mutants.apply(tree, replacements)
        if error:
            stale.append(f"{name}: {error}")
        stale += [f"{name}: no test file {test}" for test in tests
                  if not (ROOT / test.split("::")[0]).is_file()]
    assert not stale, "stale mutants:\n" + "\n".join(stale)


# Paper objects that only tests check: the A-hat form, the (b, B) Chern
# cycle, the Clifford trace and bimodule actions, the spinor representation
# with its gamma and chirality matrices, and the Dirac spectrum of the torus
# triple.
PAPER_OBJECTS_CHECKED_BY_TESTS = frozenset((
    "geom.a_hat_from_curvature", "cyclic.chern_bB", "clifford.clifford_trace",
    "clifford.left_action", "clifford.right_action", "clifford.right_matrix",
    "clifford.degree_sign_matrix", "clifford.chirality", "clifford.SpinorRep",
    "clifford.SpinorRep.of", "clifford.SpinorRep.of_blade",
    "clifford.SpinorRep.chirality_matrix", "spectral.FourierTorusTriple.dirac_eigenvalues",
))


def _names_used(path):
    """(name, line) of every identifier, attribute, imported name and string
    constant in a file; strings count because ``perfbench/tracer.py`` binds
    functions by name.  An identifier in the body of a function with a
    parameter of that name is the parameter, so it is left out."""
    return _names_in(ast.parse(path.read_text()))


def _names_in(tree):
    out = []

    def visit(node, params):
        if isinstance(node, ast.Name):
            if node.id not in params:
                out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
        inner, body = params, ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = params | {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              a.vararg, a.kwarg) if x is not None}
        for child in ast.iter_child_nodes(node):
            # defaults, annotations and decorators are read outside the body
            visit(child, inner if any(child is b for b in body) else params)

    visit(tree, frozenset())
    return out


def test_names_used_skips_a_shadowing_parameter():
    tree = ast.parse(
        "class Chart:\n"
        "    def point(self): ...\n"
        "def eval_numeric(point, grid=point):\n"
        "    return point + grid + (lambda point: point)(1)\n"
        "def caller(chart):\n"
        "    return chart.point()\n"
    )
    names = _names_in(tree)
    assert ("point", 3) in names  # the default is read in the enclosing scope
    assert ("point", 4) not in names  # the parameter, twice, and a lambda's own
    assert ("point", 6) in names  # an attribute is never a parameter
    assert ("grid", 4) not in names
    assert ("chart", 6) not in names


def _definitions(tree):
    """(qualified name, node) of every top-level function and class of a
    module and of every method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for n in node.body:
                if isinstance(n, ast.FunctionDef):
                    yield f"{node.name}.{n.name}", n


def _unreached(files, library):
    """The definitions of the ``library`` files that no use reaches, as the
    least fixpoint: a use of a name reaches every definition of that name
    when it comes from a file outside ``library``, from module level, or
    from the body of a reached definition.  The interpreter calls dunder
    methods, so their bodies count as the body of their class."""
    defs = {}  # qualified name -> (path, node)
    for path in library:
        for qual, node in _definitions(ast.parse(path.read_text())):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defs[f"{path.stem}.{qual}"] = (path, node)
    named = {}
    for key, (_, node) in defs.items():
        named.setdefault(node.name, []).append(key)
    uses = {}  # enclosing definition (None: a root) -> names used there
    for path in files:
        scopes = [(node.lineno, node.end_lineno, key)
                  for key, (where, node) in defs.items() if where == path]
        for name, line in _names_used(path):
            inner = [(start, key) for start, end, key in scopes if start <= line <= end]
            uses.setdefault(max(inner)[1] if inner else None, set()).add(name)
    reached, todo = set(), [None]
    while todo:
        for name in uses.get(todo.pop(), ()):
            for key in named.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(key)
    return {key for key in defs if key not in reached}


def test_unreached_is_a_least_fixpoint(tmp_path):
    """Definitions that only name each other are unreached; a dunder method
    runs with its class, and a use at module level or from another file
    reaches."""
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def ping(): return pong()\n"
        "def pong(): return ping()\n"
        "class Box:\n"
        "    def __init__(self): self.fill()\n"
        "    def fill(self): pass\n"
        "    def spare(self): pass\n"
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "ROOT = used\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import Box\n")
    assert _unreached([lib, user], [lib]) == {
        "lib.ping", "lib.pong", "lib.Box.spare"}
    # the __init__ body no longer runs once nothing names the class
    user.write_text("")
    assert _unreached([lib, user], [lib]) == {
        "lib.ping", "lib.pong", "lib.Box", "lib.Box.fill", "lib.Box.spare"}


def test_no_library_code_that_only_tests_reach():
    """Every public function, class and method of ``src/ncgkit`` is reached
    from ``src/``, ``scripts/`` or ``perfbench/`` (``_unreached``), except
    the paper objects above."""
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    library = sorted((ROOT / "src" / "ncgkit").glob("*.py"))
    unreached = {key for key in _unreached(files, library)
                 if not key.rsplit(".", 1)[-1].startswith("_")}
    stray = sorted(unreached - PAPER_OBJECTS_CHECKED_BY_TESTS)
    assert not stray, "only tests reach these; delete them or move them into the tests: " + ", ".join(stray)
    # a listed paper object that a command now reaches leaves the list
    assert unreached == PAPER_OBJECTS_CHECKED_BY_TESTS


def _kind_leaks(path):
    """(line, what) of each read of an attribute named ``backend`` or
    ``nodes`` outside ``forms.py``, and of each comparison with the string
    "exact" or "jet" anywhere."""
    leaks = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in ("backend", "nodes")
                and path.name != "forms.py"):
            leaks.append((node.lineno, f".{node.attr}"))
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.Constant) and operand.value in ("exact", "jet"):
                    leaks.append((node.lineno, f"compares with {operand.value!r}"))
    return sorted(leaks)


def test_kind_of_a_form_stays_in_forms():
    """A form's kind is its type, ``ExactForm`` or ``JetForm``: no module
    outside ``forms`` reads a kind or node-count attribute, and no module
    tests a kind string."""
    leaks = [f"{path.name}:{line}: {what}"
             for path in sorted((ROOT / "src" / "ncgkit").glob("*.py"))
             for line, what in _kind_leaks(path)]
    assert not leaks, "\n".join(leaks)


def test_kind_leaks_are_found(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def f(a):\n    if a.backend == 'jet':\n        return a.nodes\n"
                   "    return 'exact' != a\n")
    assert _kind_leaks(lib) == [(2, ".backend"), (2, "compares with 'jet'"),
                                (3, ".nodes"), (4, "compares with 'exact'")]
