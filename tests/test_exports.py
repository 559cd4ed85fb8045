"""Every name a module exports resolves, so a deleted function cannot
leave a stale entry in __all__ behind; and every exported function or
class, and every public method, property and classmethod of an exported
class, is used by the package or by an acceptance test, so none is kept
only for its own test (a class member counts as used only where it is
read as an attribute, so a local variable of the same name does not
keep it); and every private module-level function or class
is read by the package, so no dead helper stays behind; and every
parameter with a default of an exported function, or of a public method
or written-out __init__ of an exported class, is passed by some call in
the package, in an acceptance test or in perfbench's workloads, so no
option is kept only for unit tests to set, and no such default is
overridden by every one of those calls, so none is kept whose value no
caller takes (the exceptions and their reasons are in KEEP_DEFAULTS and
KEEP_OVERRIDDEN); and no module imports scipy at import time, so the package loads scipy
only where a function that needs it runs."""
import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import drcz

MODULES = ["drcz"] + [f"drcz.{info.name}" for info in pkgutil.iter_modules(drcz.__path__)]

PACKAGE = sorted(Path(drcz.__file__).parent.glob("*.py"))
# where a use of a public name counts: the package and the acceptance claims
USERS = [*PACKAGE, Path(__file__).with_name("test_acceptance.py")]
# where a call counts for the defaults: those, and the benchmark's calls
CALLERS = [*USERS, Path(__file__).parents[1] / "perfbench" / "workloads.py"]

# public members kept without such a use, with the reason
KEEP = {"DeviceConfig.save": "the user-facing config writer",
        "ModeRegister.occupations": "perfbench/spans.py METHODS wraps it",
        "NativeGateNoise.replace": "perfbench/spans.py METHODS wraps it"}


def _used_names(paths=USERS) -> set[str]:
    """Every name read as a variable or an attribute.  Import lines,
    def/class lines, __all__ strings, comments and docstrings add none."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _attribute_reads(paths=USERS) -> set[str]:
    """Every name read as an attribute, `obj.name`: the one way a class
    member is used."""
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_exported_function_and_class_has_a_user():
    used = _used_names()
    unused = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            defined_here = getattr(obj, "__module__", None) == name
            if callable(obj) and defined_here and attr not in used:
                unused.append(f"{name}.{attr}")
    assert unused == []


def _members(cls):
    """Public methods, properties and class/static methods defined on cls."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    for attr, raw in vars(cls).items():
        if not attr.startswith("_") and (inspect.isfunction(raw) or isinstance(raw, kinds)):
            yield attr


def test_every_public_member_of_an_exported_class_has_a_user():
    used = _attribute_reads()
    unused = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in module.__all__:
            cls = getattr(module, attr)
            if isinstance(cls, type) and cls.__module__ == name:
                unused += [f"{attr}.{member}" for member in _members(cls)
                           if member not in used and f"{attr}.{member}" not in KEEP]
    assert unused == []


def test_every_private_function_and_class_is_read_by_the_package():
    used = _used_names(PACKAGE)
    unread = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in used):
                unread.append(f"{path.stem}.{node.name}")
    assert unread == []


def _import_time_modules(tree):
    """Absolute module names imported by the statements that run when the
    module is imported: everything outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    # Closed-system exponentials come from gate's block eigendecomposition;
    # lindblad.expm imports scipy.linalg.expm on its first call, and
    # benchmarking imports curve_fit inside the fit that uses it.
    importers = sorted(path.stem for path in PACKAGE
                       if any(module.split(".")[0] == "scipy"
                              for module in _import_time_modules(ast.parse(path.read_text()))))
    assert importers == []


# defaulted parameters kept although no call in the package or in the
# acceptance claims sets them, with the reason
KEEP_DEFAULTS = {
    "postselected_fidelity.readout": "the frozen INFIDELITY_TWO_ROUND reads the two-round "
                                     "readout through it",
    "simulated_leak_process.points": "perfbench/spans.py's _leak_yield hook binds it",
    "process_tomography.postselect": "without postselection a trace-decreasing channel "
                                     "keeps its lost trace, and the leak process is "
                                     "checked against its direct chi that way",
    "main.argv": "the console entry point calls main() with no argument",
}

# defaulted parameters kept although every call sets them, with the reason
KEEP_OVERRIDDEN = {
    "DensityMatrix.validate": "a public constructor checks what it is given unless told "
                              "not to; the package's one call skips it for a "
                              "linear-inversion estimate, which need not be positive",
    "run_experiment.seed": "only rb, irb and irb-accuracy read the seed, so a caller "
                           "running another experiment need not name one",
}


def _defaulted_parameters():
    """(callee name, parameter, position or None) of every parameter with a
    default of each exported function, and of each public method or
    written-out __init__ of an exported class: the ones the module's own
    source defines, so a dataclass's generated __init__ is not one.  The
    position leaves out self and cls."""
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            if getattr(node, "name", None) not in module.__all__:
                continue
            if isinstance(node, ast.FunctionDef):
                yield from _defaults_of(node.name, node.args, bound=False)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and (
                            member.name == "__init__" or not member.name.startswith("_")):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in member.decorator_list)
                        callee = node.name if member.name == "__init__" else member.name
                        yield from _defaults_of(callee, member.args, bound=not static)


def _defaults_of(callee, args, *, bound):
    """(callee, parameter, position) of each defaulted parameter in an
    ast.arguments; a keyword-only one has position None."""
    positional = [*args.posonlyargs, *args.args][int(bound):]
    for k, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            start=len(positional) - len(args.defaults)):
        yield callee, arg.arg, k
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def _calls(paths=CALLERS) -> dict[str, list[tuple[int, set[str]]]]:
    """Callee name -> (positional count, keyword names) of every call.  A
    ** argument names nothing, so it sets no parameter it does not name."""
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(
                    (len(node.args), {kw.arg for kw in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a call sets a parameter by keyword, or at its position; a default that
    # no caller overrides is an option only unit tests turn
    calls = _calls()
    unset = sorted(f"{callee}.{param}" for callee, param, position in _defaulted_parameters()
                   if f"{callee}.{param}" not in KEEP_DEFAULTS
                   and not any(param in keywords or (position is not None and n > position)
                               for n, keywords in calls.get(callee, [])))
    assert unset == [], ", ".join(unset)


def test_no_default_is_overridden_by_every_caller():
    # a default that every call replaces serves no caller: the parameter
    # is required in all but name
    calls = _calls()
    defaulted = {f"{callee}.{param}" for callee, param, _ in _defaulted_parameters()}
    assert set(KEEP_OVERRIDDEN) <= defaulted, "an exception names no defaulted parameter"
    overridden = sorted(
        f"{callee}.{param}" for callee, param, position in _defaulted_parameters()
        if f"{callee}.{param}" not in KEEP_OVERRIDDEN and calls.get(callee)
        and all(param in keywords or (position is not None and n > position)
                for n, keywords in calls[callee]))
    assert overridden == [], ", ".join(overridden)
