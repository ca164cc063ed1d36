"""Every function, class and method in ``src/dayahead`` is reached from the
program: from the console script's ``cli.main``/``cli.run``, from what a
module runs when it is imported, or from a name the benchmark's tracer
patches.  Dunder methods are roots, since Python calls them.  Code that only
tests reach belongs in the tests.

The walk reads the source with ``ast`` and follows names from reached code:
a bare name through its module's own definitions and its ``from . import``
and ``from .module import`` lines, an attribute of an imported module to
that module's definition, and any attribute (``obj.name``) to every method
of that name.  Annotations are not followed.
"""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import PATCHES  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src" / "dayahead"
ROOTS = (("cli", "main"), ("cli", "run"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse_package():
    """Each module's tree; every top-level function and class and every
    method, by qualified name; the qualified names of the methods of each
    name; and per module, what each name it imports from the package
    denotes: (module, name), or (module, None) for a module."""
    trees, defs, methods, imports = {}, {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        trees[module] = tree = ast.parse(path.read_text(), str(path))
        imports[module] = {}
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = (module, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        qualified = f"{module}.{node.name}.{item.name}"
                        defs[qualified] = (module, item)
                        methods.setdefault(item.name, []).append(qualified)
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    imports[module][alias.asname or alias.name] = target
    return trees, defs, methods, imports


def on_import(stmt) -> list:
    """The parts of a top-level statement that run when its module is
    imported: a function's decorators and defaults, a class's decorators,
    bases and body, any other statement whole."""
    if isinstance(stmt, FUNCTIONS):
        return [*stmt.decorator_list, stmt.args]
    if isinstance(stmt, ast.ClassDef):
        parts = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
        return parts + [part for item in stmt.body for part in on_import(item)]
    return [stmt]


def runs(node) -> list:
    """The child nodes of ``node`` that run with it, annotations left out."""
    if isinstance(node, ast.AnnAssign):
        return [node.target] + ([node.value] if node.value else [])
    if isinstance(node, ast.arguments):
        return [*node.defaults, *filter(None, node.kw_defaults)]
    if isinstance(node, FUNCTIONS):
        return [*node.decorator_list, node.args, *node.body]
    return list(ast.iter_child_nodes(node))


def resolver(defs, imports):
    """``resolve(module, name)``: what ``name`` denotes in ``module``, the
    qualified name of a definition or the name of a module."""

    def resolve(module, name):
        while f"{module}.{name}" not in defs and name in imports[module]:
            module, name = imports[module][name]
            if name is None:
                return module
        return f"{module}.{name}"

    return resolve


def reached(patches=PATCHES) -> set:
    """The qualified names of the definitions reached from the roots, and
    from the names in ``patches`` (the tracer's, by default)."""
    trees, defs, methods, imports = parse_package()
    found, work = set(), []  # work: (module, node) of code that runs
    resolve = resolver(defs, imports)

    def reach(qualified):
        if qualified in defs and qualified not in found:
            found.add(qualified)
            module, node = defs[qualified]
            if isinstance(node, FUNCTIONS):
                work.extend((module, stmt) for stmt in node.body)

    for module, tree in trees.items():
        work.extend((module, part) for stmt in tree.body for part in on_import(stmt))
    for name, qualified in methods.items():
        if name.startswith("__") and name.endswith("__"):
            for each in qualified:
                reach(each)
    for module, name in ROOTS:
        reach(f"{module}.{name}")
    for module, name, _ in patches:
        if module.startswith("dayahead."):
            reach(resolve(module.split(".")[1], name))

    while work:
        module, node = work.pop()
        if isinstance(node, ast.Name):
            reach(resolve(module, node.id))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                owner = resolve(module, node.value.id)
                if owner in trees:  # an attribute of an imported module
                    reach(resolve(owner, node.attr))
            for qualified in methods.get(node.attr, ()):
                reach(qualified)
        work.extend((module, child) for child in runs(node))
    return found


def test_every_definition_is_reached_from_the_program():
    _, defs, _, _ = parse_package()
    assert sorted(set(defs) - reached()) == []


# Definitions that only the tracer reaches: no command calls them.  A new one
# fails here until it is named, and repointing PATCHES shrinks the set.
TRACER_ONLY = {"regress.ols_fit", "regress.exact_ml_ar1_fit", "features.target_regressors"}


def test_the_definitions_only_the_tracer_reaches_are_named():
    assert reached() - reached(patches=()) == TRACER_ONLY


# The scoring layers work on plain arrays and floats: nothing they import,
# directly or through another module of the package, is the data layer's.
SCORING = ("thermo", "verdict", "report")
DATA_LAYERS = {"ingest", "features", "regress"}


def test_the_scoring_layers_import_nothing_from_the_data_layers():
    _, _, _, imports = parse_package()
    for module in SCORING:
        seen, work = set(), [module]
        while work:
            for target, _ in imports.get(work.pop(), {}).values():
                if target not in seen:
                    seen.add(target)
                    work.append(target)
        assert not seen & DATA_LAYERS, (module, sorted(seen & DATA_LAYERS))


# Input is checked once, at the boundary (ingest, the CLI, the critical
# values): the modules that fit and score a window raise no ValidationError,
# so none of them names it, by import or through a module it imports.
CHECKED_INPUT = ("features", "regress", "pipeline", "thermo")


def test_the_layers_past_the_boundary_name_no_validation_error():
    trees, defs, _, imports = parse_package()
    resolve = resolver(defs, imports)
    for module in CHECKED_INPUT:
        names = set()
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Name):
                names.add(resolve(module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = resolve(module, node.value.id)
                if owner in trees:  # an attribute of an imported module
                    names.add(resolve(owner, node.attr))
        names |= {resolve(module, name) for name in imports[module]}
        assert "errors.ValidationError" not in names, module


# The estimation defaults are written once, as EngineSettings' field defaults
# (and as the CLI's flag defaults): no function of the layers below the CLI
# gives a setting's parameter a default of its own.
SETTING_PARAMS = {"method", "decays", "temp_mode", "mode", "lam"}


def test_no_layer_below_the_cli_defaults_a_setting():
    trees, _, _, _ = parse_package()
    defaulted = []
    for module in ("features", "regress", "pipeline", "backtest"):
        for node in ast.walk(trees[module]):
            if isinstance(node, FUNCTIONS):
                args = node.args
                # defaults pair with the last positional parameters
                pairs = [*zip((args.posonlyargs + args.args)[::-1], args.defaults[::-1]),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                defaulted += [f"{module}.{node.name}({arg.arg})" for arg, default in pairs
                              if default is not None and arg.arg in SETTING_PARAMS]
    assert defaulted == []
