"""No package map stage runs on an actor pool.

Ray Data 2.49 keeps a retired pool's actors, and their CPUs, until
Python's cyclic GC runs (tests/test_task_stages.py shows it), so the
package maps plain functions and instances as task maps. This scan
fails when a Ray Data map call passes an actor-pool argument. The one
exception is ``steps.MapStep``, which passes through the
``concurrency`` a user's pipeline spec sets.
"""
import ast
import pathlib

import hand_index_ray

ROOT = pathlib.Path(hand_index_ray.__file__).parent
SOURCES = sorted(ROOT.rglob("*.py")) + [ROOT.parent / "__ray_entry__.py"]
MAP_CALLS = {"map_batches", "map", "flat_map", "filter", "map_groups"}
POOL_ARGS = {"concurrency", "compute", "fn_constructor_args",
             "fn_constructor_kwargs"}
ALLOWED = {("steps.py", "MapStep.__call__")}


def _findings(tree: ast.AST, fname: str) -> list[str]:
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        allowed = (fname, scope) in ALLOWED
        if (isinstance(node, ast.Call) and not allowed
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MAP_CALLS):
            for kw in node.keywords:
                if kw.arg in POOL_ARGS:
                    out.append(f"{fname}:{node.lineno} {kw.arg}=")
                elif kw.arg is None:
                    out.append(f"{fname}:{node.lineno} **kwargs")
        if (isinstance(node, ast.Name) and node.id == "ActorPoolStrategy") or (
                isinstance(node, ast.Attribute)
                and node.attr == "ActorPoolStrategy"):
            out.append(f"{fname}:{node.lineno} ActorPoolStrategy")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_no_actor_pool_arguments():
    found = []
    for path in SOURCES:
        found += _findings(ast.parse(path.read_text()), path.name)
    assert not found, found


def test_scan_sees_a_pool():
    src = ("def f(ds, C):\n"
           "    ds.map_batches(C, concurrency=(1, 4))\n"
           "    kw = {'fn_constructor_args': (1,)}\n"
           "    ds.map_batches(C, **kw)\n"
           "    ds.map(C, compute=ray.data.ActorPoolStrategy(size=2))\n")
    assert len(_findings(ast.parse(src), "x.py")) == 4
    # MapStep's spec pass-through stays allowed
    src = ("class MapStep:\n"
           "    def __call__(self, ds):\n"
           "        return ds.map_batches(f, **kw)\n")
    assert _findings(ast.parse(src), "steps.py") == []
