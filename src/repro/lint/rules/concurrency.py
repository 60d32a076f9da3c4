"""D007 — module-level state written from executor workers.

Code handed to an executor promises results independent of the worker
count.  That holds only while workers are pure: read shared inputs,
return results, merge in the caller.  A worker writing module-level state
races under threads and silently diverges under a future process pool.

The analysis is module-local: find every callable handed to an
``Executor.submit``/``Executor.map`` call, close over same-module
functions/methods it calls, and flag writes (assignment, augmented
assignment, mutating method calls, ``global`` rebinding) that resolve to
a module-level name not shadowed by a local.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.lint.core import Finding, LintContext, Rule, root_name
from repro.lint.registry import register

_EXECUTOR_NAMES = frozenset({
    "ThreadPoolExecutor", "ProcessPoolExecutor", "Executor",
})

_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "extendleft",
})

_Worker = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _uses_executor(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "concurrent.futures" and any(
                alias.name in _EXECUTOR_NAMES for alias in node.names
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("concurrent.futures")
                   for alias in node.names):
                return True
    return False


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound to containers (or anything reassignable) at module scope."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(
                    e.id for e in target.elts if isinstance(e, ast.Name)
                )
    return names


def _local_names(func: _Worker) -> Set[str]:
    """Parameters plus locally bound names (shadowing module state)."""
    args = func.args
    locals_: Set[str] = {
        a.arg for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg is not None:
        locals_.add(args.vararg.arg)
    if args.kwarg is not None:
        locals_.add(args.kwarg.arg)
    if isinstance(func, ast.Lambda):
        return locals_
    declared_global: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    locals_.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                locals_.add(node.target.id)
        elif isinstance(node, ast.comprehension):
            if isinstance(node.target, ast.Name):
                locals_.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    locals_.add(item.optional_vars.id)
    return locals_ - declared_global


@register
class ExecutorSharedStateRule(Rule):
    """D007: executor workers mutating module-level names."""

    code = "D007"
    name = "executor-shared-state"
    hint = "make the worker pure: pass inputs in, return results, merge in the caller"
    node_types = ()  # whole-module analysis in end_module

    def end_module(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        if not _uses_executor(tree):
            return
        module_names = _module_level_names(tree)
        if not module_names:
            return

        functions: Dict[str, _Worker] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Methods and module functions share one namespace here;
                # module-local resolution only needs the name.
                functions.setdefault(node.name, node)

        workers: List[_Worker] = []
        seen: Set[int] = set()

        def enlist(func: Optional[_Worker]) -> None:
            if func is None:
                return
            marker = (func.lineno, func.col_offset)
            if marker in seen:
                return
            seen.add(marker)
            workers.append(func)

        def resolve(expr: ast.AST) -> Optional[_Worker]:
            if isinstance(expr, ast.Lambda):
                return expr
            if isinstance(expr, ast.Name):
                return functions.get(expr.id)
            if isinstance(expr, ast.Attribute):
                return functions.get(expr.attr)
            return None

        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
            ):
                enlist(resolve(node.args[0]))

        # Close over same-module callees of each worker (fixed point).
        index = 0
        while index < len(workers):
            worker = workers[index]
            index += 1
            for node in ast.walk(worker):
                if isinstance(node, ast.Call):
                    enlist(resolve(node.func))

        for worker in workers:
            yield from self._check_worker(worker, module_names, ctx)

    def _check_worker(
        self, worker: _Worker, module_names: Set[str], ctx: LintContext
    ) -> Iterable[Finding]:
        locals_ = _local_names(worker)
        shared = module_names - locals_
        if not shared:
            return
        label = (
            f"lambda at line {worker.lineno}"
            if isinstance(worker, ast.Lambda)
            else f"{worker.name}()"
        )
        for node in ast.walk(worker):
            name: Optional[str] = None
            action = ""
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        candidate = root_name(target)
                        if candidate in shared:
                            name, action = candidate, "writes into"
                            break
                    elif isinstance(target, ast.Name) and target.id in shared \
                            and target.id not in locals_:
                        # Only reachable via an explicit ``global`` (plain
                        # assignment would have made it a local).
                        name, action = target.id, "rebinds global"
                        break
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                candidate = root_name(node.func.value)
                if candidate in shared:
                    name = candidate
                    action = f"calls .{node.func.attr}() on"
            if name is not None:
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=(
                        f"executor worker {label} {action} module-level "
                        f"state {name!r}"
                    ),
                    hint=self.hint,
                )
