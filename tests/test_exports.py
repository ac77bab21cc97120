"""Public names: every exported name resolves, so a deleted function cannot
linger in an ``__all__`` list, in the package namespace or in the README's
examples or CLI flags, and every function the benchmark's tracer wraps
still exists where it is looked up."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
import shlex
import sys
import types
from pathlib import Path

import pytest

import churnpool
from churnpool.cli import _build_parser

MODULES = [importlib.import_module(f"churnpool.{info.name}")
           for info in pkgutil.iter_modules(churnpool.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_package_reexports_public_names():
    tree = ast.parse(inspect.getsource(churnpool))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"churnpool.{node.module}")
        public = getattr(module, "__all__", vars(module))
        for alias in node.names:
            assert alias.name in public, (
                f"churnpool re-exports {alias.name}, which "
                f"{module.__name__} does not list as public")
            assert getattr(churnpool, alias.name) is getattr(module,
                                                             alias.name)


def test_benchmark_trace_patches_resolve():
    # Compiled from source rather than imported, so no bytecode cache is
    # written next to the benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracing.__dict__)
    assert tracing.PATCHES
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.PATCHES
               if attr not in vars(owner)]
    assert not missing, f"tracing.PATCHES names missing attributes {missing}"


def test_package_imports_only_stdlib_and_numpy():
    """The package is numpy-only: each of its modules imports from the
    standard library, numpy and the package itself, nothing else."""
    allowed = {*sys.stdlib_module_names, "numpy"}
    foreign = []
    for path in sorted(Path(churnpool.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert not foreign, f"imports outside the stdlib and numpy: {foreign}"


def test_only_forking_speaks_the_worker_protocol():
    """One protocol for forked workers: no module but ``forking`` imports
    ``pickle`` or ``multiprocessing``, writes or reads a descriptor with
    ``os``, or sends or receives on a connection."""
    wire = {"pickle", "multiprocessing"}
    raw_io = {"write", "writev", "read", "readv"}
    messages = {"send", "recv", "send_bytes", "recv_bytes"}
    found = []
    for path in sorted(Path(churnpool.__file__).parent.glob("*.py")):
        if path.name == "forking.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {alias.name}"
                          for alias in node.names
                          if alias.name.partition(".")[0] in wire]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                if node.module.partition(".")[0] in wire:
                    found.append(f"{path.name}: from {node.module}")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                attr, owner = node.func.attr, node.func.value
                if attr in messages or (
                        attr in raw_io and isinstance(owner, ast.Name)
                        and owner.id == "os"):
                    found.append(f"{path.name}:{node.lineno}: "
                                 f"{ast.unparse(node.func)}()")
    assert not found, f"worker protocol outside forking.py: {found}"


def _readme():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8")


def _readme_blocks():
    blocks = re.findall(r"```python\n(.*?)```", _readme(), flags=re.S)
    assert blocks
    return [ast.parse(block) for block in blocks]


def _churnpool_imports(tree):
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "churnpool"
            for alias in node.names]


def test_readme_imports_resolve():
    imported = [name for tree in _readme_blocks()
                for name in _churnpool_imports(tree)]
    assert imported
    missing = [name for name in imported if not hasattr(churnpool, name)]
    assert not missing, f"README imports {missing} from churnpool"


def test_readme_calls_bind_to_signatures():
    # A keyword or argument count that the code no longer takes fails here.
    bound = 0
    for tree in _readme_blocks():
        imported = set(_churnpool_imports(tree))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            signature = inspect.signature(getattr(churnpool, node.func.id))
            try:
                signature.bind(*node.args, **{kw.arg: kw.value
                                              for kw in node.keywords})
            except TypeError as exc:
                pytest.fail(f"README calls {ast.unparse(node)}, but "
                            f"{node.func.id} takes {signature}: {exc}")
            bound += 1
    assert bound


def test_readme_cli_lines_parse():
    lines = [line for block in re.findall(r"```bash\n(.*?)```", _readme(),
                                          flags=re.S)
             for line in block.splitlines() if line.startswith("churnpool ")]
    assert lines
    for line in lines:
        try:
            _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README runs {line!r}, which the CLI rejects")


def test_readme_inline_flags_exist():
    # Every option string of the parser and of each subcommand's parser.
    parser = _build_parser()
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= set(sub._option_string_actions)
    prose = re.sub(r"```.*?```", "", _readme(), flags=re.S)
    flags = {flag for span in re.findall(r"`([^`\n]+)`", prose)
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    assert flags
    missing = sorted(flags - options)
    assert not missing, f"README names CLI flags {missing} that no parser has"
