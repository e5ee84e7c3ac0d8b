"""Mutation survey of src/cws552 against the Tier-1 tests (not part of Tier-1 or CI).

`delete` replaces one statement inside a function with `pass`; `operator` swaps
one comparison, arithmetic or boolean operator, or drops a `not`.  Each mutant
runs the tests with -x in a private copy of the repository and survives if they
pass; a run past TIMEOUT counts as killed.  --limit N draws N mutants with
--seed; a full run draws nothing, so it does not depend on the seed.

    python tools/mutants.py delete [--limit 50 [--seed 1]]
"""
import argparse, ast, os, random, shutil, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PAIRS = [("Lt", "LtE"), ("Gt", "GtE"), ("Eq", "NotEq"), ("Is", "IsNot"), ("In", "NotIn"), ("Add", "Sub"),
          ("Mult", "Div"), ("LShift", "RShift"), ("BitAnd", "BitOr"), ("And", "Or")]
SWAPS = {getattr(ast, a): getattr(ast, b) for pair in _PAIRS for a, b in (pair, pair[::-1])}
SWAPS.update({ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitXor: ast.BitOr, ast.MatMult: ast.Mult})
TIMEOUT = 300.0  # seconds per test run


def _slots(tree):
    """(parent, field, index, child) for every node inside a function, once each;
    annotations are skipped, as `from __future__ import annotations` never runs them."""
    seen = {id(n) for a in ast.walk(tree) for f in ("annotation", "returns")
            if isinstance(getattr(a, f, None), ast.AST) for n in ast.walk(getattr(a, f))}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for parent in ast.walk(func):
                for field, value in ast.iter_fields(parent):
                    for i, child in enumerate(value) if isinstance(value, list) else [(None, value)]:
                        if isinstance(child, ast.AST) and id(child) not in seen:
                            seen.add(id(child))
                            yield parent, field, i, child


def _put(parent, field, i, node):
    getattr(parent, field).__setitem__(i, node) if i is not None else setattr(parent, field, node)


def _mutants(tree, mode):
    """(line, description, apply) for each mutant of `tree`, in a fixed order."""
    for parent, field, i, child in _slots(tree):
        if mode == "delete":
            docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) and i == 0
            if isinstance(child, ast.stmt) and i is not None and not isinstance(child, ast.Pass) and not docstring:
                yield child.lineno, ast.unparse(child).split("\n")[0], lambda a=(parent, field, i): _put(*a, ast.Pass())
        elif isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
            yield child.lineno, f"drop not: {ast.unparse(child)}", lambda a=(parent, field, i, child.operand): _put(*a)
        elif isinstance(child, ast.Compare):
            for j, op in enumerate(child.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    yield child.lineno, f"{type(op).__name__} -> {new.__name__}", lambda c=child, j=j, n=new: c.ops.__setitem__(j, n())
        elif isinstance(child, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(child.op) in SWAPS:
            new = SWAPS[type(child.op)]
            yield child.lineno, f"{type(child.op).__name__} -> {new.__name__}", lambda c=child, n=new: setattr(c, "op", n())


def _tests_pass(copy: Path, tests: list[str]) -> bool:
    """Run `tests` in `copy` with -x; --ff first runs the tests that killed earlier mutants."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "--ff", *tests], cwd=copy, env=env,
                             capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("delete", "operator"))
    parser.add_argument("--limit", type=int, help="run only N mutants, drawn with --seed")
    parser.add_argument("--seed", type=int, default=0, help="seed of the --limit draw")
    args = parser.parse_args()
    found = [(p.name, k, line, text) for p in sorted((ROOT / "src" / "cws552").glob("*.py"))
             for k, (line, text, _) in enumerate(_mutants(ast.parse(p.read_text()), args.mode))]
    if args.limit is not None:  # the draw runs in file order, so that --ff finds the killers
        found = sorted(random.Random(args.seed).sample(found, min(args.limit, len(found))))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        tests = sorted(str(p.relative_to(copy)) for p in (copy / "tests").glob("test_*.py"))
        if not _tests_pass(copy, tests):
            sys.exit("the unmutated tests fail; fix them first")
        survivors = 0
        for n, (name, k, line, text) in enumerate(found, 1):
            path = copy / "src" / "cws552" / name
            source, tree = path.read_text(), ast.parse(path.read_text())
            next(apply for j, (_, _, apply) in enumerate(_mutants(tree, args.mode)) if j == k)()
            path.write_text(ast.unparse(tree))
            own = f"tests/test_{name[:-3]}.py"  # the module's own tests run first
            if _tests_pass(copy, sorted(tests, key=lambda t: t != own)):
                survivors += 1
                print(f"SURVIVED src/cws552/{name}:{line}: {text}", flush=True)
            path.write_text(source)
            print(f"[{n}/{len(found)}] {name}:{line} done", file=sys.stderr, flush=True)
    print(f"{args.mode}: {len(found)} mutants, {len(found) - survivors} killed, {survivors} survived")


if __name__ == "__main__":
    main()
