"""The package namespace: one name per object, and what importing it loads."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import zsig


def test_public_names_resolve_to_distinct_objects():
    first_name: dict[int, str] = {}
    for name in zsig.__all__:
        owner = first_name.setdefault(id(getattr(zsig, name)), name)
        assert owner == name, f"{name} is a second name for {owner}"


def _fresh_python(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports this checkout's zsig."""
    src = str(Path(zsig.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_importing_the_cli_loads_neither_mpmath_nor_the_process_pool():
    # mpmath is only a test oracle, and only a multi-worker scan needs a pool
    code = ("import sys, zsig.cli; "
            "print([m for m in ('mpmath', 'concurrent.futures.process') if m in sys.modules])")
    assert _fresh_python(code) == "[]"


def test_bounds_and_verify_run_without_mpmath():
    # a process that cannot import mpmath, as after a plain `pip install`
    code = ("import sys; sys.modules['mpmath'] = None; from zsig.cli import main; "
            "print('rc', main(['bounds', '--poly', 'x^3+x^2'])); print('rc', main(['verify']))")
    bounds, verify = _fresh_python(code).split("\nrc 0\n")
    assert bounds == """polynomial: x^3 + x^2
degree 3, leading coefficient 1, length 2
parameter height 2, preimage depth 3
preimage root bound: 10
index bounds: n0 = 7, n1 = 12, n2 = 18
unit equation count at n0: 4.004038e+12
growth threshold (escape): 30
growth threshold (monomial): 30
growth threshold (bounded): 30
largest index bound: 30"""
    assert verify.endswith("25/25 checks passed\nrc 0") and "FAIL" not in verify


def test_import_footprint():
    # the cli loads neither the scan harness nor the self-check suite until it runs them;
    # only zsig names are checked, since site may preload stdlib modules such as json
    listing = "print(sorted(m for m in sys.modules if m.startswith('zsig')))"
    assert _fresh_python(f"import sys, zsig; {listing}") == "['zsig']"
    assert _fresh_python(f"import sys, zsig.cli; {listing}") == (
        "['zsig', 'zsig.arith', 'zsig.cli', 'zsig.orbit', 'zsig.poly', 'zsig.zsigmondy']")
    # a single-orbit report and a scan, imported and run, load no checker code; the
    # report stays exact, and only the scan reads enclosures and value-free tails
    code = """
import contextlib, io, sys
from zsig.cli import main
watched = ('zsig.oracle', 'zsig.lemmas', 'zsig.enclosure', 'zsig.tail')
with contextlib.redirect_stdout(io.StringIO()):
    main(['zsigmondy', '--poly', 'x^3+x^2', '--c', '1/2'])
print([m for m in watched if m in sys.modules])
import zsig.harness
from zsig.poly import X2DivisiblePoly
zsig.harness.run_scan(zsig.harness.ScanConfig(X2DivisiblePoly.parse('x^3+x^2'), 3, 2, horizon=6))
print([m for m in watched if m in sys.modules])
"""
    assert _fresh_python(code) == "[]\n['zsig.enclosure', 'zsig.tail']"


# the modules a scan or a single orbit runs; the oracles and lemma checkers stay off them
FAST_PATH = ("arith", "poly", "enclosure", "orbit", "tail", "zsigmondy", "harness", "cli")


def test_fast_path_modules_never_import_oracles_or_lemmas():
    package = Path(zsig.__file__).resolve().parent
    for name in FAST_PATH:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):  # function bodies included
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            parts = {part for target in targets for part in target.split(".")}
            assert not parts & {"oracle", "lemmas"}, f"{name}.py:{node.lineno}"


def test_benchmark_trace_finds_every_name_it_patches(monkeypatch):
    # perfbench --trace 1 swaps named zsig attributes for timers; a name a refactor
    # drops breaks the traced runs, which no other tier-1 test starts
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    original = zsig.zsigmondy.distinct_prime_factors
    with spans.installed(spans.Tracer(), zsig):
        assert zsig.zsigmondy.distinct_prime_factors is not original
    assert zsig.zsigmondy.distinct_prime_factors is original


def test_lazy_namespace_resolves_every_public_name():
    # a fresh interpreter, so each name is looked up through the package's __getattr__
    code = """
import importlib, zsig
assert zsig.orbit is importlib.import_module('zsig.orbit')
assert zsig.harness is importlib.import_module('zsig.harness')
for module, names in zsig._EXPORTS.items():
    for name in names:
        value = getattr(zsig, name)
        assert value is getattr(importlib.import_module('zsig.' + module), name)
        assert getattr(value, '__module__', 'zsig.' + module) == 'zsig.' + module, name
assert '__all__' in dir(zsig) and set(zsig.__all__) <= set(dir(zsig))
try:
    zsig.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError('zsig.no_such_name resolved')
namespace = {}
exec('from zsig import *', namespace)
print(len(zsig.__all__), len(set(namespace) & set(zsig.__all__)))
"""
    assert _fresh_python(code) == "63 63"
