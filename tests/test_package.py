"""The package namespace: one name per object, and what importing it loads."""
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
    # only the bound solvers need mpmath and only a multi-worker scan needs a pool
    code = ("import sys, zsig.cli; "
            "print([m for m in ('mpmath', 'concurrent.futures.process') if m in sys.modules])")
    assert _fresh_python(code) == "[]"


def test_import_footprint():
    # the cli loads neither the scan harness nor the self-check suite until it runs them;
    # only zsig names are checked, since site may preload stdlib modules such as json
    listing = "print(sorted(m for m in sys.modules if m.startswith('zsig')))"
    assert _fresh_python(f"import sys, zsig; {listing}") == "['zsig']"
    assert _fresh_python(f"import sys, zsig.cli; {listing}") == (
        "['zsig', 'zsig.arith', 'zsig.cli', 'zsig.orbit', 'zsig.poly', 'zsig.zsigmondy']")


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
    assert _fresh_python(code) == "65 65"
