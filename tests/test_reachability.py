"""Every function of the package is reached by a command.

The six commands run, at grids 8 and 16, in one subprocess on this
package's sources under a profile hook that is set before ``fluoinv.cli``
is imported, so the configuration parsers built at import count as reached.
A ``def`` in ``src/fluoinv`` that no run enters, and that is not on the
allowlist, is surface nothing uses: delete it, or add the run that needs it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from conftest import SRC, package_env

PACKAGE = SRC / "fluoinv"

# reached only where this hook cannot see, or kept for debugging
ALLOWED = {
    "stochastic._install_runner",  # run in forked trial workers only
    "stochastic._run_task",
    "grid.Grid.__repr__",
    "grid.GridFunction.__repr__",
}

# (name, command, preset, configuration, exit code): every weight mode, fitted
# and clean data, the trials with source recovery and a tail, a failing weight
# loop, a failing battery and a broken cross-key rule; the exit code says a run
# still takes its path
RUNS = [
    ("forward-discontinuous", "forward", "example2-discontinuous", {"grid": 8, "tau": 0.25}, 0),
    ("forward-flipped", "forward", None,
     {"grid": 8, "tau": 0.25, "source": "zero", "flip_boundary": True}, 0),
    ("p1-prior-s0", "p1", "example1", {"grid": 16, "n": 300}, 0),
    ("p1-prior-s1", "p1", "example1", {"grid": 16, "n": 300, "s": 1}, 0),
    ("p1-fixed", "p1", "example1",
     {"grid": 16, "n": 300, "lambda": {"mode": "fixed", "value": 1e-6}}, 0),
    ("p1-ladder", "p1", "example1",
     {"grid": 16, "n": 300, "lambda": {"mode": "ladder", "values": [1e-7, 1e-6]}}, 0),
    ("p1-self-consistent", "p1", "example2-smooth", {"grid": 16, "tau": 0.25, "n": 100}, 0),
    ("p2-fitted", "p2", "example2-smooth", {"grid": 16, "tau": 0.25, "n": 100}, 0),
    ("p2-clean", "p2", None,
     {"grid": 16, "tau": 0.25, "truth": "example2-smooth", "clean": True}, 0),
    ("rates-p2-tail", "rates", None,
     {"grid": 8, "tau": 0.25, "truth": "example2-smooth", "s": 0, "relative_sigma": 0.01,
      "ladder": [20, 40], "trials": 2, "run_p2": True, "tail_trials": 50}, 0),
    # the example1 weight loop diverges on few sensors: the only failing pass
    ("rates-self-consistent", "rates", None,
     {"grid": 16, "truth": "example1", "s": 0, "sigma": 0.002, "ladder": [100, 300, 1000],
      "trials": 2, "lambda": {"mode": "self-consistent"}}, 3),
    ("spectral", "spectral", None, {"grid": 16, "k_max": 50, "n": 40}, 0),
    ("verify", "verify", "verify-default", {"grid": 8}, 0),
    ("verify-violated", "verify", "verify-violated", {"grid": 8}, 4),
    ("p2-example1", "p2", None, {"grid": 8, "truth": "example1", "clean": True}, 2),
]

# prints the exit codes, then (file, first line) of every code object entered
PROBE = """
import json, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
import fluoinv.cli

codes = [fluoinv.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered})}))
"""


def package_defs():
    """(file, first line) -> dotted name of every ``def`` in the package; the
    first line of a decorated function is its first decorator's."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            scope = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs[str(path), first] = scope
            visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return defs


def test_every_function_is_reached_by_a_command(tmp_path):
    argvs = []
    for name, command, preset, cfg, _ in RUNS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(cfg))
        argvs.append([command, *(["--preset", preset] if preset else []),
                      "--config", str(config), "--out", str(tmp_path / name)])
    run = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                         env=package_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert dict(zip([r[0] for r in RUNS], report["codes"])) == {r[0]: r[4] for r in RUNS}

    defs = package_defs()
    assert ALLOWED <= set(defs.values())  # no stale entry
    entered = {tuple(key) for key in report["entered"]}
    missed = [f"{Path(file).name}:{line} {name}" for (file, line), name in sorted(defs.items())
              if (file, line) not in entered and name not in ALLOWED]
    assert missed == [], "\n".join(missed)
