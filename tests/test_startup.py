"""Start-up cost and optimized mode, each in a fresh interpreter.

numpy loads on the first matrix, not with the package, and neither
``dataclasses`` nor ``inspect`` loads at all.  This process has all
three loaded already, so each test runs a new one.  The same runner
checks that ``python -O`` changes no exit code and no output, and no
``assert`` in the package holds a check that ``-O`` would strip.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from bowforge.diagram import HwMove, log_to_json

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every verb that decides, rewrites or certifies without linear algebra
NUMPY_FREE = {
    "check": ["check", "( 2 x 2 o )"],
    "check-negative": ["check", "[ 0 o 2 x 0 ]"],
    "synth": ["synth", "( 3 x 2 o )"],
    "separate": ["separate", "( 4 x 3 x 0 o 4 o )"],
    "normalize": ["normalize", "( 2 o 5 x )"],
    "hw": ["hw", "( 1 x 1 o )", "--replay", "{log}"],
    "sdual": ["sdual", "( 2 x 2 o )"],
    "equiv": ["equiv", "( 2 x 2 o )", "--budget", "20"],
    "stratum": ["stratum", "( 2 x 2 o )"],
    "stratum-finite": ["stratum", "[ 0 o 2 x 0 ]", "--mode", "finite"],
    "transpose": ["transpose", "--gyd", "4,1", "--level", "3"],
}

# runs main() on each argv of a JSON list and reports, per call, the
# exit code, whether numpy was loaded afterwards and the output; "slow"
# names the modules of SLOW loaded after the import, and after each call
SCRIPT = """
import contextlib, io, json, sys
SLOW = ("dataclasses", "inspect")
import bowforge
from bowforge.cli import main
report = {
    "momentmap": "bowforge.momentmap" in sys.modules,
    "import": "numpy" in sys.modules,
    "slow": [name for name in SLOW if name in sys.modules],
    "calls": [],
}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv[:1] + ["--json"] + argv[1:])
    report["calls"].append([code, "numpy" in sys.modules, out.getvalue(), [name for name in SLOW if name in sys.modules]])
print(json.dumps(report))
"""


def run_verbs(argvs, optimize=False):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    result = subprocess.run(
        [sys.executable, *flags, "-c", SCRIPT, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def numpy_free_argvs(tmp_path):
    log = tmp_path / "log.json"
    log.write_text(json.dumps(log_to_json([HwMove(left=0, right=1)])))
    return [[arg.replace("{log}", str(log)) for arg in argv] for argv in NUMPY_FREE.values()]


def test_import_and_combinatorial_verbs_leave_numpy_unloaded(tmp_path):
    report = run_verbs(numpy_free_argvs(tmp_path))
    assert report["momentmap"], "bowforge.momentmap must stay an eagerly imported module"
    assert not report["import"], "import bowforge loaded numpy"
    for name, (code, loaded, _, _) in zip(NUMPY_FREE, report["calls"]):
        assert code in (0, 1), f"{name} exited {code}"
        assert not loaded, f"{name} loaded numpy"
    # dataclasses compiles methods with exec at import and loads inspect,
    # ast and dis: about a quarter of a one-shot check's CPU time
    assert not report["slow"], f"import bowforge loaded {report['slow']}"
    for name, (_, _, _, slow) in zip(NUMPY_FREE, report["calls"]):
        assert not slow, f"{name} loaded {slow}"


def test_solve_loads_numpy_and_converges():
    report = run_verbs([["solve", "( 2 x 2 o )"], ["solve", "( 1 o 1 x )", "--lambda", "0.5"]])
    assert not report["import"]
    for code, loaded, out, _ in report["calls"]:
        assert code == 0
        assert loaded
        meta = json.loads(out)["meta"]
        assert meta["converged"] and meta["stable"]


def test_optimized_mode_changes_no_answer(tmp_path):
    # a negative dimension once tripped an assert only without -O
    argvs = numpy_free_argvs(tmp_path) + [
        ["solve", "( 32 x 18 x 28 x 40 o )"],
        ["stratum", "[ 0 o 2 x -1 x 0 ]", "--mode", "finite"],
        ["check", "( 2 x 2 )"],
    ]
    plain = [(code, out) for code, _, out, _ in run_verbs(argvs)["calls"]]
    optimized = [(code, out) for code, _, out, _ in run_verbs(argvs, optimize=True)["calls"]]
    assert plain == optimized
    assert [code for code, _ in plain[-3:]] == [0, 1, 2]


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(SRC, "bowforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements vanish under python -O: {found}"
