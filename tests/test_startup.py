"""Start-up cost: numpy loads on the first matrix, not with the package.

Each test runs a fresh interpreter, because this process has numpy
loaded already.
"""

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
# exit code and whether numpy was loaded afterwards
SCRIPT = """
import contextlib, io, json, sys
import bowforge
from bowforge.cli import main
report = {"momentmap": "bowforge.momentmap" in sys.modules, "import": "numpy" in sys.modules, "calls": []}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv[:1] + ["--json"] + argv[1:])
    report["calls"].append([code, "numpy" in sys.modules, out.getvalue()])
print(json.dumps(report))
"""


def run_verbs(argvs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_and_combinatorial_verbs_leave_numpy_unloaded(tmp_path):
    log = tmp_path / "log.json"
    log.write_text(json.dumps(log_to_json([HwMove(left=0, right=1)])))
    argvs = [[arg.replace("{log}", str(log)) for arg in argv] for argv in NUMPY_FREE.values()]
    report = run_verbs(argvs)
    assert report["momentmap"], "bowforge.momentmap must stay an eagerly imported module"
    assert not report["import"], "import bowforge loaded numpy"
    for name, (code, loaded, _) in zip(NUMPY_FREE, report["calls"]):
        assert code in (0, 1), f"{name} exited {code}"
        assert not loaded, f"{name} loaded numpy"


def test_solve_loads_numpy_and_converges():
    report = run_verbs([["solve", "( 2 x 2 o )"], ["solve", "( 1 o 1 x )", "--lambda", "0.5"]])
    assert not report["import"]
    for code, loaded, out in report["calls"]:
        assert code == 0
        assert loaded
        meta = json.loads(out)["meta"]
        assert meta["converged"] and meta["stable"]
