"""End-to-end command-line tests driven through main()."""

import json
import math

import pytest

from bowforge import branes, cli
from bowforge.cli import main
from bowforge.diagram import parse_diagram, render_diagram
from bowforge.momentmap import construct_solution, solution_to_json
from bowforge.susy import certificate_to_json, decide_supersymmetry
from test_rewrite import run_optimized


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# check


def test_check_negative_witness(capsys):
    code, payload = run(capsys, "check", "--json", "[ 0 o 2 x 0 ]")
    assert code == 1
    assert payload["susy"] is False
    assert payload["witness"]["kind"] == "inequality_violation"
    assert payload["witness"]["value"] == -1


def test_check_trivial_positive(capsys):
    code, payload = run(capsys, "check", "--json", "( 0 x 0 o )")
    assert code == 0
    assert payload["susy"] is True


def test_check_reads_files(capsys, tmp_path):
    target = tmp_path / "d.txt"
    target.write_text("( 1 x 2 o 2 x 1 o )\n")
    code, payload = run(capsys, "check", "--json", str(target))
    assert code == 0
    assert payload["susy"] is True


def test_check_rejects_garbage(capsys):
    code, payload = run(capsys, "check", "--json", "( 1 y 2 z )")
    assert code == 2
    assert "error" in payload


# ---------------------------------------------------------------------------
# rewriting verbs


def test_separate_then_replay_round_trip(capsys, tmp_path):
    code, payload = run(capsys, "separate", "--json", "( 1 x 2 o 2 x 1 o )")
    assert code == 0
    log_file = tmp_path / "log.json"
    log_file.write_text(json.dumps(payload["log"]))
    sep_text = payload["separated"]["text"]

    code, moved = run(capsys, "hw", "--json", "--replay", str(log_file), "( 1 x 2 o 2 x 1 o )")
    assert code == 0
    assert moved["text"] == sep_text

    # the emitted diagram JSON keeps node ids, so the log can be undone
    code, back = run(
        capsys, "hw", "--json", "--inverse", "--replay", str(log_file), json.dumps(moved["diagram"])
    )
    assert code == 0
    assert back["text"] == render_diagram(parse_diagram("( 1 x 2 o 2 x 1 o )"))


def test_normalize_reports_gap(capsys):
    code, payload = run(capsys, "normalize", "--json", "( 1 x 2 o 2 x 1 o )")
    assert code == 0
    norm = payload["normalized"]
    assert 0 <= norm["gap"] < norm["w"]


def test_sdual_swaps_kinds(capsys):
    code, payload = run(capsys, "sdual", "--json", "( 1 x 2 o 2 x 1 o )")
    assert code == 0
    assert sorted(payload["diagram"]["nodes"]) == ["o", "o", "x", "x"]
    assert payload["text"] != render_diagram(parse_diagram("( 1 x 2 o 2 x 1 o )"))


def test_equiv_exit_tracks_min_dim(capsys):
    code, payload = run(capsys, "equiv", "--json", "--budget", "50", "[ 0 o 2 x 0 ]")
    assert code == 1
    assert payload["min_dim"] < 0
    code, payload = run(capsys, "equiv", "--json", "--budget", "50", "( 0 x 0 o )")
    assert code == 0
    assert payload["min_dim"] == 0


def test_equiv_budget_is_a_swap_depth(capsys):
    # the budget counts swaps, not diagrams: each depth adds one diagram
    # per direction of travel, so depth 5 visits 1 + 2 * 5
    code, payload = run(capsys, "equiv", "--json", "--budget", "5", "( 2 x 2 o )")
    assert code == 0
    assert payload["visited"] == 11


# ---------------------------------------------------------------------------
# synthesis


def test_synth_emits_ledger(capsys, tmp_path):
    out = tmp_path / "ledger.json"
    code, payload = run(
        capsys, "synth", "--json", "--out", str(out), "( 1 x 2 o 2 x 1 o )"
    )
    assert code == 0
    assert payload["branes"]
    assert json.loads(out.read_text()) == payload


def test_synth_refuses_non_susy(capsys):
    # a refused synthesis prints decide's negative certificate
    for text in ("[ 0 o 2 x 0 ]", "( 2 o 5 x )", "( -1 o 2 x )"):
        code, payload = run(capsys, "synth", "--json", text)
        assert code == 1
        assert payload == certificate_to_json(decide_supersymmetry(parse_diagram(text)))
        assert payload["susy"] is False


def test_synth_self_check_raises_under_optimize():
    # a ledger that check_ledger rejects is never printed, also under -O:
    # the failed self-check exits 4 with one error line
    script = (
        "import contextlib, io, json\n"
        "import bowforge.cli as cli\n"
        "cli.check_ledger = lambda ledger: ['planted problem']\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    code = cli.main(['synth', '( 3 x 2 o )'])\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
    )
    code, out, err = json.loads(run_optimized(script))
    message = "synthesized ledger failed its check: ['planted problem']"
    assert code == 4
    assert json.loads(out) == {"error": message}
    assert err == f"error: {message}\n"


def _refuse(*args):
    raise ValueError("planted refusal")


INTERNAL_FAULTS = {
    "self-check": (cli, "check_ledger", lambda ledger: ["planted problem"], "failed its check"),
    "crossing": (branes, "_crossed", lambda held, net: [7], "on the dims"),
    # decide, run only on a refusal, says supersymmetric
    "refusal": (branes, "_finite_branes", _refuse, "synthesis refused a diagram that decide calls supersymmetric"),
}


@pytest.mark.parametrize("target, name, patch, message", INTERNAL_FAULTS.values(), ids=INTERNAL_FAULTS.keys())
def test_internal_failure_exits_4(capsys, monkeypatch, target, name, patch, message):
    monkeypatch.setattr(target, name, patch)
    # the pipeline of this diagram leaves the arrow two net shrinks past the x point
    code = main(["synth", "--json", "( 3 o 2 x )"])
    captured = capsys.readouterr()
    assert code == 4
    assert message in json.loads(captured.out)["error"]
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


# ---------------------------------------------------------------------------
# solver verbs


def test_solve_verify_round_trip(capsys, tmp_path):
    sol_file = tmp_path / "sol.json"
    code, payload = run(
        capsys,
        "solve",
        "--json",
        "--seed",
        "1",
        "--out",
        str(sol_file),
        "( 1 x 2 o 2 x 1 o )",
    )
    assert code == 0
    assert payload["meta"]["converged"] is True

    code, report = run(capsys, "verify", "--json", "--sol", str(sol_file))
    assert code == 0
    assert report["accepted"] is True
    assert report["stable"] is True
    assert all(entry["s1"] and entry["s2"] for entry in report["x_points"].values())


def test_solve_large_dims_and_verify_keys(capsys, tmp_path):
    # the kernel chain and the raw Krylov rank once refused this zero (exit 3)
    sol_file = tmp_path / "sol.json"
    code, payload = run(capsys, "solve", "--json", "--out", str(sol_file), "( 32 x 18 x 28 x 40 o )")
    assert code == 0
    assert payload["meta"]["stable"] is True

    code, report = run(capsys, "verify", "--json", "--sol", str(sol_file))
    assert code == 0
    assert report["rank_rtol"] == 1e-6
    assert len(report["x_points"]) == 3
    for entry in report["x_points"].values():
        assert set(entry) == {"cond_a", "s1", "s2", "chain_dim", "krylov_rank"}
        assert entry["s1"] and entry["s2"] and entry["chain_dim"] == 0


def test_solve_converges_where_crowded_shifts_missed(capsys, tmp_path):
    # shifts crowded on the unit circle once left a residual of 2.1e-7 here (exit 3)
    sol_file = tmp_path / "sol.json"
    code, payload = run(capsys, "solve", "--json", "--out", str(sol_file), "( 53 x 29 o 37 x )")
    assert code == 0
    assert payload["meta"]["converged"] is True

    code, report = run(capsys, "verify", "--json", "--sol", str(sol_file))
    assert code == 0
    assert report["accepted"] is True


def test_solve_refuses_non_susy_at_level_zero(capsys):
    code, payload = run(capsys, "solve", "--json", "--seed", "0", "[ 0 o 2 x 0 ]")
    assert code == 1
    assert payload["susy"] is False


def test_solve_honors_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("BOWFORGE_SEED", "7")
    code, payload = run(capsys, "solve", "--json", "( 1 x 1 o )")
    assert code == 0
    assert payload["meta"]["seed"] == 7


def test_verify_flags_corrupted_solution(capsys, tmp_path):
    sol_file = tmp_path / "sol.json"
    code, payload = run(
        capsys, "solve", "--json", "--seed", "1", "--out", str(sol_file), "( 2 x 2 o )"
    )
    assert code == 0
    data = json.loads(sol_file.read_text())
    data["triangles"]["0"]["A"][0][0] = [5.0, 0.0]
    sol_file.write_text(json.dumps(data))
    code, report = run(capsys, "verify", "--json", "--sol", str(sol_file))
    assert code == 1
    assert report["accepted"] is False


# ---------------------------------------------------------------------------
# weight verbs


def test_transpose_pinned_example(capsys):
    code, payload = run(
        capsys, "transpose", "--json", "--gyd", "4,1", "--rows", "2", "--level", "3"
    )
    assert code == 0
    assert payload == [3, 1, 1]


def test_transpose_rejects_bad_rows(capsys):
    code, payload = run(
        capsys, "transpose", "--json", "--gyd", "1,4", "--level", "3"
    )
    assert code == 2
    assert "error" in payload


def test_stratum_affine_positive(capsys):
    code, payload = run(capsys, "stratum", "--json", "--mode", "affine", "( 1 x 2 o 2 x 1 o )")
    assert code == 0
    assert payload["level"] == 2
    assert len(payload["values"]) == 2


def test_stratum_finite_layout(capsys):
    code, payload = run(capsys, "stratum", "--json", "--mode", "finite", "[ 0 o 2 o 0 x 3 x 0 ]")
    assert code == 0
    assert payload["values"] == [0, 0]


def test_stratum_finite_needs_layout(capsys):
    code, payload = run(capsys, "stratum", "--json", "--mode", "finite", "( 1 x 2 o 2 x 1 o )")
    assert code == 2
    assert "error" in payload


@pytest.mark.parametrize("text", ["[ 0 o 2 x 1 x 0 ]", "[ 0 x 1 x 0 ]", "( 2 o 3 o )"])
def test_stratum_affine_mode_names_its_precondition(capsys, text):
    code = main(["stratum", "--json", text])
    captured = capsys.readouterr()
    assert code == 2
    message = "affine mode needs an affine diagram with both node kinds (use --mode finite for a finite layout)"
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# malformed input


MALFORMED = {
    "diagram-json-not-a-list": (["check", '{"nodes": 3}'], None),
    "diagram-json-null-dim": (
        ["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [null, 1]}'],
        None,
    ),
    # JSON integer fields take ints only: no rounding, no overflow
    "diagram-json-overflowing-dim": (["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [1e400, 1]}'], None),
    "diagram-json-infinite-dim": (["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [Infinity, 1]}'], None),
    "diagram-json-fractional-dim": (["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [1.7, 1]}'], None),
    "diagram-json-bool-dim": (["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [true, 1]}'], None),
    "diagram-json-fractional-id": (
        ["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [1, 1], "ids": [0.5, 1]}'],
        None,
    ),
    "solution-overflowing-dim": (
        ["verify", "--sol", "{file}"],
        '{"diagram": {"shape": "affine", "nodes": ["o", "x"], "dims": [1e400, 1]}}',
    ),
    "move-fractional-left": (["hw", "--replay", "{file}", "( 1 x 1 o )"], '[{"op": "hw", "left": 1.9, "right": 0}]'),
    "move-bool-amount": (["hw", "--replay", "{file}", "( 1 x 1 o )"], '[{"op": "subtract_arrow_arc", "amount": true}]'),
    "diagram-json-scalar-ids": (
        ["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [1, 1], "ids": 5}'],
        None,
    ),
    "solution-without-diagram": (["verify", "--sol", "{file}"], '{"x": 1}'),
    "move-without-nodes": (["hw", "--replay", "{file}", "( 1 x 1 o )"], '[{"op": "hw"}]'),
    "move-names-missing-node": (
        ["hw", "--replay", "{file}", "( 1 x 1 o )"],
        '[{"op": "hw", "left": 5, "right": 0}]',
    ),
    "cut-past-last-segment": (["hw", "--replay", "{file}", "( 1 x 1 o )"], '[{"op": "cut_at", "segment": 99}]'),
    "cut-before-first-segment": (["hw", "--replay", "{file}", "( 0 x 1 o )"], '[{"op": "cut_at", "segment": -1}]'),
    "negative-budget": (["equiv", "--budget", "-1", "( 1 x 1 o )"], None),
    "stratum-one-kind": (["stratum", "( 2 o 3 o )"], None),
    "level-nan": (["solve", "( 1 o 1 x )", "--lambda", "nan"], None),
    "level-inf": (["solve", "( 1 o 1 x )", "--lambda", "inf"], None),
    "level-nonfinite-part": (["solve", "( 1 o 1 x 1 o 1 x )", "--lambda", "1,-infj"], None),
    "solve-tol-nan": (["solve", "( 2 x 2 o )", "--tol", "nan"], None),
    "solve-tol-inf": (["solve", "( 2 x 2 o )", "--tol", "inf"], None),
    "solve-tol-negative": (["solve", "( 2 x 2 o )", "--tol", "-1"], None),
    "verify-tol-nan": (["verify", "--sol", "{file}", "--tol", "nan"], "{solution}"),
    "verify-tol-minus-inf": (["verify", "--sol", "{file}", "--tol=-inf"], "{solution}"),
    "verify-tol-negative": (["verify", "--sol", "{file}", "--tol=-1e-9"], "{solution}"),
    # usage errors that argparse itself detects
    "verify-tol-negative-spaced": (["verify", "--sol", "{file}", "--tol", "-1e-9"], "{solution}"),
    "verify-tol-not-a-number": (["verify", "--sol", "{file}", "--tol", "abc"], "{solution}"),
    "unknown-flag": (["check", "--bogus", "( 1 x 1 o )"], None),
    "missing-diagram": (["check"], None),
    "unknown-verb": (["bogus", "( 1 x 1 o )"], None),
}


@pytest.mark.parametrize("argv, content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, content):
    target = tmp_path / "input.json"
    if content == "{solution}":
        # a valid stored zero, so only the flag under test is malformed
        content = json.dumps(solution_to_json(construct_solution(parse_diagram("( 2 x 2 o )"))))
    if content is not None:
        target.write_text(content)
    argv = [arg.replace("{file}", str(target)) for arg in argv]
    code = main([argv[0], "--json", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.out)
    assert len(captured.err.strip().splitlines()) == 1
    if content and '"left": 5' in content:
        # the missing node is named without the quotes str(KeyError) adds
        assert captured.err == "error: replay failed: no node with id 5\n"


def _shift_a(data):
    data["triangles"]["0"]["A"][0][0][0] += 0.5


BROKEN_SOLUTIONS = {
    # a level off the arrows would raise the acceptance threshold of a
    # broken zero without entering its residual
    "level-on-x-point": lambda data: (_shift_a(data), data.update({"lambda": {"0": [1e6, 0]}})),
    "level-on-no-node": lambda data: (_shift_a(data), data.update({"lambda": {"99": [1e6, 0]}})),
    # truncated maps and missing nodes would load as zeros
    "short-matrix-rows": lambda data: data["triangles"]["0"]["A"].pop(),
    "short-matrix-columns": lambda data: [row.pop() for row in data["triangles"]["0"]["B_in"]],
    "missing-triangle": lambda data: data["triangles"].pop("0"),
    # json reads NaN and Infinity; they would print a NaN residual, not JSON
    "nan-level": lambda data: data.update({"lambda": {"1": [math.nan, 0]}}),
    "infinite-map-entry": lambda data: data["triangles"]["0"]["A"][0][0].__setitem__(0, math.inf),
    # int() reads each of these keys as the arrow, node 1, and the last of
    # two keys for one node once won silently
    "level-key-leading-zero": lambda data: data.update({"lambda": {"01": [5, 0]}}),
    "level-key-leading-space": lambda data: data.update({"lambda": {" 1": [5, 0]}}),
    "level-key-plus-sign": lambda data: data.update({"lambda": {"+1": [5, 0]}}),
    "level-key-twice": lambda data: data.update({"lambda": {"1": [0, 0], "01": [5, 0]}}),
}


@pytest.mark.parametrize("spoil", BROKEN_SOLUTIONS.values(), ids=BROKEN_SOLUTIONS.keys())
def test_verify_refuses_broken_solution_files(capsys, tmp_path, spoil):
    target = tmp_path / "sol.json"
    assert main(["solve", "( 2 x 2 o )", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    spoil(data)
    target.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--json", "--sol", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.out)
    assert len(captured.err.strip().splitlines()) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0
    assert "usage: bowforge check" in capsys.readouterr().out
