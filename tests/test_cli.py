"""End-to-end command-line tests driven through main()."""

import json

import pytest

from bowforge.cli import main
from bowforge.diagram import parse_diagram, render_diagram


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
    code, payload = run(capsys, "synth", "--json", "[ 0 o 2 x 0 ]")
    assert code == 1
    assert payload["susy"] is False


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


# ---------------------------------------------------------------------------
# malformed input


MALFORMED = {
    "diagram-json-not-a-list": (["check", '{"nodes": 3}'], None),
    "diagram-json-null-dim": (
        ["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [null, 1]}'],
        None,
    ),
    "diagram-json-scalar-ids": (
        ["check", '{"shape": "affine", "nodes": ["o", "x"], "dims": [1, 1], "ids": 5}'],
        None,
    ),
    "solution-without-diagram": (["verify", "--sol", "{file}"], '{"x": 1}'),
    "move-without-nodes": (["hw", "--replay", "{file}", "( 1 x 1 o )"], '[{"op": "hw"}]'),
    "negative-budget": (["equiv", "--budget", "-1", "( 1 x 1 o )"], None),
    "stratum-one-kind": (["stratum", "( 2 o 3 o )"], None),
    "level-nan": (["solve", "( 1 o 1 x )", "--lambda", "nan"], None),
    "level-inf": (["solve", "( 1 o 1 x )", "--lambda", "inf"], None),
    "level-nonfinite-part": (["solve", "( 1 o 1 x 1 o 1 x )", "--lambda", "1,-infj"], None),
}


@pytest.mark.parametrize("argv, content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, content):
    target = tmp_path / "input.json"
    if content is not None:
        target.write_text(content)
    argv = [arg.replace("{file}", str(target)) for arg in argv]
    code = main([argv[0], "--json", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.out)
    assert len(captured.err.strip().splitlines()) == 1
