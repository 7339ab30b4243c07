"""Command-line front end binding the toolkit into one executable.

Every subcommand prints machine-readable JSON on standard output and a
short human summary on standard error (suppressed by ``--json``).
Diagrams are accepted inline in the text grammar, as a path to a text
file, or as a path to a diagram JSON file.

Exit codes: 0 success or positive verdict, 1 negative verdict,
2 usage or input error, 3 numerical non-convergence, 4 internal
failure (a self-check or an exact step that failed on valid input).
Codes 2 and 4 print one ``error:`` line on stderr and
``{"error": ...}`` on stdout.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from pathlib import Path

from .branes import check_ledger, ledger_to_json, synthesize
from .diagram import (
    BowDiagram,
    SeparatedForm,
    diagram_from_json,
    diagram_to_json,
    log_from_json,
    log_to_json,
    parse_diagram,
    render_diagram,
    s_dual,
    separated_view,
)
from .momentmap import (
    _accept_threshold,
    _construct_decided,
    _level_acts,
    settle,
    solution_from_json,
    solution_to_json,
    solve_numeric,
)
from .rewrite import (
    NegativeWitness,
    enumerate_equivalent,
    normalize_gap,
    replay,
    separate,
)
from .susy import _decide_full, certificate_to_json, decide_supersymmetry, witness_to_json
from .weights import stratum_check_affine, stratum_check_finite, transpose_gyd

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Bad flags or unreadable input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Parser whose own usage errors take the one-line exit-2 path too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# input and output plumbing


def _default_seed() -> int:
    raw = os.environ.get("BOWFORGE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"BOWFORGE_SEED must be an integer, got {raw!r}")


# what a decoder raises on well-formed JSON of the wrong shape
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError)


def _load_diagram(arg: str) -> BowDiagram:
    text = arg
    try:
        path = Path(arg)
        if path.exists() and path.is_file():
            text = path.read_text()
    except OSError:
        pass
    text = text.strip()
    try:
        if text.startswith("{"):
            return diagram_from_json(json.loads(text))
        return parse_diagram(text)
    except _MALFORMED as exc:
        raise UsageError(f"cannot read diagram from {arg!r}: {type(exc).__name__}: {exc}")


def _load_json_file(arg: str, decode, what: str):
    try:
        data = json.loads(Path(arg).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON file {arg!r}: {exc}")
    try:
        return decode(data)
    except _MALFORMED as exc:
        raise UsageError(f"cannot read {what} from {arg!r}: {type(exc).__name__}: {exc}")


def _emit(args, payload, summary: str = "") -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
        if summary:
            print(summary, file=sys.stderr)


def _write_out(args, payload) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sep_to_json(sep: SeparatedForm) -> dict:
    return {
        "diagram": diagram_to_json(sep.diagram),
        "text": render_diagram(sep.diagram),
        "n": sep.n,
        "w": sep.w,
        "arrow_ids": list(sep.arrow_ids),
        "x_ids": list(sep.x_ids),
        "v_arr": list(sep.v_arr),
        "v_x": list(sep.v_x),
        "gap": sep.gap,
    }


def _normalized_form(d: BowDiagram):
    """Separate and normalize; a negative witness short-circuits."""

    result = separate(d)
    if isinstance(result, NegativeWitness):
        return result
    sep, log = result
    result = normalize_gap(sep)
    if isinstance(result, NegativeWitness):
        return result
    norm, more = result
    return norm, log + more


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    cert = decide_supersymmetry(_load_diagram(args.diagram))
    _emit(args, certificate_to_json(cert), f"susy: {'yes' if cert.verdict else 'no'}")
    return EXIT_OK if cert.verdict else EXIT_NEGATIVE


def _cmd_separate(args) -> int:
    result = separate(_load_diagram(args.diagram))
    if isinstance(result, NegativeWitness):
        _emit(
            args,
            {"separated": None, "witness": witness_to_json(result)},
            "separation forced a negative dimension",
        )
        return EXIT_NEGATIVE
    sep, log = result
    _emit(
        args,
        {"separated": _sep_to_json(sep), "log": log_to_json(log)},
        f"separated: n={sep.n} w={sep.w} gap={sep.gap}",
    )
    return EXIT_OK


def _cmd_normalize(args) -> int:
    result = _normalized_form(_load_diagram(args.diagram))
    if isinstance(result, NegativeWitness):
        _emit(
            args,
            {"normalized": None, "witness": witness_to_json(result)},
            "normalization forced a negative dimension",
        )
        return EXIT_NEGATIVE
    norm, log = result
    _emit(
        args,
        {"normalized": _sep_to_json(norm), "log": log_to_json(log)},
        f"normalized: gap={norm.gap} of w={norm.w}",
    )
    return EXIT_OK


def _cmd_hw(args) -> int:
    d = _load_diagram(args.diagram)
    log = _load_json_file(args.replay, log_from_json, "move log")
    try:
        out = replay(d, log, inverse=args.inverse)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise UsageError(f"replay failed: {reason}")
    _emit(
        args,
        {"diagram": diagram_to_json(out), "text": render_diagram(out)},
        render_diagram(out),
    )
    return EXIT_OK


def _cmd_sdual(args) -> int:
    out = s_dual(_load_diagram(args.diagram))
    _emit(
        args,
        {"diagram": diagram_to_json(out), "text": render_diagram(out)},
        render_diagram(out),
    )
    return EXIT_OK


def _cmd_equiv(args) -> int:
    sample = enumerate_equivalent(_load_diagram(args.diagram), budget=args.budget)
    _emit(
        args,
        {"visited": len(sample.encodings), "min_dim": sample.min_dim},
        f"visited {len(sample.encodings)} diagrams, min dimension {sample.min_dim}",
    )
    return EXIT_OK if sample.min_dim >= 0 else EXIT_NEGATIVE


def _cmd_synth(args) -> int:
    d = _load_diagram(args.diagram)
    try:
        ledger = synthesize(d)
    except ValueError:
        # a decide only where synthesis refuses, for the negative certificate
        cert = decide_supersymmetry(d)
        if cert.verdict:
            raise RuntimeError("synthesis refused a diagram that decide calls supersymmetric") from None
        _emit(args, certificate_to_json(cert), "not supersymmetric: no ledger exists")
        return EXIT_NEGATIVE
    problems = check_ledger(ledger)
    if problems:
        raise RuntimeError(f"synthesized ledger failed its check: {problems}")
    payload = ledger_to_json(ledger)
    _write_out(args, payload)
    total = sum(ledger.branes.values())
    _emit(args, payload, f"ledger with {total} branes covers every segment")
    return EXIT_OK


def _parse_level(raw: str | None, d: BowDiagram) -> dict[int, complex]:
    from .diagram import NodeKind

    arrow_ids = [node.id for node in d.nodes if node.kind == NodeKind.ARROW]
    if raw is None:
        return {}
    try:
        parts = [complex(tok) for tok in raw.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse level values from {raw!r}")
    if not all(cmath.isfinite(part) for part in parts):
        raise UsageError(f"level values must be finite, got {raw!r}")
    if len(parts) == 1:
        parts = parts * len(arrow_ids)
    if len(parts) != len(arrow_ids):
        raise UsageError(
            f"expected 1 or {len(arrow_ids)} level values, got {len(parts)}"
        )
    return dict(zip(arrow_ids, parts, strict=True))


def _check_tol(tol: float | None) -> float | None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"--tol must be finite and non-negative, got {tol!r}")
    return tol


def _cmd_solve(args) -> int:
    _check_tol(args.tol)
    d = _load_diagram(args.diagram)
    lam = _parse_level(getattr(args, "level", None), d)
    seed = args.seed if args.seed is not None else _default_seed()
    # levels that change no equation leave the level-zero zero exact
    exact = not _level_acts(d, lam)
    if exact:
        cert, fin = _decide_full(d)
        if not cert.verdict and not any(lam.values()):
            _emit(
                args,
                certificate_to_json(cert),
                "no level-zero solution: diagram is not supersymmetric",
            )
            return EXIT_NEGATIVE
        exact = cert.verdict
    if exact:
        sol = _construct_decided(d, cert, fin, seed)
        sol.lam = lam
        settle(sol, args.tol)
    else:
        sol = solve_numeric(d, lam=lam, seed=seed)
        if args.tol is not None:
            settle(sol, args.tol)
    payload = solution_to_json(sol)
    _write_out(args, payload)
    _emit(
        args,
        payload,
        f"residual {sol.residual:.3e} stable {sol.stable} converged {sol.converged}",
    )
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def _cmd_verify(args) -> int:
    tol = _check_tol(args.tol)
    sol = _load_json_file(args.sol, solution_from_json, "solution")
    threshold = tol if tol is not None else _accept_threshold(sol.diagram, sol.lam)
    report = settle(sol, threshold)
    payload = {
        "residual": sol.residual,
        "threshold": threshold,
        "stable": sol.stable,
        "accepted": sol.converged,
        "rank_rtol": report.rtol,
        "x_points": {
            str(nid): {
                "cond_a": entry.cond_a,
                "s1": entry.s1,
                "s2": entry.s2,
                "chain_dim": entry.chain_dim,
                "krylov_rank": entry.krylov_rank,
            }
            for nid, entry in report.entries.items()
        },
    }
    _emit(
        args,
        payload,
        f"residual {sol.residual:.3e} stable {sol.stable} accepted {sol.converged}",
    )
    return EXIT_OK if sol.converged else EXIT_NEGATIVE


def _cmd_stratum(args) -> int:
    d = _load_diagram(args.diagram)
    if args.mode == "finite":
        sep = separated_view(d)
        if sep is None or not sep.is_finite_layout:
            raise UsageError("finite mode needs a separated finite layout")
        kappa = stratum_check_finite(sep)
        if kappa is None:
            _emit(args, None, "no stratum admits this layout")
            return EXIT_NEGATIVE
        payload = {"values": list(kappa), "level": sep.n, "dpair": None}
        _emit(args, payload, f"stratum {list(kappa)} at level {sep.n}")
        return EXIT_OK
    if d.is_finite or d.n_arrows == 0 or d.n_xpoints == 0:
        raise UsageError("affine mode needs an affine diagram with both node kinds (use --mode finite for a finite layout)")
    result = _normalized_form(d)
    if isinstance(result, NegativeWitness):
        _emit(args, None, "normalization forced a negative dimension")
        return EXIT_NEGATIVE
    norm, _ = result
    weight = stratum_check_affine(norm)
    if weight is None:
        _emit(args, None, "no stratum admits this diagram")
        return EXIT_NEGATIVE
    payload = {
        "values": list(weight.values),
        "level": weight.level,
        "dpair": weight.dpair,
    }
    _emit(args, payload, f"stratum {list(weight.values)} at level {weight.level}")
    return EXIT_OK


def _cmd_transpose(args) -> int:
    try:
        values = [int(tok) for tok in args.gyd.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse row lengths from {args.gyd!r}")
    if args.rows is not None:
        if len(values) > args.rows:
            raise UsageError(f"{len(values)} rows given but --rows {args.rows}")
        values += [0] * (args.rows - len(values))
    try:
        result = transpose_gyd(values, args.level)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(args, list(result), f"transpose: {list(result)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bowforge",
        description="decision procedure and certificate toolkit for bow diagrams",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, help_text, diagram=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="compact JSON only, no summary")
        if diagram:
            p.add_argument("diagram", help="inline diagram text or a path to one")
        return p

    add("check", _cmd_check, "decide supersymmetry and print the certificate")
    add("separate", _cmd_separate, "gather the x points into one run")
    add("normalize", _cmd_normalize, "separate and normalize the arrow-arc overhang")

    p = add("hw", _cmd_hw, "replay a move log against a diagram")
    p.add_argument("--replay", required=True, help="path to a move-log JSON file")
    p.add_argument("--inverse", action="store_true", help="undo the log instead")

    add("sdual", _cmd_sdual, "swap node kinds")

    p = add("equiv", _cmd_equiv, "breadth-first sample of the swap-equivalence class")
    p.add_argument("--budget", type=int, default=1000, help="breadth-first depth: visit the diagrams at most this many swaps away")

    p = add("synth", _cmd_synth, "synthesize a covering brane ledger")
    p.add_argument("--out", help="also write the ledger JSON to this path")

    p = add("solve", _cmd_solve, "find a stable moment-map zero")
    p.add_argument("--lambda", dest="level", help="level constants, one or per-arrow comma list")
    p.add_argument("--seed", type=int, help="solver seed (default: BOWFORGE_SEED or 0)")
    p.add_argument("--tol", type=float, help="override the residual acceptance threshold")
    p.add_argument("--out", help="also write the solution JSON to this path")

    p = add("verify", _cmd_verify, "recompute residual and stability of a stored solution", diagram=False)
    p.add_argument("--sol", required=True, help="path to a solution JSON file")
    p.add_argument("--tol", type=float, help="override the residual acceptance threshold")

    p = add("stratum", _cmd_stratum, "weight-lattice membership test")
    p.add_argument("--mode", choices=["finite", "affine"], default="affine")

    p = add("transpose", _cmd_transpose, "transpose a generalized Young diagram", diagram=False)
    p.add_argument("--gyd", required=True, help="comma-separated row lengths")
    p.add_argument("--rows", type=int, help="pad with zero rows up to this count")
    p.add_argument("--level", type=int, required=True, help="strip width")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help prints its text and exits 0
        return int(exc.code or 0)
    except (UsageError, ValueError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL if isinstance(exc, RuntimeError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
