"""Command line front end: gen-samples, learn, predict, bench, dump-coeffs."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .learner import DefiningFunctionEstimate, SampleSet, learn
from .mahler import dump_coefficients
from .nim import BENCHMARK_PARAMS, generate_p_positions, run_task
from .padic import LearningParams


def _text_out(path):
    """The text file at path, opened for writing, or stdout when there is none."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def write_sample_file(path, points: np.ndarray):
    """One point per line, coordinates as space-separated decimals."""
    with _text_out(path) as fh:
        np.savetxt(fh, np.asarray(points), fmt="%d")


def _parse_row(text: str, D: int, malformed: str, miscount: str) -> list[int]:
    """The D whitespace-separated integers of text.

    A token that is no integer raises ValueError(malformed), and another
    count n raises ValueError(miscount.format(n)).
    """
    try:
        row = [int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(malformed) from None
    if len(row) != D:
        raise ValueError(miscount.format(len(row)))
    return row


def read_sample_file(path, D: int) -> np.ndarray:
    """Parse a sample file; blank lines and `#` comments are skipped."""
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0]
            if line.strip():
                where = f"{path}:{lineno}: "
                malformed = f"{where}malformed sample line {raw.rstrip()!r}"
                miscount = f"{where}expected {D} coordinates (--D), got {{}}"
                points.append(_parse_row(line, D, malformed, miscount))
    if not points:
        raise ValueError(f"{path}: no sample points found")
    return np.asarray(points, dtype=np.int64)


_PARAM_FLAGS = ("p", "E", "D", "M", "L")


def _params_from_args(args) -> LearningParams:
    """The flags' params; an unset flag takes BENCHMARK_PARAMS', and an unset L takes M."""
    stock = {f: getattr(BENCHMARK_PARAMS, f) for f in ("p", "E", "D", "M")}
    given = {f: getattr(args, f) for f in _PARAM_FLAGS if getattr(args, f) is not None}
    return LearningParams(**(stock | given))


def _cmd_gen_samples(args) -> int:
    points = generate_p_positions(args.D, (args.M,) * args.D)
    write_sample_file(args.out, points)
    print(f"generated {points.shape[0]} points", file=sys.stderr)
    return 0


def _cmd_learn(args) -> int:
    params = _params_from_args(args)
    points = read_sample_file(args.in_path, params.D)
    est = learn(SampleSet(params, points))
    est.save(args.out)
    print(f"model written to {args.out} ({os.path.getsize(args.out)} bytes)", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    est = DefiningFunctionEstimate.load(args.in_path)
    D = est.params.D
    malformed = f"malformed --point {args.point!r}; expected space-separated integers"
    point = _parse_row(args.point, D, malformed, f"--point has {{}} coordinates, model expects {D}")
    residue = est.predict_residue(point)
    member = "true" if residue == 0 else "false"
    print(f"point {' '.join(str(c) for c in point)} residue {residue} member {member}")
    return 0


def _cmd_bench(args) -> int:
    if args.in_path:
        flags = [f"--{f}" for f in _PARAM_FLAGS if getattr(args, f) is not None]
        if flags:
            raise ValueError(f"{' '.join(flags)} conflict with --in: bench uses the model's params")
        est = DefiningFunctionEstimate.load(args.in_path)
    else:
        params = _params_from_args(args)
        samples = SampleSet(params, generate_p_positions(params.D, (params.M,) * params.D))
        est = learn(samples)
    report = run_task(
        est,
        args.task,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        sample_size=args.sample_size,
    )
    with _text_out(args.out) as fh:
        fh.write(report.to_text())
    print(f"wall_time_ms {report.wall_time_ms}", file=sys.stderr)
    return 0


def _cmd_dump_coeffs(args) -> int:
    est = DefiningFunctionEstimate.load(args.in_path)
    dump_coefficients(est.coeffs, args.out)
    print(f"coefficients written to {args.out}", file=sys.stderr)
    return 0


def _add_param_flags(sub):
    stock = BENCHMARK_PARAMS
    sub.add_argument("--p", type=int, help=f"prime base (default: {stock.p})")
    sub.add_argument("--E", type=int, help=f"precision exponent (default: {stock.E})")
    sub.add_argument("--D", type=int, help=f"dimension (default: {stock.D})")
    sub.add_argument("--M", type=int, help=f"grid bound per axis (default: {stock.M})")
    sub.add_argument("--L", type=int, help="coefficient cutoff (default: M)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiclearn",
        description="Learn and query defining functions of sampled sets mod p**E.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-samples", help="enumerate zero-XOR sample points")
    gen.add_argument("--D", type=int, default=BENCHMARK_PARAMS.D)
    gen.add_argument("--M", type=int, default=BENCHMARK_PARAMS.M)
    gen.add_argument("--out", default=None, help="sample file (default: stdout)")
    gen.set_defaults(func=_cmd_gen_samples)

    lrn = subs.add_parser("learn", help="train a model from a sample file")
    _add_param_flags(lrn)
    lrn.add_argument("--in", dest="in_path", required=True, help="sample file")
    lrn.add_argument("--out", required=True, help="model file")
    lrn.set_defaults(func=_cmd_learn)

    prd = subs.add_parser("predict", help="evaluate one point against a model")
    prd.add_argument("--in", dest="in_path", required=True, help="model file")
    prd.add_argument("--point", required=True, help='query point, e.g. "1 2 3"')
    prd.set_defaults(func=_cmd_predict)

    ben = subs.add_parser("bench", help="run one benchmark task")
    _add_param_flags(ben)
    ben.add_argument("--task", type=int, required=True, choices=(1, 2, 3, 4))
    ben.add_argument("--trials", type=int, default=100000, help="trials for tasks 1 and 3")
    ben.add_argument("--seed", type=int, default=0, help="RNG seed for tasks 1 and 3")
    ben.add_argument("--in", dest="in_path", default=None, help="model file (default: train)")
    ben.add_argument("--out", default=None, help="report file (default: stdout)")
    ben.add_argument("--mode", choices=("exhaustive", "subsample"), default="exhaustive")
    ben.add_argument("--sample-size", type=int, default=16384, help="points in subsample mode")
    ben.set_defaults(func=_cmd_bench)

    dmp = subs.add_parser("dump-coeffs", help="write a model's coefficient grid")
    dmp.add_argument("--in", dest="in_path", required=True, help="model file")
    dmp.add_argument("--out", required=True, help="coefficient dump file")
    dmp.set_defaults(func=_cmd_dump_coeffs)

    return parser


def parse_and_dispatch(argv=None) -> int:
    """Parse argv (default sys.argv[1:]) and run the selected command."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
