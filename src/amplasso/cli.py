"""Command line front end.

Subcommands:
    sweep           run the (lambda, N, seed) grid from a JSON config
    se-curves       dump the scalar-map, fixed-point, and penalty curves
    min-lambda      search the predicted-risk minimizer inside a bracket
    check-instance  generate one instance and run sanity checks

Every subcommand reads its values from one ExperimentConfig, parsed and
validated before anything is written.

Exit codes: 0 success, 2 invalid config or arguments, 3 a cell or check
failed, or the theory failed (an AmplassoError in se-curves or min-lambda).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import AmplassoError
from .experiments import (RECORD_COLUMNS, ExperimentConfig, dump_se_curves, minimum_lambda,
                          run_sweep, write_curve_tables, write_records_csv)
from .instances import generate, singular_edge_check

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_FAILED_CELL = 3


def _cmd_sweep(args, config):
    out_dir = args.out or config.out
    os.makedirs(out_dir, exist_ok=True)
    records = run_sweep(config, seed_base=args.seed_base)
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_records_csv(records, csv_path,
                      sidecar_path=os.path.join(out_dir, "sweep.json"),
                      config=config)
    n_err = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} records to {csv_path} ({n_err} failed)")
    if args.gnuplot:
        gp = os.path.join(out_dir, "sweep.gp")
        x, lasso, predicted = (RECORD_COLUMNS.index(name) + 1
                               for name in ("lambda", "mse_lasso", "mse_predicted"))
        with open(gp, "w") as fh:
            fh.write('set datafile separator ","\n'
                     'set xlabel "lambda"\nset ylabel "MSE"\nset key top left\n'
                     f'plot "{csv_path}" using {x}:{lasso} skip 1 with points title "lasso", \\\n'
                     f'     "{csv_path}" using {x}:{predicted} skip 1 with lines title "predicted"\n')
        print(f"wrote {gp}")
    return _EXIT_FAILED_CELL if n_err else _EXIT_OK


def _cmd_se_curves(args, config):
    out_dir = args.out or config.out
    os.makedirs(out_dir, exist_ok=True)
    tables = dump_se_curves(config.se_params, alpha_grid=config.alpha_grid,
                            tau2_grid=config.tau2_grid, f_map_alpha=config.f_map_alpha)
    paths = write_curve_tables(tables, out_dir)
    dropped = sum(1 for row in tables.tau_star if row[2])
    for name, path in sorted(paths.items()):
        print(f"wrote {path}")
    if dropped:
        print(f"warning: {dropped} alpha values were dropped: at or below the admissible "
              "minimum, or their fixed point did not converge", file=sys.stderr)
    if args.gnuplot:
        gp = os.path.join(out_dir, "se_curves.gp")
        with open(gp, "w") as fh:
            fh.write('set datafile separator ","\nset key top left\n'
                     f'plot "{paths["f_map.csv"]}" using 1:2 skip 1 with lines title "F", x title "diagonal"\n'
                     'pause -1\n'
                     f'plot "{paths["tau_star.csv"]}" using 1:2 skip 1 with lines title "tau*"\n'
                     'pause -1\n'
                     f'plot "{paths["lambda_of_alpha.csv"]}" using 1:2 skip 1 with lines title "lambda"\n')
        print(f"wrote {gp}")
    if tables.failure is not None:
        raise tables.failure
    return _EXIT_OK


def _cmd_min_lambda(args, config):
    result = minimum_lambda(config.se_params, config.lambda_bracket)
    print(f"lambda_opt = {result.lambda_opt:.6f}")
    print(f"mse_opt    = {result.mse_opt:.6f}")
    return _EXIT_OK


def _cmd_check_instance(args, config):
    inst = generate(config.se_params, config.N_list[0], config.ensemble,
                    args.seed_base + config.seeds[0])
    sigma_max, sigma_min, ok = singular_edge_check(inst.A, config.delta)
    sqrt_inv = 1.0 / np.sqrt(config.delta)
    norms = np.linalg.norm(inst.A, axis=0)
    print(f"instance: N={inst.N} n={inst.n} ensemble={inst.ensemble} seed={inst.seed}")
    print(f"sigma_max = {sigma_max:.6f} (limit {sqrt_inv + 1:.6f})")
    print(f"sigma_min = {sigma_min:.6f} (limit {abs(sqrt_inv - 1):.6f})")
    print(f"column norms in [{norms.min():.6f}, {norms.max():.6f}]")
    print(f"edge check: {'pass' if ok else 'FAIL'}")
    return _EXIT_OK if ok else _EXIT_FAILED_CELL


def _seed_base(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(prog="amplasso",
                                     description="Sparse-recovery sweeps: message passing vs reference solver vs theory.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    config = flag("--config", required=True, help="JSON config path")
    out = flag("--out", help="output directory (default: the config's out key)")
    seed_base = flag("--seed-base", type=_seed_base, default=0, help="offset added to every seed")
    gnuplot = flag("--gnuplot", action="store_true", help="also emit a plot script")
    for name, func, text, flags in (
            ("sweep", _cmd_sweep, "run the full cell grid", [config, out, seed_base, gnuplot]),
            ("se-curves", _cmd_se_curves, "dump theory curves", [config, out, gnuplot]),
            ("min-lambda", _cmd_min_lambda, "minimize predicted risk over the penalty", [config]),
            ("check-instance", _cmd_check_instance, "sanity-check one instance", [config, seed_base])):
        sub.add_parser(name, parents=flags, help=text).set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except AmplassoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_FAILED_CELL


if __name__ == "__main__":
    sys.exit(main())
