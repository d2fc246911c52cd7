"""Child-process entry points of the benchmark; run.py starts one per batch.

    child.py setup KIND CONFIG          import amplasso.cli, load and validate a config
    child.py provenance [--probe]       machine and library facts as JSON on stdout
    child.py cli SPANS -- ARGV...       amplasso.cli.main(ARGV) with tracing on
    child.py theory INPUT OUT [--spans SPANS]   one round of theory queries

amplasso is imported from the checkout's src/ (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import time

from tracer import Tracer


def load_params(obj):
    """SEParams from its JSON form (a prior preset name or a Prior object)."""
    from amplasso.scalars import Prior, get_preset
    from amplasso.state_evolution import SEParams

    prior = obj["prior"]
    prior = get_preset(prior) if isinstance(prior, str) else Prior.from_json(prior)
    return SEParams(delta=float(obj["delta"]), sigma2=float(obj["sigma2"]), prior=prior)


def cmd_setup(args):
    import amplasso.cli
    from amplasso.experiments import ExperimentConfig

    with open(args.config) as fh:
        raw = json.load(fh)
    if args.kind == "sweep":
        ExperimentConfig.from_json(raw)
    else:
        load_params(raw)
    print(os.path.realpath(amplasso.cli.__file__))
    return 0


def _l3_bytes():
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(root)):
            with open(os.path.join(root, index, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(root, index, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cmd_provenance(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = _l3_bytes()
    info = {"nproc": len(os.sched_getaffinity(0)), "l3_bytes": l3,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0]}
    if args.probe:
        # read rate of a matrix-vector product (the program's kernel) on a
        # matrix at least four times the last-level cache
        cols = 4096
        rows = math.ceil(4 * (l3 or 128 * 1024 ** 2) / (8 * cols))
        A = np.ones((rows, cols))
        v = np.ones(cols)
        A @ v
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            A @ v
            times.append(time.perf_counter() - t0)
        info["probe_bytes"] = A.nbytes
        info["read_gbps"] = A.nbytes / sorted(times)[len(times) // 2] / 1e9
    print(json.dumps(info))
    return 0


def cmd_cli(args):
    import amplasso.cli

    tracer = Tracer()
    tracer.install()
    try:
        return amplasso.cli.main(args.argv)
    finally:
        tracer.dump(args.spans)


def cmd_theory(args):
    """Predicted risk over each penalty grid, then the penalty optimum and the
    curve tables, per parameter set. Functions are looked up on their
    modules at call time so that installed wrappers see the calls."""
    from amplasso import experiments, state_evolution

    with open(args.input) as fh:
        spec = json.load(fh)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    results = []
    try:
        for i, (obj, lambdas) in enumerate(zip(spec["params"], spec["lambdas"])):
            params = load_params(obj)
            for lam in lambdas:
                b = state_evolution.predicted_risk(params, lam)
                results.append({"kind": "predicted_risk", "param": i, "lam": lam,
                                "alpha": b.alpha, "tau2_star": b.tau2_star,
                                "mse": b.mse_predicted})
            m = experiments.minimum_lambda(params, spec["bracket"])
            results.append({"kind": "minimum_lambda", "param": i, "lambda_opt": m.lambda_opt,
                            "mse_opt": m.mse_opt, "unimodal": m.unimodal})
            t = experiments.dump_se_curves(params)
            results.append({"kind": "dump_se_curves", "param": i, "f_map": t.f_map,
                            "tau_star": t.tau_star, "lambda_of_alpha": t.lambda_of_alpha})
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    with open(args.output, "w") as fh:
        json.dump(results, fh)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("kind", choices=("sweep", "theory"))
    p.add_argument("config")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("provenance")
    p.add_argument("--probe", action="store_true")
    p.set_defaults(func=cmd_provenance)
    p = sub.add_parser("cli")
    p.add_argument("spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    p = sub.add_parser("theory")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--spans", default=None)
    p.set_defaults(func=cmd_theory)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
