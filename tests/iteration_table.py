"""Reference-solve iteration counts on the benchmark's shapes and the unit tests' shapes.

Run from the repository root, with the tree to measure on the path:

    PYTHONPATH=src python tests/iteration_table.py

It takes no options and prints one row per case: the sum of `iterations`
over the case's solves. The benchmark rows run the README grid as one
penalty path per instance (largest penalty first, warm starts) at N = 2000,
and one cold penalty at N = 5000, both at the sweep's tol 1e-8; the
instance seeds 1000-1004, 2000-2004, ... are those of `perfbench/run.py`
with --seed 1, 2, ... The test rows solve `small_instance` shapes cold at
tol 1e-11. Every solve must reach its tolerance, or the script raises.
pytest does not collect this file: its name does not start with test_.
"""

from functools import cache

from amplasso.instances import generate
from amplasso.lasso import solve_lasso, solve_lasso_path

from oracles import FIG4, small_instance

README_LAMBDAS = [2.0, 1.8, 1.6, 1.4, 1.2, 1.0, 0.8, 0.6, 0.4, 0.2]


def iterations(solutions):
    solutions = list(solutions)
    if not all(sol.converged for sol in solutions):
        raise RuntimeError("a solve stopped above its tolerance; its count is not comparable")
    return sum(sol.iterations for sol in solutions)


@cache
def warm_path(seed):
    inst = generate(FIG4, 2000, "gaussian", seed)
    return iterations(solve_lasso_path(inst.A, inst.y, README_LAMBDAS, tol=1e-8))


def single_lambda(seed):
    inst = generate(FIG4, 5000, "gaussian", seed)
    return iterations([solve_lasso(inst.A, inst.y, 1.0, tol=1e-8)])


def small(seeds, lam, **shape):
    return iterations(solve_lasso(*small_instance(seed, **shape), lam, tol=1e-11)
                      for seed in seeds)


ROWS = [
    ("README warm path, N=2000, seeds 1000-1004",
     lambda: sum(map(warm_path, range(1000, 1005)))),
    ("same, seeds 1000-1019", lambda: sum(map(warm_path, range(1000, 1020)))),
    ("same, benchmark seed sets 2000-2004 / 3000-3004 / 4000-4004",
     lambda: " / ".join(str(sum(map(warm_path, range(s, s + 5)))) for s in (2000, 3000, 4000))),
    ("N=5000, lambda=1 cold, seeds 1000-1009", lambda: sum(map(single_lambda, range(1000, 1010)))),
    ("8x10 k=3, lambda=0.02 (seeds 0-19, 26, 78, 100, 157, 50)",
     lambda: small([*range(20), 26, 78, 100, 157, 50], 0.02)),
    ("20x40 k=5, lambda=0.05 (seeds 0-19)", lambda: small(range(20), 0.05, n=20, N=40, k=5)),
    ("40x80 k=8, lambda=0.02 (seeds 0-19)", lambda: small(range(20), 0.02, n=40, N=80, k=8)),
    ("40x80 k=16, lambda=0.02 (seeds 0-19 and 219)",
     lambda: small([*range(20), 219], 0.02, n=40, N=80, k=16)),
    ("40x80 k=16, lambda=0.02, seed 219 alone", lambda: small([219], 0.02, n=40, N=80, k=16)),
]


def main():
    print("| case | iterations |")
    print("|---|---|")
    for case, count in ROWS:
        print(f"| {case} | {count()} |", flush=True)


if __name__ == "__main__":
    main()
