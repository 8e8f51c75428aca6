"""Command-line entry point.

Subcommands: cluster, nystrom-embed, rad-check, risk-scan, spectrum.  All
take a config file; flags override single values.  Exit status contract:
0 success, 1 a checked verdict was violated, 2 config or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from ._common import fmt12, write_float_csv
from .config import FLAG_KEYS, ExperimentConfig, _flag_help, load_config
from .errors import ConfigError, KKMLabError
from .kernels import effective_dimension, gram_matrix, spectrum_of
from .nystrom import (
    euclidean_kmeanspp_labels,
    euclidean_lloyd,
    landmark_size,
    nystrom_embed,
    sample_landmarks_uniform,
)
from .rademacher import lower_bound_construction, rad_check_cell
from .risk import (METHOD_ALIASES, MPolicy, RiskReport, exact_vs_nystrom, run_cell,
                   scaling_fit, standard_benchmark)
from .seeding import _erm_runs, approximate_erm

def _landmark_policy(key: str, mode: str, m, ny) -> MPolicy:
    """The landmark policy a config asks for; a bad one is a ConfigError that
    names ``key``, the ``[section] key`` giving m."""
    try:
        return MPolicy(mode, m=m, c_scale=ny.c_scale, delta=ny.delta)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def cmd_cluster(cfg: ExperimentConfig) -> int:
    k, method, ny = cfg.cluster.k, cfg.cluster.method, cfg.nystrom
    if method == "nystrom":
        policy = _landmark_policy("[nystrom] m", ny.mode, ny.m, ny)
    K = gram_matrix(cfg.kernel, cfg.load_points())
    out = cfg.run.output_dir
    out.mkdir(parents=True, exist_ok=True)

    extra_lines = []
    if method == "lloyd":  # k-means++ seeding and Lloyd, without local search
        rngs = [np.random.default_rng([cfg.run.master_seed, 0xC1, r])
                for r in range(cfg.cluster.restarts)]
        fits = _erm_runs(K, k, rngs, 0, cfg.cluster.max_iter, cfg.cluster.rel_tol)
        # ties go to the earliest restart: min keeps the first of equal keys
        assignment, trace, _ = min(fits, key=lambda fit: fit[1].per_iteration_cost[-1])
    elif method == "approx":
        rng = np.random.default_rng([cfg.run.master_seed, 0xC2])
        assignment, trace, swaps = approximate_erm(
            K, k, cfg.cluster.rounds, rng=rng,
            max_iter=cfg.cluster.max_iter, rel_tol=cfg.cluster.rel_tol,
        )
        extra_lines.append(f"swaps_accepted: {swaps}")
    else:  # nystrom
        m = policy.landmarks_for(K, K.n, k)
        rng = np.random.default_rng([cfg.run.master_seed, 0xC3])
        L = sample_landmarks_uniform(K.n, m, rng)
        emb = nystrom_embed(K, L, jitter=ny.jitter)
        start = euclidean_kmeanspp_labels(emb.coords, k, rng)
        assignment, ztrace = euclidean_lloyd(
            emb.coords, start, max_iter=cfg.cluster.max_iter, rel_tol=cfg.cluster.rel_tol
        )
        resid = float(np.mean(emb.residuals))
        # report the in-space cost: projected trace plus the residual offset
        trace = replace(ztrace, per_iteration_cost=ztrace.per_iteration_cost + resid)
        extra_lines.append(f"m: {m}")
        extra_lines.append(f"cost_projected: {fmt12(ztrace.per_iteration_cost[-1])}")
    final_cost = float(trace.per_iteration_cost[-1])

    # labels are small integers, which "%.12g" writes as "%d" does
    write_float_csv(out / "assignment.csv", "point_index,cluster_id", assignment.labels, index=True)
    write_float_csv(out / "trace.csv", "iteration,cost", trace.per_iteration_cost, index=True)
    lines = [
        f"method: {method}",
        f"n: {K.n}",
        f"k: {k}",
        f"final_cost: {fmt12(final_cost)}",
        f"iterations: {trace.iterations}",
        f"converged: {trace.converged}",
        *extra_lines,
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"cluster: n={K.n} k={k} method={method} final_cost={fmt12(final_cost)}")
    return 0


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    K = gram_matrix(cfg.kernel, cfg.load_points())
    sp = spectrum_of(K)
    xi = effective_dimension(sp)
    out = cfg.run.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_float_csv(out / "spectrum.csv", "index,eigenvalue", sp.eigenvalues, index=True)
    k = cfg.cluster.k
    print(f"n={K.n} k={k} effective_dimension={fmt12(xi)}")
    print("eigenvalues: " + ",".join(fmt12(v) for v in sp.eigenvalues))
    print("mode,m")
    for mode in ("general", "eigendecay", "linear_k"):
        m = landmark_size(K.n, k, cfg.nystrom.delta, xi=xi, mode=mode, c_scale=cfg.nystrom.c_scale)
        print(f"{mode},{m}")
    return 0


def cmd_nystrom_embed(cfg: ExperimentConfig) -> int:
    ny = cfg.nystrom
    policy = _landmark_policy("[nystrom] m", ny.mode, ny.m, ny)
    K = gram_matrix(cfg.kernel, cfg.load_points())
    m = policy.landmarks_for(K, K.n, cfg.cluster.k)
    rng = np.random.default_rng([cfg.run.master_seed, 0xE3])
    L = sample_landmarks_uniform(K.n, m, rng)
    emb = nystrom_embed(K, L, jitter=cfg.nystrom.jitter)
    out = cfg.run.output_dir
    out.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"z{j}" for j in range(L.m)) + ",residual"
    write_float_csv(out / "embedded.csv", header, emb.coords, emb.residuals)
    print(f"nystrom-embed: n={K.n} m={m} rank={emb.rank} "
          f"mean_residual={fmt12(float(np.mean(emb.residuals)))}")
    return 0


def cmd_rad_check(cfg: ExperimentConfig) -> int:
    out = cfg.run.output_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = ["k,n,estimator,value,std_error,trials,bound,verdict"]  # stdout and rad_check.csv
    violated = False
    print(lines[0])
    for k, n in cfg.lab.grid:
        if n % k != 0:
            print(f"# cell (k={k}, n={n}) skipped: n is not divisible by k")
            continue
        rows, monte_carlo = rad_check_cell(
            lower_bound_construction(k, n), cfg.lab.trials, cfg.run.master_seed
        )
        if monte_carlo:
            print(f"# cell (k={k}, n={n}): exact enumeration too large, "
                  f"falling back to {cfg.lab.trials} Monte Carlo trials")
        for row in rows:
            violated = violated or row.verdict == "violated"
            lines.append(f"{k},{n},{row.estimator},{fmt12(row.value)},{fmt12(row.std_error)},"
                         f"{row.trials},{fmt12(row.bound)},{row.verdict}")
            print(lines[-1])

    (out / "rad_check.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 1 if violated else 0


def cmd_risk_scan(cfg: ExperimentConfig) -> int:
    sweep = cfg.sweep
    methods = [METHOD_ALIASES[name] for name in sweep.methods]
    policy = _landmark_policy("[sweep] m_fixed", sweep.m_mode, sweep.m_fixed, cfg.nystrom)

    report = RiskReport()
    for k in sweep.k_values:
        P = standard_benchmark(k, seed=sweep.benchmark_seed, bandwidth=cfg.kernel.bandwidth,
                               spread=sweep.benchmark_spread)
        for n in sweep.n_values:
            for method in methods:
                cell = run_cell(
                    P, n, k, method, policy, reps=sweep.reps,
                    master_seed=cfg.run.master_seed,
                )
                report.cells.append(cell)

    summary = []
    for axis, values, key, value in (("n", sweep.n_values, "k", min(sweep.k_values)),
                                     ("k", sweep.k_values, "n", max(sweep.n_values))):
        if len(values) < 3:
            continue
        for method in methods:
            label = f"alpha_{axis}[{method},{key}={value}]"
            try:
                expo, half = scaling_fit(report, axis, method=method, **{key: value})
                summary.append(f"{label} = {fmt12(expo)} +- {fmt12(half)}")
            except KKMLabError as exc:
                summary.append(f"{label}: not fitted ({exc})")

    status = 0
    if "exact_erm_approx" in methods and "nystrom" in methods:
        line, status = exact_vs_nystrom(report, sweep.n_values, sweep.k_values)
        summary.append(line)

    out = cfg.run.output_dir
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "report.csv")
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    for line in summary:
        print(line)
    return status


# each subcommand: its function, help line and FLAG_KEYS besides output_dir and seed
_COMMANDS = {
    "cluster": (cmd_cluster, "cluster a dataset and write assignment/trace CSVs",
                ("method", "m", "k")),
    "nystrom-embed": (cmd_nystrom_embed, "write the landmark embedding to CSV", ("m",)),
    "rad-check": (cmd_rad_check, "verify the sign-complexity bound table", ("trials",)),
    "risk-scan": (cmd_risk_scan, "run the excess-risk sweep and write report.csv",
                  ("methods", "reps")),
    "spectrum": (cmd_spectrum, "print eigenvalues, effective dimension, landmark table", ("k",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkmlab",
        description="Kernel k-means with Nystrom landmarks and its numerical lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        # raw text: load_config parses and checks a flag as the file value it replaces
        for flag in ("output_dir", "seed", *flags):
            p.add_argument("--" + flag.replace("_", "-"), help=_flag_help(flag))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {flag: getattr(args, flag, None) for flag in FLAG_KEYS}
    try:
        cfg = load_config(args.config, overrides=overrides)
        return args.func(cfg)
    except (KKMLabError, OSError) as exc:  # ConfigError is a KKMLabError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation it refused
        print(f"error: {args.command} ran out of memory: {str(exc) or 'no size reported'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
