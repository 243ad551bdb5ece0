"""Command-line interface.

Subcommands:
  run            sweep methods/parameters over an edge-list dataset
  ssbm           same sweep over a generated signed block model
  eigs           precompute the eigenbasis cache file a sweep reads
  balance-check  report the smallest signed-ratio eigenvalue of the largest
                 signed component

Flags may also come from a file: ``signedgl run @sweep.args --runs 3``
reads one argument per line (``--methods=gl-am,gl-sn``), and a flag given
later wins.  Exit code is 0 on success, 2 on a malformed command line (a
value that does not parse, or a missing flag that a subcommand always
needs), 1 on any other fatal error.  A library warning, such as a loader's
count of dropped rows or skipped labels, is printed as one
``signedgl: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .data import (
    SSBMParams,
    generate_ssbm,
    graph_digest,
    load_labels,
    load_signed_edge_list,
    ssbm_label_data,
    write_labels,
    write_signed_edge_list,
)
from .graph import largest_connected_component
from .harness import (
    GL_METHODS,
    METHODS,
    ExperimentSpec,
    _bases,
    _CacheWriteWarning,
    _check_classes,
    emit_csv,
    run_experiment,
)
from .laplacians import OperatorKind, build_operator, operator_component
from .spectral import smallest_eigs


def _list_of(cast):
    """An argparse type for a comma list; blanks around items are dropped."""
    def parse(value: str) -> list:
        return [cast(v.strip()) for v in value.split(",") if v.strip()]
    parse.__name__ = f"{cast.__name__} list"  # argparse: "invalid float list value: 'x'"
    return parse


_float_list, _int_list, _str_list = _list_of(float), _list_of(int), _list_of(str)


# sweep flag -> (ExperimentSpec field, argparse type, help)
_SPEC_FLAGS = {
    "fractions": ("fractions", _float_list, "labeled-node fractions, e.g. 0.01,0.05"),
    "neigs": ("n_eigs", _int_list, "eigenvector counts, e.g. 20,100"),
    "omega0": ("omega0", _float_list, "fidelity weights"),
    "epsilon": ("epsilon", _float_list, "interface parameters"),
    "runs": ("runs", int, "label resamplings per cell"),
    "seed": ("base_seed", int, "seed of the label masks and multiclass starts"),
    "alpha": ("alpha", float, "LGC mixing parameter"),
    "tau": ("tau", float, "time step"),
    "max_iter": ("max_iter", int, "iteration cap"),
    "tol": ("tol", float, "stopping tolerance"),
}
# the sweep flags' defaults; fractions is the CLI's own default
_DEFAULTS = ExperimentSpec(methods=list(METHODS), fractions=[0.05])
# balance-check reports 2-balanced when lambda_min(signed ratio Laplacian) is at most this
_BALANCE_TOL = 1e-10


def _build_spec(args) -> ExperimentSpec:
    """The sweep spec the flags describe; argparse filled in _DEFAULTS for the rest."""
    return ExperimentSpec(methods=args.methods, **{
        name: getattr(args, flag) for flag, (name, _, _) in _SPEC_FLAGS.items()})


def _add_sweep_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """The sweep flags; ``required`` makes --methods and --out always needed."""
    p.add_argument("--methods", type=_str_list, required=required,
                   help=f"comma list from: {', '.join(METHODS)}")
    for flag, (name, parse, text) in _SPEC_FLAGS.items():
        p.add_argument("--" + flag.replace("_", "-"), type=parse,
                       default=getattr(_DEFAULTS, name), help=f"{text} (default %(default)s)")
    p.add_argument("--out", required=required, help="output CSV path")
    p.add_argument("--cache-dir", help="eigenbasis cache directory")
    p.add_argument("--timings", action="store_true", help="include wall times in the CSV")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True,
                   help="signed edge-list file (comma or whitespace delimited)")
    p.add_argument("--header", action="store_true", help="skip the first data line")


def _sweep(args, spec, g, labels) -> int:
    """Run the sweep ``spec`` on (g, labels) and write its CSV."""
    result = run_experiment(g, labels, spec, cache_dir=args.cache_dir)
    emit_csv(result, args.out, include_timings=args.timings)
    print(f"wrote {args.out} ({len(result.runs)} run rows, {len(result.means)} mean rows)")
    return 0


def _load_graph(args):
    return load_signed_edge_list(args.dataset, header=args.header)


def _check_out(out: str) -> None:
    """Refuse an --out path the CSV could not be written to, before the sweep runs."""
    path = Path(out)
    if path.is_dir():
        raise ValueError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"--out {out}: directory {path.parent} does not exist")


def _cmd_run(args) -> int:
    # a sweep that would be refused is refused before any file is read
    spec = _build_spec(args)
    _check_out(args.out)
    g = _load_graph(args)
    labels = load_labels(args.labels, g, strict=not args.skip_missing)
    return _sweep(args, spec, g, labels)


def _cmd_ssbm(args) -> int:
    # a sweep that would be refused is refused before any file is written
    spec = None
    if args.methods is not None:
        spec = _build_spec(args)
        if not args.out:
            raise ValueError("--out is required when running a sweep")
        _check_out(args.out)
    elif not (args.save_edges or args.save_labels):
        raise ValueError("nothing to do: pass --methods and/or --save-edges")
    params = SSBMParams(
        n=args.n, k=args.k, p_in=args.p_in, p_out=args.p_out,
        eta=args.eta, seed=args.graph_seed,
    )
    g, blocks = generate_ssbm(params)
    labels = ssbm_label_data(blocks)
    if spec is not None:
        _check_classes(labels)
    if args.save_edges:
        write_signed_edge_list(g, args.save_edges)
        print(f"wrote {args.save_edges}")
    if args.save_labels:
        write_labels(g, labels, args.save_labels)
        print(f"wrote {args.save_labels}")
    return 0 if spec is None else _sweep(args, spec, g, labels)


def _cmd_eigs(args) -> int:
    # the sweep's n_eigs check (positive, no repeat) runs before the graph is read
    n_eigs = replace(_DEFAULTS, n_eigs=args.neigs).n_eigs
    cache = Path(args.cache_dir)
    if cache.exists() and not cache.is_dir():
        raise ValueError(f"--cache-dir {args.cache_dir} is not a directory")
    g = _load_graph(args)
    kind = OperatorKind(args.operator)
    comp, _ = largest_connected_component(g, operator_component(kind))
    with warnings.catch_warnings():
        warnings.simplefilter("error", _CacheWriteWarning)  # the file is all eigs makes
        bases = _bases(comp, kind, n_eigs, args.cache_dir, graph_digest(comp))
    k = max(basis.k for _, basis in bases)
    print(f"{kind.value} eigenbasis (n={comp.n}, k={k}) cached in {args.cache_dir}")
    return 0


def _cmd_balance_check(args) -> int:
    g = _load_graph(args)
    # every other component would add a zero eigenvalue of its own
    comp, _ = largest_connected_component(g, "signed")
    lam = smallest_eigs(build_operator(comp, OperatorKind.SR), k=1).lambdas[0]
    balanced = "yes" if lam <= _BALANCE_TOL else "no"
    print(f"largest signed component: nodes={comp.n} of {g.n} "
          f"positive_edges={comp.num_positive_edges} negative_edges={comp.num_negative_edges}")
    print(f"lambda_min(signed ratio Laplacian) = {lam:.6e}")
    print(f"2-balanced (lambda_min <= {_BALANCE_TOL:g}): {balanced}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedgl",
        description="Semi-supervised node classification on signed graphs "
        "via diffuse-interface methods.",
        epilog="An argument @FILE is replaced by the lines of FILE, one argument per line.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep on an edge-list dataset")
    _add_dataset_flags(p_run)
    p_run.add_argument("--labels", required=True, help="node label file")
    p_run.add_argument(
        "--skip-missing", action="store_true",
        help="skip labels whose node id is absent from the graph",
    )
    _add_sweep_flags(p_run, required=True)
    p_run.set_defaults(func=_cmd_run)

    p_ssbm = sub.add_parser("ssbm", help="run a sweep on a generated block model")
    p_ssbm.add_argument("--n", type=int, required=True)
    p_ssbm.add_argument("--k", type=int, default=2)
    p_ssbm.add_argument("--p-in", type=float, required=True)
    p_ssbm.add_argument("--p-out", type=float, required=True)
    p_ssbm.add_argument("--eta", type=float, default=SSBMParams.eta)
    p_ssbm.add_argument("--graph-seed", type=int, default=SSBMParams.seed)
    p_ssbm.add_argument("--save-edges", help="export the edge list")
    p_ssbm.add_argument("--save-labels", help="export block labels")
    # --methods and --out are needed together, unless the graph is only exported
    _add_sweep_flags(p_ssbm, required=False)
    p_ssbm.set_defaults(func=_cmd_ssbm)

    p_eigs = sub.add_parser("eigs", help="precompute eigenbasis cache files")
    _add_dataset_flags(p_eigs)
    p_eigs.add_argument(
        "--operator", required=True, choices=[kind.value for kind in GL_METHODS.values()]
    )
    p_eigs.add_argument("--neigs", type=_int_list, default=_DEFAULTS.n_eigs,
                        help=f"{_SPEC_FLAGS['neigs'][2]} (default %(default)s)")
    p_eigs.add_argument("--cache-dir", required=True)
    p_eigs.set_defaults(func=_cmd_eigs)

    p_bal = sub.add_parser("balance-check", help="report lambda_min of the signed ratio Laplacian "
                           "on the largest signed component")
    _add_dataset_flags(p_bal)
    p_bal.set_defaults(func=_cmd_balance_check)
    return parser


def _notice(message, *_) -> None:
    print(f"signedgl: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores showwarning on the way out
        warnings.showwarning = _notice
        try:
            return args.func(args)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
