"""Command-line surface.

Subcommands: train, eval, predict, synth, kselect, lp, density.  Global
flags: --seed (overrides the config/run seed), --out-dir, --quiet.
Failures exit nonzero after printing one machine-parsable line of the
form ``error:<category>: <message>`` on stderr; categories are io, config
(the run config), data (a data CSV, model or instance file, or a value a
computation rejects) and the phase names train, split, evaluate, write.
A closed stdout exits 1 with no such line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields, make_dataclass, replace

from . import bench, data as datamod
from .bench import PhaseError, RunConfig, config_digest, run_experiment
from .data import (
    gen_function,
    gen_mackey_glass,
    load_csv,
    parse_features,
    read_columns,
    repr_cells,
    load_features,
    series_to_csv,
    dataset_to_csv,
    write_csv,
)
from .model import load_model, predict
from .schema import parse, read_json
from .select import kwta, solve_box_lp, solve_ksum_lp, solve_simplex_lp


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared by every later `main` call in the
    # process: set-up takes most of a single-row predict, and parse_args
    # leaves no state on the parser.
    parser = argparse.ArgumentParser(
        prog="wtanet",
        description="Winner-take-all network benchmarks and tools",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    parser.add_argument("--out-dir", default=None,
                        help="directory for output files")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one experiment from a config file")
    p.add_argument("config", help="run config JSON")

    p = sub.add_parser("eval", help="evaluate a saved model on a CSV file")
    p.add_argument("model", help="model JSON")
    p.add_argument("data", help="data CSV")
    p.add_argument("--target-column", type=int, default=-1)
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("predict", help="write predictions for a CSV file")
    p.add_argument("model", help="model JSON")
    p.add_argument("data", help="data CSV")
    p.add_argument("--target-column", type=int, default=None,
                   help="column to drop before predicting (default: none)")
    p.add_argument("--header", action="store_true")
    p.add_argument("-o", "--output", default="predictions.csv")

    p = sub.add_parser("synth", help="emit a generated dataset as CSV")
    p.add_argument("generator", choices=["f1", "f2", "mackey-glass"])
    p.add_argument("output", help="output CSV path")
    p.add_argument("--n", type=int, help="sample count (f1/f2, default 100)")
    p.add_argument("--length", type=int, help="series length (mackey-glass, default 1500)")
    p.add_argument("--noise", type=float, default=None,
                   help="constant noise sigma (f1/f2)")
    p.add_argument("--noise-slope", type=float, default=None,
                   help="heteroscedastic noise slope sigma0 (f1/f2)")
    p.add_argument("--csv-header", action="store_true")

    p = sub.add_parser("kselect", help="k-winners-take-all on an instance file")
    p.add_argument("instance", help="CSV (one row or column) or JSON {'x', 'k'}")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("lp", help="solve a WTA-reducible linear program")
    p.add_argument("instance", help="CSV (one row or column; box: rows c, lower, "
                   "upper) or JSON {'c', 'k' (ksum), 'lower', 'upper' (box)}")
    p.add_argument("--form", choices=["simplex", "box", "ksum"], required=True)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("density", help="basis-growth (density) check")
    p.add_argument("config", help="run config JSON with a 'density' section")

    return parser


_VECTOR = tuple[float, ...]
# the keys of each instance file: its solver's arguments
_INSTANCES = {
    "kselect": make_dataclass("KselectInstance", [("x", _VECTOR), ("k", int)]),
    "simplex": make_dataclass("SimplexInstance", [("c", _VECTOR)]),
    "ksum": make_dataclass("KsumInstance", [("c", _VECTOR), ("k", int)]),
    "box": make_dataclass("BoxInstance", [("c", _VECTOR), ("lower", _VECTOR),
                                          ("upper", _VECTOR)]),
}


def _read_instance(name, path, k) -> dict:
    """The solver arguments in the ``name`` instance file ``path``; ``k`` overrides.

    A JSON list, or a CSV file's one row or column, is the first vector;
    a box CSV file holds the rows c, lower and upper.
    """
    cls = _INSTANCES[name]
    vectors = [f.name for f in fields(cls) if f.name != "k"]
    if path.endswith(".json"):
        doc = read_json(path, "instance file")
        doc = {vectors[0]: doc} if isinstance(doc, list) else doc
    else:
        raw = parse_features(read_columns(path), None)[1]
        raw = raw.T if len(vectors) == 1 and raw.shape[1] == 1 else raw
        if len(raw) != len(vectors):
            shape = "one row or column" if len(vectors) == 1 else f"{len(vectors)} rows"
            raise ValueError(f"instance file {path} must hold {shape} "
                             f"({', '.join(vectors)}), got {len(raw)} rows")
        doc = dict(zip(vectors, raw.tolist()))
    if k is not None and isinstance(doc, dict):
        doc = {**doc, "k": k}
    return vars(parse(cls, doc))


def _read_config(args) -> RunConfig:
    try:
        config = RunConfig.from_dict(read_json(args.config, "config file"))
        return config if args.seed is None else replace(config, seed=args.seed)
    except ValueError as exc:
        raise PhaseError("config", exc) from exc


def _cmd_train(args) -> int:
    config = _read_config(args)
    result = run_experiment(config, out_dir=args.out_dir)
    if not args.quiet:
        metrics = " ".join(
            f"{k}={v:.6g}" for k, v in sorted(result.report.metrics.items())
        )
        print(f"run {config_digest(config)[:12]} {metrics}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = load_csv(
        args.data,
        target_column=args.target_column,
        mode=model.shape.mode,
        header=args.header,
        normalization=model.normalization,
    )
    metrics, confusion, _ = bench._evaluate_model(model, dataset)
    if confusion is not None:
        metrics["confusion"] = confusion
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    columns, inputs = load_features(
        args.data,
        drop_column=args.target_column,
        header=args.header,
        normalization=model.normalization,
    )
    outputs = predict(model, inputs)[1]
    if model.class_names is not None:
        outputs = [model.class_names[c] for c in outputs.tolist()]
    else:
        outputs = repr_cells(outputs)
    write_csv(args.output, [*columns, outputs])
    if not args.quiet:
        print(f"wrote {len(outputs)} predictions to {args.output}")
    return 0


def _cmd_synth(args) -> int:
    mackey_glass = args.generator == "mackey-glass"
    # the flags of the other kind of generator
    other = {"--n": args.n, "--noise": args.noise, "--noise-slope": args.noise_slope} \
        if mackey_glass else {"--length": args.length}
    for flag, value in other.items():
        if value is not None:
            raise ValueError(f"{flag} does not apply to the {args.generator} generator")
    seed = args.seed if args.seed is not None else 0
    if mackey_glass:
        series = gen_mackey_glass(1500 if args.length is None else args.length)
        series_to_csv(series, args.output, header=args.csv_header)
        count = len(series)
    else:
        if args.noise is not None and args.noise_slope is not None:
            raise ValueError("choose either --noise or --noise-slope, not both")
        linear = args.noise_slope is not None
        dataset = gen_function(
            args.generator, 100 if args.n is None else args.n, seed,
            sigma=args.noise_slope if linear else args.noise,
            noise=datamod.NOISE_LINEAR if linear else datamod.NOISE_CONSTANT,
        )
        dataset_to_csv(dataset, args.output, header=args.csv_header)
        count = dataset.n_samples
    if not args.quiet:
        print(f"wrote {count} rows to {args.output}")
    return 0


def _cmd_kselect(args) -> int:
    result = kwta(**_read_instance("kselect", args.instance, args.k))
    print(json.dumps(
        {"winners": list(result.winners), "values": list(result.values)}
    ))
    return 0


def _cmd_lp(args) -> int:
    solve = {"simplex": solve_simplex_lp, "ksum": solve_ksum_lp, "box": solve_box_lp}
    solution = solve[args.form](**_read_instance(args.form, args.instance, args.k))
    print(json.dumps({
        "x": [float(v) for v in solution.x],
        "objective": solution.objective,
        "certificate": solution.certificate,
    }))
    return 0


def _cmd_density(args) -> int:
    report, out_path = bench.run_density(_read_config(args), out_dir=args.out_dir)
    if not args.quiet:
        status = "non-increasing" if report.non_increasing else "NOT non-increasing"
        print(f"density: {status} within slack {report.slack}; wrote {out_path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "synth": _cmd_synth,
    "kselect": _cmd_kselect,
    "lp": _cmd_lp,
    "density": _cmd_density,
}


def _fail(category: str, message: str) -> int:
    print(f"error:{category}: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except PhaseError as exc:
        return _fail(exc.phase, exc.message)
    except BrokenPipeError:
        # the reader closed stdout (`wtanet eval ... | head -1`): exit 1
        # as quietly as `cat` would, with no error line; stdout goes to
        # devnull so that the interpreter's flush at exit cannot raise again
        sys.stdout = open(os.devnull, "w")
        return 1
    except OSError as exc:
        return _fail("io", str(exc))
    except ValueError as exc:
        return _fail("data", str(exc))


if __name__ == "__main__":
    sys.exit(main())
