"""Command-line surface: generate, nullspace, check-symmetry, discover, benchmark.

Each subcommand reads an optional JSON config file, overlays any command-line
flags on top of it, validates the merged document against a strict schema
(unknown keys are rejected with the offending path), and then drives the
library modules.  Every artifact embeds the tool version, a hash of the
merged config, and the master seed, so identical inputs reproduce identical
outputs byte for byte.

Exit codes: 0 success, 1 config error, 2 runtime or data error, 3 symmetry
check failed.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import jsonschema
import numpy as np

from . import __version__
from .bench import (METHODS, BenchConfig, _fit_method, emit_report,
                    generators_for, run_benchmark)
from .constraint import assemble_equivariant_basis, materialize
from .discover import DiscoveryConfig, GpConfig
from .dynamics import (NOISE_KINDS, SYSTEMS, NoiseSpec, SindyModel,
                       equation_strings, get_system, load_dataset,
                       make_dataset, sample_initial, save_dataset, split_rng)
from .library import build_library
from .symmetry import LOSS_KINDS, Generator, check_infinitesimal_criterion


class ConfigError(Exception):
    """Raised for any problem with the merged configuration document."""


# -- config schema ---------------------------------------------------------------

_NUM = {"type": "number"}

_GENERATOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["linear", "symbolic"]},
        "matrix": {"type": "array",
                   "items": {"type": "array", "items": _NUM}},
        "components": {"type": "array", "items": {"type": "string"}},
        "label": {"type": "string"},
    },
    "required": ["kind"],
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "system": {"enum": sorted(SYSTEMS)},
        "dataset": {"type": "string"},
        "library": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "exponentials": {"type": "boolean"},
            },
        },
        "generators": {"type": "array", "items": _GENERATOR_SCHEMA},
        "method": {"enum": list(METHODS)},
        "discovery": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "threshold": {"type": "number", "minimum": 0},
                "lambda_symm": {"type": ["number", "null"], "minimum": 0},
                "loss_kind": {"enum": list(LOSS_KINDS)},
                "tau": _NUM,
                "eps": _NUM,
                "gp": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "population": {"type": "integer", "minimum": 1},
                        "generations": {"type": "integer", "minimum": 0},
                        "parsimony": _NUM,
                    },
                },
            },
        },
        "benchmark": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "methods": {"type": "array", "items": {"enum": list(METHODS)},
                            "minItems": 1},
                "runs": {"type": "integer", "minimum": 1},
                "horizon": {"type": ["number", "null"],
                            "exclusiveMinimum": 0},
                "n_checkpoints": {"type": "integer", "minimum": 1},
                "ltp_ics": {"type": "integer", "minimum": 1},
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "noise": {"type": ["number", "null"], "minimum": 0},
                "noise_kind": {"enum": list(NOISE_KINDS)},
                "n_samples": {"type": "integer", "minimum": 2},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "n_train": {"type": "integer", "minimum": 0},
                "n_val": {"type": "integer", "minimum": 0},
                "n_test": {"type": "integer", "minimum": 0},
            },
        },
        "check": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "minimum": 0},
            },
        },
        "seeds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"master": {"type": "integer", "minimum": 0}},
        },
        "out": {"type": "string"},
        "jobs": {"type": "integer", "minimum": 1},
    },
}


def validate_config(cfg):
    """Schema-check a merged config; raises ConfigError naming the bad path."""
    validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config error at {path}: {err.message}")


def config_hash(cfg):
    """Hash of the experiment portion of a config.

    The out directory and the worker cap select where and how fast results
    are produced, never what they are, so they stay outside the hash.
    """
    body = {k: v for k, v in cfg.items() if k not in ("out", "jobs")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _provenance(cfg):
    return {"tool_version": __version__,
            "config_hash": config_hash(cfg),
            "master_seed": cfg.get("seeds", {}).get("master", 0)}


# -- config assembly -------------------------------------------------------------


def _set(cfg, path, value):
    if value is None:
        return
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value


def load_config_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def merge_config(args):
    """File config overlaid with any explicitly passed flags."""
    cfg = load_config_file(args.config) if args.config else {}
    for name, flag in FLAGS.items():
        _set(cfg, flag.path, getattr(args, _dest(name), None))
    validate_config(cfg)
    return cfg


def _require(cfg, key, hint):
    if key not in cfg:
        raise ConfigError(f"config error at {key}: {hint}")
    return cfg[key]


def _build_generators(cfg, system, users):
    """The generators `users` use: the config's, or else the registry's."""
    try:
        given = (tuple(Generator.from_config(g, system.dim)
                       for g in cfg["generators"])
                 if "generators" in cfg else None)
        return generators_for(system, users, given)
    except Exception as exc:
        raise ConfigError(f"config error at generators: {exc}")


def _build_library(cfg, system):
    section = cfg.get("library", {})
    degree = section.get("degree", system.library_degree)
    expo = section.get("exponentials", system.library_exponentials)
    return build_library(system.dim, degree, expo)


def _data_overrides(cfg, system):
    """make_dataset keywords from the data section.

    A key the section leaves out keeps the system's published convention.
    """
    section = cfg.get("data", {})
    spec = system.data
    out = {}
    if "noise" in section or "noise_kind" in section:
        sigma = section.get("noise")
        if sigma is None:
            sigma = spec.noise.sigma
        kind = section.get("noise_kind")
        out["noise"] = (NoiseSpec("none", 0.0) if sigma == 0 or kind == "none"
                        else NoiseSpec(kind or spec.noise.kind, float(sigma)))
    for key in ("n_samples", "dt"):
        if key in section:
            out[key] = section[key]
    keys = ("n_train", "n_val", "n_test")
    counts = tuple(section.get(k, getattr(spec, k)) for k in keys)
    if counts != tuple(getattr(spec, k) for k in keys):
        out["counts"] = counts
    return out


def _build_discovery(cfg, system, master):
    section = dict(cfg.get("discovery", {}))
    gp = GpConfig(**section.pop("gp", {}))
    section.setdefault("threshold", system.data.threshold)
    return DiscoveryConfig(seed=master, gp=gp, **section)


def _outdir(cfg):
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_artifact(cfg, name, payload, what):
    """Write payload and the provenance as sorted JSON to <out>/name."""
    path = os.path.join(_outdir(cfg), name)
    with open(path, "w") as fh:
        json.dump({**payload, "provenance": _provenance(cfg)}, fh, indent=2,
                  sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"{what} written to {path}")


# -- subcommands -----------------------------------------------------------------


def cmd_generate(cfg):
    system = get_system(_require(cfg, "system", "generate needs a system"))
    master = cfg.get("seeds", {}).get("master", 0)
    ds = make_dataset(system, master, **_data_overrides(cfg, system))
    outdir = _outdir(cfg)
    save_dataset(ds, outdir, extra_meta={"provenance": _provenance(cfg)})
    counts = {s: len(ds.splits[s]) for s in ds.splits}
    print(f"wrote dataset for {ds.system} to {outdir}")
    print(f"  splits: {counts}, samples per trajectory: "
          f"{ds.meta['n_samples']}, dt={ds.dt}, noise={ds.noise.kind} "
          f"sigma={ds.noise.sigma}")
    print(f"  manifest: {os.path.join(outdir, 'manifest.json')}")
    return 0


def cmd_nullspace(cfg):
    system = get_system(_require(cfg, "system", "nullspace needs a system"))
    lib = _build_library(cfg, system)
    gens = _build_generators(cfg, system, ("nullspace",))
    basis = assemble_equivariant_basis(lib, gens)
    print(f"r = {basis.nullity}")
    shown = min(basis.nullity, 8)
    for k in range(shown):
        beta = np.zeros(basis.nullity)
        beta[k] = 1.0
        print(f"Q{k+1}:")
        W = np.round(materialize(basis, beta), 10)  # drops SVD residue
        for line in equation_strings(lib, W):
            print(f"  {line}")
    if shown < basis.nullity:
        print(f"... ({basis.nullity - shown} more basis elements in "
              "nullspace.json)")
    _write_artifact(cfg, "nullspace.json", {
        "system": system.name,
        "library": lib.labels(),
        "generators": [g.to_config() for g in gens],
        "r": basis.nullity,
        "Q": basis.Q.tolist(),
        "singular_values": basis.singular_values.tolist(),
    }, "basis")
    return 0


def cmd_check_symmetry(cfg):
    system = get_system(_require(cfg, "system",
                                 "check-symmetry needs a system"))
    points = cfg.get("check", {}).get("points", 200)
    tol = cfg.get("check", {}).get("tol", 1e-8)
    gens = _build_generators(cfg, system, ("check-symmetry",))
    master = cfg.get("seeds", {}).get("master", 0)
    rng = split_rng(master, 0)
    pts = np.array([sample_initial(system, rng) for _ in range(points)])
    report = check_infinitesimal_criterion(system.oracle(), gens, pts,
                                           tol=tol)
    print(f"system {system.name}: max residual {report['max']:.3e}, "
          f"mean {report['mean']:.3e} over {points} points (tol {tol:g})")
    for entry in report["per_generator"]:
        print(f"  {entry['label']}: max {entry['max']:.3e}, "
              f"mean {entry['mean']:.3e}")
    verdict = "consistent" if report["consistent"] else "NOT consistent"
    print(f"symmetry check: {verdict}")
    _write_artifact(cfg, "check_symmetry.json",
                    {"system": system.name, "n_points": points,
                     "report": report}, "report")
    return 0 if report["consistent"] else 3


def cmd_discover(cfg):
    master = cfg.get("seeds", {}).get("master", 0)
    if "dataset" in cfg:
        if cfg.get("data"):
            raise ConfigError(
                f"config error at data: {sorted(cfg['data'])} would generate "
                "data, but --dataset loads a saved dataset")
        ds = load_dataset(cfg["dataset"])
        if cfg.get("system", ds.system) != ds.system:
            raise ConfigError("config error at system: the dataset's "
                              f"system is {ds.system}")
        system = get_system(ds.system)
    elif "system" in cfg:
        system = get_system(cfg["system"])
        ds = make_dataset(system, master, **_data_overrides(cfg, system))
    else:
        raise ConfigError(
            "config error at system: discover needs a system or a dataset")
    method = cfg.get("method", "equiv-c")
    lib = _build_library(cfg, system)
    gens = _build_generators(cfg, system, (method,))
    dcfg = _build_discovery(cfg, system, master)
    model = _fit_method(method, ds, lib, gens, dcfg)
    print(f"discovered ({method} on {system.name}):")
    for line in model.equations():
        print(f"  {line}")
    payload = {
        "system": system.name,
        "method": method,
        "equations": model.equations(),
        "fit": model.provenance,
    }
    if isinstance(model, SindyModel):
        payload["library"] = lib.labels()
        payload["W"] = model.W.tolist()
        payload["coefficients"] = [
            {key.label(): val for key, val in row.items()}
            for row in model.coefficients()]
    else:
        payload["fitness"] = model.fitness
    _write_artifact(cfg, "model.json", payload, "model")
    return 0


def cmd_benchmark(cfg):
    system = get_system(_require(cfg, "system", "benchmark needs a system"))
    if "library" in cfg:
        raise ConfigError("config error at library: benchmark scores every "
                          "method in the system's registry library")
    master = cfg.get("seeds", {}).get("master", 0)
    # the benchmark section's keys are BenchConfig fields; its lists are tuples
    section = {k: tuple(v) if isinstance(v, list) else v
               for k, v in cfg.get("benchmark", {}).items()}
    data = _data_overrides(cfg, system)
    gens = _build_generators(cfg, system,
                             section.get("methods", BenchConfig.methods))
    bc = BenchConfig(
        system=system.name,
        seed=master,
        noise=data.pop("noise", None),
        discovery=(_build_discovery(cfg, system, master)
                   if "discovery" in cfg else None),
        generators=gens if "generators" in cfg else None,
        data=tuple(data.items()),
        jobs=cfg.get("jobs", 1),
        **section,
    )
    report = run_benchmark(bc)
    report["provenance"] = _provenance(cfg)
    outdir = _outdir(cfg)
    emit_report(report, outdir)
    print(f"benchmark {system.name}: {bc.runs} runs, methods "
          f"{', '.join(bc.methods)}")
    for m in bc.methods:
        succ = report["aggregates"][m]["success"]
        cells = ", ".join(f"{k}={succ[k]:.2f}" for k in sorted(succ))
        print(f"  {m}: {cells}")
    print(f"report files in {outdir}: report.json, tables.csv, ltp.csv, "
          "timings.json")
    return 0


# -- argument parsing ------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """A command-line flag and the config path its value overrides."""

    path: tuple
    help: str
    type: object = str        # argparse type; bool is a switch
    choices: tuple = None


def _method_list(text):
    return [m.strip() for m in text.split(",") if m.strip()]


# Every flag, declared once: build_parser adds it to the subcommands that list
# it, and merge_config writes a passed value to its config path.  A flag left
# out keeps the config file's value there.
FLAGS = {
    "--out": Flag(("out",), "output directory (default .)"),
    "--seed": Flag(("seeds", "master"), "master seed", int),
    "--jobs": Flag(("jobs",), "worker process cap", int),
    "--system": Flag(("system",), "registered system name"),
    "--dataset": Flag(("dataset",), "directory of a generated dataset"),
    "--method": Flag(("method",), "discovery method", choices=METHODS),
    "--noise": Flag(("data", "noise"), "noise level sigma_R", float),
    "--noise-kind": Flag(("data", "noise_kind"), "noise model",
                         choices=NOISE_KINDS),
    "--samples": Flag(("data", "n_samples"), "samples per trajectory", int),
    "--dt": Flag(("data", "dt"), "sampling interval", float),
    "--train": Flag(("data", "n_train"), "training trajectories", int),
    "--val": Flag(("data", "n_val"), "validation trajectories", int),
    "--test": Flag(("data", "n_test"), "test trajectories", int),
    "--degree": Flag(("library", "degree"), "library polynomial degree", int),
    "--exponentials": Flag(("library", "exponentials"),
                           "include exp(xi) library terms", bool),
    "--threshold": Flag(("discovery", "threshold"), "sparsity threshold",
                        float),
    "--lambda": Flag(("discovery", "lambda_symm"),
                     "symmetry regularization weight", float),
    "--loss": Flag(("discovery", "loss_kind"), "symmetry loss variant",
                   choices=LOSS_KINDS),
    "--methods": Flag(("benchmark", "methods"), "comma-separated method list",
                      _method_list),
    "--runs": Flag(("benchmark", "runs"), "number of seeded runs", int),
    "--horizon": Flag(("benchmark", "horizon"),
                      "long-term prediction horizon", float),
    "--points": Flag(("check", "points"),
                     "sample points for the residual check (default 200)",
                     int),
    "--tol": Flag(("check", "tol"), "consistency tolerance (default 1e-8)",
                  float),
}

_COMMON_FLAGS = ("--out", "--seed", "--jobs", "--system")

# name -> (handler, help, flags besides --config and the common ones)
COMMANDS = {
    "generate": (cmd_generate, "simulate a dataset to CSV + manifest",
                 ("--noise", "--noise-kind", "--samples", "--dt", "--train",
                  "--val", "--test")),
    "nullspace": (cmd_nullspace, "solve the symmetry constraint for a basis",
                  ("--degree", "--exponentials")),
    "check-symmetry": (cmd_check_symmetry,
                       "test generators against a system's dynamics",
                       ("--points", "--tol")),
    "discover": (cmd_discover, "fit a model on one dataset",
                 ("--dataset", "--method", "--noise", "--threshold",
                  "--lambda", "--loss")),
    "benchmark": (cmd_benchmark, "run seeded discovery benchmarks",
                  ("--methods", "--runs", "--noise", "--horizon")),
}


def _dest(name):
    return name[2:].replace("-", "_")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symodes",
        description="Symmetry-informed discovery of governing equations "
                    "from trajectory data")
    parser.add_argument("--version", action="version",
                        version=f"symodes {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for name in _COMMON_FLAGS + flags:
            flag = FLAGS[name]
            if flag.type is bool:
                p.add_argument(name, dest=_dest(name), action="store_const",
                               const=True, help=flag.help)
            else:
                p.add_argument(name, dest=_dest(name), type=flag.type,
                               choices=flag.choices, help=flag.help)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:       # --help and --version
            raise
        return 1                # argparse's usage errors are config errors
    try:
        cfg = merge_config(args)
        return COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
