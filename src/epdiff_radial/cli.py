"""Command line interface.

Verbs:

* ``run <config>``      -- integrate a scenario, write its CSV output
* ``certify <config>``  -- print the blowup certificate only
* ``exact-hs <config>`` -- write the exact Hunter-Saxton solution table
* ``sweep <config> --param key --values v1,v2,...`` -- one run per value

Exit codes (``run`` and ``sweep``; a sweep returns the largest):

* 0 -- ``completed`` or ``blowup_detected`` (and ``-h``)
* 1 -- usage, config or I/O error
* 2 -- ``guard_tripped``: the support reached 0.9 R_max; increase r_max
* 3 -- ``step_rejected``: a step was still rejected after 20 halvings
* 4 -- ``nonfinite_state``: the state became NaN or inf

``certify`` exits 0 when the certificate passes and 2 when it does not.
"""

import argparse
import os
import sys
from functools import lru_cache

from .certify import certify
from .scenario import parse_config, parse_value, run_scenario, write_exact_hs_table


def _load_config(args):
    with open(args.config_file) as fh:
        return parse_config(fh.read())


def _add_common(sub):
    sub.add_argument("config_file", help="path to key=value config")
    sub.add_argument("--output", help="override the config's output path")
    sub.add_argument("--quiet", action="store_true", help="suppress progress lines")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epdiff-radial",
        description="Lagrangian simulator for radial EPDiff equations",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "certify", "exact-hs", "sweep"):
        sub = subs.add_parser(verb)
        _add_common(sub)
        if verb == "sweep":
            sub.add_argument("--param", required=True, help="config key to vary")
            sub.add_argument(
                "--values", required=True, help="comma-separated values"
            )
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first call in a process and kept: building
    one takes argparse about 0.7 ms, some twenty times what parsing takes,
    and a process may call ``main`` many times."""
    return build_parser()


def _cmd_run(args):
    config = _load_config(args)
    out = run_scenario(config, output_path=args.output, quiet=args.quiet)
    return out.exit_code


def _cmd_certify(args):
    from .scenario import _build

    config = _load_config(args)
    spec, grid, data = _build(config)
    cert = certify(spec, grid, data.omega0)
    report = cert.report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
    if not args.quiet:
        print(report)
    return 0 if cert.passed else 2


def _cmd_exact_hs(args):
    config = _load_config(args)
    write_exact_hs_table(config, output_path=args.output, quiet=args.quiet)
    return 0


def _cmd_sweep(args):
    import dataclasses

    config = _load_config(args)
    values = [parse_value(args.param, raw) for raw in args.values.split(",")]
    worst = 0
    for value in values:
        variant = dataclasses.replace(config, **{args.param: value})
        stem, ext = os.path.splitext(args.output or config.output)
        path = f"{stem}__{args.param}_{value}{ext}"
        out = run_scenario(variant.validate(), output_path=path, quiet=args.quiet)
        worst = max(worst, out.exit_code)
    return worst


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means guard_tripped here
        return 1 if exc.code else 0
    handler = {
        "run": _cmd_run,
        "certify": _cmd_certify,
        "exact-hs": _cmd_exact_hs,
        "sweep": _cmd_sweep,
    }[args.verb]
    try:
        return handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
