"""Command-line front end for the verification campaigns.

    zalcman verify caratheodory --samples 100000 --seed 7
    zalcman verify ball --dim 3 --norm lp:3 --out report.json
    zalcman search --m 2 --n 3 --budget 20000 --format csv

Each campaign takes ``--seed``, ``--out`` and ``--format`` plus a flag for
each setting it reads (``campaigns.CAMPAIGNS``); any other flag is a usage
error.  One parser per command: the command's own parser reads the flags
after its words, and a command line that names no command goes to the root
parser, which prints help or the usage error.  Exit status: 0 when the
campaign finds no violations, 1 when it does, 2 on a usage error.  A margin
below -1e-9 (``campaigns.TOLERANCE``), or a NaN margin, is a violation; no
option changes that gate.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .campaigns import (
    CAMPAIGNS,
    CampaignConfig,
    UsageError,
    emit_report,
    run_campaign,
)

_DEFAULTS = CampaignConfig("")

# The flags of each setting as (flag, help, default); order takes two.
_FLAGS = {
    "samples": (("--samples", "number of sampled cases", _DEFAULTS.samples),),
    "dim": (("--dim", "complex dimension of the ambient space", _DEFAULTS.dim),),
    "norm": (("--norm", "gauge family: l2, sup, lp:P or l1", _DEFAULTS.norm),),
    "order": (
        ("--m", "first coefficient index", _DEFAULTS.order[0]),
        ("--n", "second coefficient index", _DEFAULTS.order[1]),
    ),
    "budget": (("--budget", "refinement evaluation budget", _DEFAULTS.budget),),
}


def _add_campaign(commands, name: str, summary: str) -> argparse.ArgumentParser:
    sub = commands.add_parser(name, help=summary)
    sub.set_defaults(campaign=name, parser=sub)
    sub.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")
    for setting in CAMPAIGNS[name][1]:
        for flag, text, default in _FLAGS[setting]:
            sub.add_argument(flag, type=type(default), default=default,
                             help=f"{text} (default {default})")
    if name == "sharpness":
        # Its two checks are fixed; --samples 2 stays accepted only until
        # ROADMAP item 1 drops it from the benchmark's command lines.
        sub.add_argument("--samples", type=int, choices=(2,), help="its number of checks")
    return sub


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The root parser, and each command's own parser under its words, such
    as ("verify", "ball") and ("search",); built once, since parsing leaves
    them unchanged."""
    parser = argparse.ArgumentParser(
        prog="zalcman",
        description="Numerical verification of coefficient-functional bounds "
        "for starlike functions and their lifts to several variables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="run a seeded verification campaign")
    campaigns = verify.add_subparsers(dest="campaign", required=True)
    leaves = {
        ("verify", name): _add_campaign(campaigns, name, f"the {name} campaign")
        for name in CAMPAIGNS
        if name != "search"
    }
    leaves[("search",)] = _add_campaign(
        commands, "search", "search for extremizers of |a_m a_n - a_{m+n-1}|"
    )
    return parser, leaves


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every command under its root."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """The flags of argv, read by the parser of the command its leading
    words name; argv that names no command goes to the root parser."""
    root, leaves = _parsers()
    for n in (1, 2):
        leaf = leaves.get(tuple(argv[:n]))
        if leaf is not None:
            return leaf.parse_args(argv[n:])
    # A campaign's parser, not the root's, reports a flag it does not take.
    args, unknown = root.parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _config_from(args: argparse.Namespace) -> CampaignConfig:
    """The seed and the settings the campaign reads, from the parsed flags."""
    given = dict(vars(args), order=(getattr(args, "m", None), getattr(args, "n", None)))
    settings = {name: given[name] for name in CAMPAIGNS[args.campaign][1]}
    return CampaignConfig(args.campaign, args.seed, **settings)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg = _config_from(args)
        report = run_campaign(cfg)
        emit_report(report, args.format, args.out)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{cfg.campaign}: samples={report.samples} max_value={report.max_value:.12g} "
        f"bound={report.bound:.12g} min_margin={report.min_margin:.6g} "
        f"violations={len(report.violations)} {status}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
