"""Command-line front end for the verification campaigns.

    zalcman verify caratheodory --samples 100000 --seed 7
    zalcman verify ball --dim 3 --norm lp:3 --out report.json
    zalcman search --m 2 --n 3 --budget 20000 --format csv

Exit status: 0 when the campaign finds no violations, 1 when it does,
2 on a usage error.  A margin below -1e-9 (``campaigns.TOLERANCE``), or a
NaN margin, is a violation; no option changes that gate.
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

VERIFY_CAMPAIGNS = tuple(c for c in CAMPAIGNS if c != "search")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")
    sub.add_argument("--m", type=int, default=2, help="first coefficient index")
    sub.add_argument("--n", type=int, default=3, help="second coefficient index")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zalcman",
        description="Numerical verification of coefficient-functional bounds "
        "for starlike functions and their lifts to several variables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="run a seeded verification campaign"
    )
    verify.add_argument("campaign", choices=VERIFY_CAMPAIGNS)
    _add_common(verify)
    verify.add_argument("--samples", type=int, default=None,
                        help="number of sampled cases")
    verify.add_argument("--dim", type=int, default=None,
                        help="complex dimension for the several-variables campaigns")
    verify.add_argument("--norm", default=None, metavar="{l2|sup|lp:P|l1}",
                        help="gauge family of the ambient space")

    search = commands.add_parser(
        "search", help="search for extremizers of |a_m a_n - a_{m+n-1}|"
    )
    _add_common(search)
    search.add_argument("--budget", type=int, default=None,
                        help="refinement evaluation budget")
    return parser


def _config_from(args: argparse.Namespace) -> CampaignConfig:
    kwargs = {
        "campaign": args.campaign if args.command == "verify" else "search",
        "seed": args.seed,
        "order": (args.m, args.n),
    }
    for name in ("samples", "dim", "norm", "budget"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return CampaignConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        report = run_campaign(cfg)
        emit_report(report, args.format, args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
