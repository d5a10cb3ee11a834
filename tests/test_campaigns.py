import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import tracemalloc

import pytest

from zalcman import (
    CampaignConfig,
    HerglotzMeasure,
    ZalcmanOrder,
    coeffs_from_p,
    run_campaign,
    zalcman_J,
)
from zalcman import campaigns, cli, mappings
from zalcman.campaigns import (
    REPORT_VERSION,
    SAMPLE_BLOCK,
    UsageError,
    emit_report,
    render_report,
    space_of,
    subseed,
)
from zalcman.cli import build_parser, main
from zalcman.geometry import SpaceSpec
from zalcman.mappings import LiftedMapSpec

from support import command_flags


def small(campaign, **kw):
    defaults = dict(campaign=campaign, seed=3, samples=50)
    defaults.update(kw)
    return CampaignConfig(**defaults)


@pytest.mark.parametrize(
    "cfg",
    [
        small("caratheodory"),
        small("zalcman1d"),
        small("ball", samples=20, dim=2, norm="l2"),
        small("domain", samples=20, dim=3, norm="sup"),
        small("gradients", samples=10, dim=2, norm="lp:3"),
        small("reduction", samples=10, dim=2, norm="l1"),
        small("sharpness", dim=2, norm="l2"),
        small("search", budget=300),
    ],
    ids=lambda c: c.campaign + "-" + c.norm,
)
def test_campaigns_pass_cleanly(cfg):
    rep = run_campaign(cfg)
    assert rep.passed
    assert rep.violations == ()
    assert rep.min_margin >= -campaigns.TOLERANCE
    assert rep.max_value <= rep.bound + campaigns.TOLERANCE
    assert len(rep.values) == len(rep.margins) == rep.samples
    assert not (rep.values.flags.writeable or rep.margins.flags.writeable)
    if cfg.campaign != "sharpness":  # its margins are normalized defects
        assert rep.margins.tolist() == (rep.bound - rep.values).tolist()


def test_sample_count_contract():
    rep = run_campaign(CampaignConfig("zalcman1d", seed=0, samples=1))
    assert rep.samples == 1
    assert len(rep.values) == len(rep.margins) == 1


def test_reports_are_pure_functions_of_the_config():
    cfg = small("ball", samples=15)
    a, b = run_campaign(cfg), run_campaign(cfg)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("runtime_ms"), jb.pop("runtime_ms")
    assert ja == jb
    assert a.values.tolist() == b.values.tolist()
    assert a.margins.tolist() == b.margins.tolist()


def test_subseeds_are_stable_and_distinct():
    assert subseed(4, 9).entropy == (4, 9)
    assert subseed(4, 9).entropy != subseed(9, 4).entropy


# Each case keeps its id when another is added or removed.
@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(CampaignConfig("nosuch"), id="cfg0"),
        pytest.param(CampaignConfig("zalcman1d", samples=0), id="cfg1"),
        pytest.param(CampaignConfig("zalcman1d", seed=-1), id="cfg2"),
        pytest.param(CampaignConfig("zalcman1d", order=(5, 3)), id="cfg4"),
        pytest.param(CampaignConfig("ball", dim=1), id="cfg5"),
        pytest.param(CampaignConfig("domain", dim=1), id="cfg6"),
        pytest.param(CampaignConfig("ball", norm="foo"), id="cfg7"),
        pytest.param(CampaignConfig("ball", norm="lp:abc"), id="cfg8"),
        pytest.param(CampaignConfig("ball", norm="lp:1"), id="cfg9"),
        pytest.param(CampaignConfig("search", budget=-2), id="cfg10"),
        pytest.param(CampaignConfig("ball", norm="lp:inf"), id="cfg14"),
        pytest.param(CampaignConfig("ball", norm="lp:nan"), id="cfg15"),
    ],
)
def test_inconsistent_configs_raise_usage_errors(cfg):
    with pytest.raises(UsageError):
        run_campaign(cfg)


def test_norm_tokens_cover_all_families():
    for token, p in (("l2", 2.0), ("sup", math.inf), ("l1", 1.0), ("lp:3.5", 3.5)):
        assert space_of(CampaignConfig("ball", dim=4, norm=token)) == SpaceSpec(4, p)


def test_the_gate_tolerance_is_not_a_config_field():
    with pytest.raises(TypeError):
        CampaignConfig("zalcman1d", tolerance=1e300)


def test_tolerance_tightening_triggers_honest_violations(monkeypatch):
    # At the sharp edge the margin sits a few ulps below zero, so an
    # absurdly small tolerance must flag those samples and nothing else.
    monkeypatch.setattr(campaigns, "TOLERANCE", 1e-16)
    rep = run_campaign(CampaignConfig("zalcman1d", seed=7, samples=200))
    assert not rep.passed
    assert rep.min_margin < -campaigns.TOLERANCE
    for witness in rep.violations:
        mu = HerglotzMeasure.from_json(witness["measure"])
        value = abs(zalcman_J(coeffs_from_p(mu, order=4), ZalcmanOrder(2, 3)))
        assert value == witness["value"]


def test_report_invariant_link_between_margin_and_violations(monkeypatch):
    for tolerance, cfg in (
        (1e-16, CampaignConfig("zalcman1d", seed=7, samples=120)),
        (campaigns.TOLERANCE, CampaignConfig("zalcman1d", seed=7, samples=120)),
        (campaigns.TOLERANCE, small("caratheodory")),
    ):
        monkeypatch.setattr(campaigns, "TOLERANCE", tolerance)
        rep = run_campaign(cfg)
        assert (not rep.violations) == (rep.min_margin >= -tolerance)


def test_search_campaign_reports_its_extremizer():
    rep = run_campaign(CampaignConfig("search", seed=2, budget=400, order=(3, 4)))
    assert rep.bound == 6.0
    assert rep.extras is not None
    assert rep.extras["evaluations"] <= 400
    mu = HerglotzMeasure.from_json(rep.extras["best_measure"])
    value = abs(zalcman_J(coeffs_from_p(mu, order=6), ZalcmanOrder(3, 4)))
    assert value == rep.max_value


def test_json_rendering_is_deterministic_and_roundtrips():
    rep = run_campaign(small("zalcman1d", samples=30))
    text = render_report(rep, "json")
    assert text == render_report(rep, "json")
    obj = json.loads(text)
    assert obj["violations"] == []
    assert list(obj) == [
        "version",
        "campaign",
        "seed",
        "config",
        "samples",
        "max_value",
        "bound",
        "min_margin",
        "violations",
        "runtime_ms",
    ]
    assert obj["max_value"] == rep.max_value
    assert obj["version"] == REPORT_VERSION


@pytest.mark.parametrize(
    "cfg,fmt,digest",
    [
        (CampaignConfig("search", seed=0, order=(2, 3), budget=20000), "json",
         "d1221bf16015f34a013a1faa99e8fce48dc95d8bffd423e614f80bf97936b4e3"),
        (CampaignConfig("search", seed=1, order=(4, 4), budget=1500), "csv",
         "6c0be1590a8589091cf75cb79e577dfab36e2318facdf19f514c1620856c4a4f"),
        (CampaignConfig("ball", seed=5, samples=200, dim=3, norm="lp:3"), "csv",
         "7690abc98529db1d88741383801bd328ef98ce7a9002b9c41ee6079b496af4db"),
        # perfbench's lifted domain config.
        (CampaignConfig("domain", seed=5, samples=200, dim=3, norm="sup"), "csv",
         "b25ad87c977d5f710d8beea03c5641aeb590ad75d59804c6d4b1e93167b5491b"),
        # Many gradients rows on the l1 sphere of C^5 reject their first
        # direction and take a later one.
        (CampaignConfig("gradients", seed=5, samples=200, dim=5, norm="l1"), "csv",
         "1bf4dc9b91fbbcc97ab3e27a1b42ef3a3168cb2e1c1e22ae4479152e17243463"),
        (CampaignConfig("reduction", seed=5, samples=200, dim=2, norm="lp:1.5"), "csv",
         "a144343cbd27a47265f44f5dd0bfd72aae611330aafb8d024d9d7d01cba13dc2"),
        # reduction pairs each covector with support_rows: the l1 and sup
        # branches of its closed form.
        (CampaignConfig("reduction", seed=5, samples=200, dim=3, norm="l1"), "csv",
         "799b222cb5e238233faef294ab93853f1a91b3b23f3b9caf8ceeb0a6613a86c6"),
        (CampaignConfig("reduction", seed=5, samples=200, dim=3, norm="sup"), "csv",
         "7704d587e46ea2ec09e7c5a1a575bc20fbc767d7fc7dd64f2c0833de53d2c37b"),
    ],
    ids=["23-json", "44-csv", "ball-lp3-csv", "domain-sup-csv", "gradients-l1-csv", "reduction-lp1.5-csv",
         "reduction-l1-csv", "reduction-sup-csv"],
)
def test_search_report_bytes_are_pinned(cfg, fmt, digest):
    # Report bytes are a contract: a change that moves them takes a new
    # REPORT_VERSION and new digests.  runtime_ms is wall-clock, so it is cut.
    rep = run_campaign(cfg)
    text = re.sub(r'\n *"runtime_ms": \d+,', "", render_report(rep, fmt))
    assert "runtime_ms" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_violation_witness_survives_the_json_roundtrip(monkeypatch):
    monkeypatch.setattr(campaigns, "TOLERANCE", 1e-16)
    rep = run_campaign(CampaignConfig("zalcman1d", seed=7, samples=200))
    obj = json.loads(render_report(rep, "json"))
    first = obj["violations"][0]
    mu = HerglotzMeasure.from_json(first["measure"])
    assert mu == HerglotzMeasure.from_json(rep.violations[0]["measure"])
    # The report alone replays the witness: its order comes from config.
    order = ZalcmanOrder(*obj["config"]["order"])
    assert abs(zalcman_J(coeffs_from_p(mu, order=order.top_coefficient), order)) == first["value"]


def test_csv_rendering_has_sample_rows_and_aggregate_footer():
    rep = run_campaign(small("zalcman1d", samples=25))
    lines = render_report(rep, "csv").strip().split("\n")
    assert lines[0] == "index,value,margin,violation"
    assert len(lines) == 1 + 25 + 1
    assert lines[-1].startswith("aggregate,")
    assert lines[-1].endswith(",0")
    assert render_report(rep, "csv") == render_report(rep, "csv")


def test_csv_cells_are_plain_numbers_for_identity_campaigns():
    rep = run_campaign(small("gradients", seed=5, samples=20, dim=2, norm="lp:3"))
    for line in render_report(rep, "csv").strip().split("\n")[1:]:
        _, value, margin, _ = line.split(",")
        assert math.isfinite(float(value)) and math.isfinite(float(margin))


def test_render_rejects_unknown_formats():
    rep = run_campaign(small("zalcman1d", samples=5))
    with pytest.raises(UsageError):
        render_report(rep, "yaml")


def test_emit_report_writes_files_and_stdout(tmp_path, capsys):
    rep = run_campaign(small("zalcman1d", samples=5))
    target = tmp_path / "report.json"
    emit_report(rep, "json", str(target))
    assert json.loads(target.read_text())["samples"] == 5
    emit_report(rep, "json", None)
    assert json.loads(capsys.readouterr().out)["samples"] == 5


def test_lifted_spec_witness_roundtrip_through_report_schema():
    spec = LiftedMapSpec(((1.0, tuple([0.5 + 0.25j, -0.125])),))
    blob = json.dumps(spec.to_json())
    assert LiftedMapSpec.from_json(json.loads(blob)) == spec


def test_cli_verify_pass_and_report_on_stdout(capsys):
    code = main(["verify", "sharpness", "--dim", "3", "--norm", "sup"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["campaign"] == "sharpness"
    assert obj["violations"] == []


def test_cli_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(campaigns, "TOLERANCE", 1e-16)
    code = main(["verify", "zalcman1d", "--samples", "150", "--seed", "7"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["violations"]


def test_cli_usage_errors_exit_with_two(capsys):
    assert main(["verify", "ball", "--dim", "1"]) == 2
    assert main(["verify", "ball", "--norm", "lp:zero"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "warp-drive"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "zalcman1d", "--samples", "10", "--tolerance", "1e300"],
        ["verify", "zalcman1d", "--samples", "10", "--tolerance=nan"],
        ["search", "--samples", "5"],
        ["search", "--dim", "3"],
        ["search", "--norm", "sup"],
        ["verify", "caratheodory", "--m", "5", "--n", "3"],
        ["verify", "ball", "--m", "9", "--n", "1"],
        ["verify", "zalcman1d", "--dim", "1", "--norm", "lp:nan"],
        ["verify", "sharpness", "--samples", "999"],
    ],
    ids=["tolerance", "tolerance-nan", "search-samples", "search-dim", "search-norm",
         "caratheodory-order", "ball-order", "zalcman1d-gauge", "sharpness-samples"],
)
def test_cli_rejects_a_gate_flag_and_flags_search_ignores(argv, capsys):
    # No flag can loosen the gate, and no campaign takes a flag it would ignore;
    # the campaign's own usage line reports it.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = argv[:2] if argv[0] == "verify" else argv[:1]
    assert captured.err.startswith(f"usage: zalcman {' '.join(command)} ")


def test_cli_budgets_past_int64_are_usage_errors(capsys):
    for budget in ("9223372036854775808", "99999999999999999999"):
        assert main(["search", "--m", "2", "--n", "3", "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: budget") and captured.err.count("\n") == 1


def test_gradients_configs_that_cannot_sample_are_usage_errors(capsys):
    # dim^(-1/p) bounds the smallest coordinate modulus on the l1 (p = 1)
    # and lp (p < 2) spheres, so these configs are rejected before sampling.
    for norm, dim in (("l1", 20), ("lp:1.5", 90)):
        with pytest.raises(UsageError):
            run_campaign(CampaignConfig("gradients", dim=dim, norm=norm, samples=1))
    assert run_campaign(CampaignConfig("gradients", dim=10, norm="lp:1.5", samples=5)).passed
    # On l1 in C^17 a gap of GRAD_MIN_GAP is possible but almost never drawn.
    for dim in ("17", "20"):
        assert main(["verify", "gradients", "--norm", "l1", "--dim", dim, "--samples", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_gradients_on_l1_in_c14_samples_at_the_default_count(capsys):
    # Square-law directions land 0.05 off E on the l1 sphere of C^14 within
    # 1000 attempts for each of the default 1000 samples of seed 0.
    assert main(["verify", "gradients", "--norm", "l1", "--dim", "14"]) == 0
    assert capsys.readouterr().err.endswith("violations=0 PASS\n")


def test_sharpness_dimensions_whose_direction_nears_e_are_usage_errors(capsys):
    # The last coordinate of the dyadic ball direction, 2^-(dim-1)/rho, is
    # below EXC_EPS on l1 from C^27 and on lp:1.5 from C^28 (at C^1100 it
    # underflows to 0), so make_extremal_ball has no support covector there.
    for norm, dim in (("l1", "27"), ("l1", "28"), ("lp:1.5", "28"), ("lp:1.5", "1100")):
        assert main(["verify", "sharpness", "--norm", norm, "--dim", dim]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("; lower --dim\n")
    # Only u must be off E: the closed form at 0.75 u needs no gradient, so
    # lp:1.5 in C^27, where u is 1.1e-8 off E and 0.75 u is not, passes.
    for norm, dim in (("l1", "26"), ("lp:1.5", "26"), ("lp:1.5", "27"),
                      ("sup", "40"), ("l2", "40"), ("lp:3", "40")):
        assert main(["verify", "sharpness", "--norm", norm, "--dim", dim]) == 0, (norm, dim)
    capsys.readouterr()


def test_cli_seed_defaults_to_zero_whatever_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("ZALCMAN_SEED", "99")
    assert main(["verify", "zalcman1d", "--samples", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert main(["verify", "zalcman1d", "--samples", "5", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_cli_search_csv_to_file(tmp_path, capsys):
    target = tmp_path / "search.csv"
    code = main(
        ["search", "--m", "2", "--n", "3", "--budget", "400",
         "--format", "csv", "--out", str(target)]
    )
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "index,value,margin,violation"
    assert lines[-1].startswith("aggregate,")
    capsys.readouterr()


def test_cli_unwritable_output_path_is_a_usage_error(tmp_path):
    assert main(
        ["verify", "zalcman1d", "--samples", "2",
         "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")]
    ) == 2


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _poison_call(monkeypatch, module, name, poison, call):
    """Make call number ``call`` of ``module.<name>`` return poison(result)."""
    real = getattr(module, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return poison(out) if next(calls) == call else out

    monkeypatch.setattr(module, name, patched)


def _nan_value_of_row_2(out):
    values, zalcman = out
    zalcman[2] = math.nan
    return values, zalcman


def _nan_entry_1_of_row_2(rows):
    rows[2, 1] = math.nan
    return rows


def _nan_a3(out):
    (a2, _, a4), zalc = out
    return (a2, math.nan, a4), zalc


# (config, module and batch kernel patched, poison, poisoned call, row it
# lands in).  The batched campaigns evaluate all five rows in one call, so
# the poison lands in row 2 of that call's output; the witness replay calls
# the kernel again, unpoisoned.  The NaN sits after a finite value where it
# can, since max() skips such a NaN: entry 1 of the finite-difference
# gradient, and k = 3 of the pairing route (the one pairing_rows call of a
# reduction block).
NAN_CASES = [
    (small("ball", samples=5, dim=2, norm="l2"), campaigns, "zalcman_rows",
     _nan_value_of_row_2, 0, 2),
    (small("domain", samples=5, dim=3, norm="sup"), campaigns, "zalcman_rows",
     _nan_value_of_row_2, 0, 2),
    (small("gradients", samples=5, dim=2, norm="lp:3"), campaigns, "fd_gradient_rows",
     _nan_entry_1_of_row_2, 0, 2),
    (small("reduction", samples=5, dim=2, norm="l1"), mappings, "pairing_rows",
     _nan_entry_1_of_row_2, 0, 2),
    (small("sharpness", dim=2, norm="l1"), campaigns, "closed_form_values", _nan_a3, 1, 1),
    (small("search", budget=300), campaigns, "search_extremal",
     lambda result: result._replace(value=math.nan), 0, 0),
]


def _argv(cfg):
    """The command line of a config whose order is the default one."""
    head = ["search"] if cfg.campaign == "search" else ["verify", cfg.campaign]
    flags = [[f"--{name}", str(getattr(cfg, name))] for name in campaigns.CAMPAIGNS[cfg.campaign][1]
             if name != "order"]
    return head + ["--seed", str(cfg.seed)] + sum(flags, [])


@pytest.mark.parametrize("cfg, module, name, poison, call, row", NAN_CASES,
                         ids=[case[0].campaign for case in NAN_CASES])
def test_a_nan_row_fails_the_report(cfg, module, name, poison, call, row, monkeypatch,
                                    tmp_path, capsys):
    _poison_call(monkeypatch, module, name, poison, call)
    rep = run_campaign(cfg)
    assert not rep.passed
    assert [w["index"] for w in rep.violations] == [row]

    _poison_call(monkeypatch, module, name, poison, call)
    target = tmp_path / "report.json"
    assert main(_argv(cfg) + ["--out", str(target)]) == 1
    obj = json.loads(target.read_text(), parse_constant=_reject_constant)
    assert [w["index"] for w in obj["violations"]] == [row]
    assert obj["min_margin"] is None
    capsys.readouterr()


def test_finite_json_reports_keep_their_bytes_and_others_write_null():
    rep = run_campaign(small("ball", samples=4))
    assert render_report(rep, "json") == json.dumps(rep.to_json(), indent=2) + "\n"
    doctored = dataclasses.replace(rep, max_value=math.inf, min_margin=-math.inf)
    obj = json.loads(render_report(doctored, "json"), parse_constant=_reject_constant)
    assert obj["max_value"] is None and obj["min_margin"] is None


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


# Two values of each flag but --out.
FLAG_VALUES = {
    "--seed": ("0", "1"),
    "--format": ("json", "csv"),
    "--samples": ("4", "5"),
    "--dim": ("2", "3"),
    "--norm": ("l2", "sup"),
    "--m": ("2", "3"),
    "--n": ("3", "4"),
    "--budget": ("200", "300"),
}


def _parsed_through_the_root(argv):
    """argv parsed from the root parser down through every level of
    commands, with the leaf reporting the flags it does not take."""
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _parse_outcome(parse, argv, capsys):
    """(namespace but its command, exit code, stdout, stderr) of a parse."""
    try:
        found, code = vars(parse(argv)), None
    except SystemExit as exc:
        found, code = None, exc.code
    if found is not None:
        found.pop("command", None)
    return found, code, *capsys.readouterr()


def test_each_command_parser_reads_argv_as_the_root_parser_does(capsys):
    leaves = cli._parsers()[1]
    assert sorted(words[-1] for words in leaves) == sorted(campaigns.CAMPAIGNS)
    commands = command_flags(build_parser())
    for words in leaves:
        flags = sorted(commands[" ".join(words)] - {"--out"})
        every = [item for flag in flags for item in (flag, FLAG_VALUES[flag][1])]
        if words == ("verify", "sharpness"):
            every[every.index("--samples") + 1] = "2"
        tails = [
            every + ["--out", "report.json"],
            ["--sam", "7"],
            ["-h"],
            ["--seed", "1", "--bogus", "2"],
            ["--seed", "x"],
            ["--seed"],
        ]
        for tail in tails:
            argv = [*words, *tail]
            expected = _parse_outcome(_parsed_through_the_root, argv, capsys)
            assert _parse_outcome(cli._parse, argv, capsys) == expected, argv
    # A command line that names no command takes the root parser's path.
    for argv in ([], ["-h"], ["verify"], ["verify", "--bogus", "ball"], ["--bogus", "search"]):
        expected = _parse_outcome(_parsed_through_the_root, argv, capsys)
        assert expected[1] is not None
        assert _parse_outcome(cli._parse, argv, capsys) == expected, argv


def test_every_flag_a_campaign_takes_changes_its_report(tmp_path, capsys):
    # No flag is inert: a second value of any flag a command accepts moves
    # its report bytes (runtime_ms, which is wall-clock, cut).
    def report(command, flags):
        target = tmp_path / "report"
        assert main([*command.split(), *itertools.chain(*flags.items()), "--out", str(target)]) == 0
        return re.sub(r'\n *"runtime_ms": \d+,', "", target.read_text())

    commands = command_flags(build_parser())
    assert len(commands) == len(campaigns.CAMPAIGNS)
    for command, accepted in commands.items():
        base = {flag: FLAG_VALUES[flag][0] for flag in sorted(accepted - {"--out"})}
        varied = list(base)
        if command == "verify sharpness":
            # Its --samples takes only its number of checks, until ROADMAP
            # item 1 drops the flag.
            base["--samples"] = "2"
            varied.remove("--samples")
            with pytest.raises(SystemExit) as exc:
                main(["verify", "sharpness", "--samples", "3"])
            assert exc.value.code == 2
        reference = report(command, base)
        for flag in varied:
            assert report(command, {**base, flag: FLAG_VALUES[flag][1]}) != reference, (command, flag)
    capsys.readouterr()


@pytest.mark.parametrize("norm", ["l2", "lp:3", "sup", "l1"])
def test_ball_and_domain_write_the_same_reports(norm, tmp_path, capsys):
    # One runner serves both: the reports differ only in their campaign
    # name (and in the wall-clock runtime_ms, zeroed here).
    def report(campaign, fmt):
        target = tmp_path / f"{campaign}.{fmt}"
        argv = ["verify", campaign, "--seed", "4", "--samples", "60", "--dim", "3",
                "--norm", norm, "--format", fmt, "--out", str(target)]
        assert main(argv) == 0
        return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', target.read_text())

    ball, domain = report("ball", "json"), report("domain", "json")
    assert '"campaign": "ball"' in ball
    assert ball.replace('"campaign": "ball"', '"campaign": "domain"') == domain
    assert report("ball", "csv") == report("domain", "csv")
    capsys.readouterr()


@pytest.mark.parametrize("campaign", ["ball", "domain", "gradients", "reduction", "sharpness"])
def test_large_exponent_gauges_run_clean(campaign, capsys):
    # At p = 250 the power sum of a small point underflows and rho^{1-p}
    # overflows; the gauge and the support functional rescale instead.
    argv = ["verify", campaign, "--norm", "lp:250", "--dim", "2"]
    if campaign != "sharpness":  # its two checks are fixed
        argv += ["--samples", "1000"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert obj["violations"] == [] and math.isfinite(obj["max_value"])


def _csv_writer_reference(report):
    """The report CSV as ``csv.writer`` wrote it, one row at a time: the
    reference the direct writer must reproduce byte for byte."""
    flagged = {v["index"] for v in report.violations if "index" in v}
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "value", "margin", "violation"])
    for i, (value, margin) in enumerate(zip(report.values.tolist(), report.margins.tolist())):
        w.writerow([i, repr(value), repr(margin), int(i in flagged)])
    w.writerow(["aggregate", repr(report.max_value), repr(report.min_margin), len(report.violations)])
    return buf.getvalue()


def _poison_nan_and_inf(values):
    values[2], values[4] = math.nan, math.inf
    return values


def test_csv_writer_matches_the_csv_module_reference(monkeypatch, tmp_path):
    def check(rep):
        text = render_report(rep, "csv")
        assert text == _csv_writer_reference(rep)
        target = tmp_path / "report.csv"
        emit_report(rep, "csv", str(target))
        assert target.read_text(encoding="utf-8") == text
        return text

    # Flagged rows in both blocks of a two-block run.
    monkeypatch.setattr(campaigns, "TOLERANCE", 1e-16)
    rep = run_campaign(CampaignConfig("caratheodory", samples=SAMPLE_BLOCK + 300))
    flagged = [w["index"] for w in rep.violations]
    assert min(flagged) < SAMPLE_BLOCK <= max(flagged)
    check(rep)

    # Non-finite cells are Python reprs, and such rows are violations.
    _poison_call(monkeypatch, campaigns, "zalcman_values", _poison_nan_and_inf, 0)
    rep = run_campaign(small("zalcman1d", samples=20))
    assert [w["index"] for w in rep.violations] == [2, 4]
    lines = check(rep).split("\n")
    assert lines[1 + 2] == "2,nan,nan,1" and lines[1 + 4] == "4,inf,-inf,1"
    monkeypatch.undo()

    # No gradients sample exceeds its residual tolerances, so the finite-
    # difference tolerance is tightened until some do.
    monkeypatch.setattr(campaigns, "GRAD_FD_TOL", 4e-10)
    monkeypatch.setattr(campaigns, "TOLERANCE", 1e-16)
    rep = run_campaign(small("gradients", samples=60, dim=3, norm="l1"))
    assert 0 < len(rep.violations) < rep.samples
    check(rep)
    monkeypatch.undo()

    check(run_campaign(small("sharpness", dim=3, norm="sup")))
    check(run_campaign(small("search", budget=300, order=(3, 4))))


def test_csv_emission_memory_stays_flat_in_the_sample_count(tmp_path):
    # The CSV goes out block by block, so the peak of writing it does not
    # grow with --samples (the values and margins arrays exist beforehand).
    def peak(samples):
        rep = run_campaign(CampaignConfig("caratheodory", samples=samples))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            emit_report(rep, "csv", str(tmp_path / "report.csv"))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(100_000) <= 2.0 * peak(20_000)
