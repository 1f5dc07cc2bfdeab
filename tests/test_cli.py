"""CLI contract: suites, exit codes, reports, determinism, config files."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from strichartz_lab import cli
from strichartz_lab import constants as C
from strichartz_lab import search as S
from strichartz_lab import shells as SH


def run(argv):
    return cli.main(argv)


def test_constants_suite_and_report(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run(["constants", "--d", "3", "--k", "2", "--family", "wave",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    payloads = [json.loads(line) for line in lines]
    schema = {"suite", "case_id", "lhs", "rhs", "constant", "ratio", "deficit",
              "stderr", "seed", "pass"}
    assert all(schema <= set(p) for p in payloads)
    assert payloads[0]["lhs"] == pytest.approx((2 * math.pi) ** -7, rel=1e-12)


def test_constants_csv(tmp_path):
    csv_path = tmp_path / "table.csv"
    code = run(["constants", "--out-csv", str(csv_path)])
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "family,d,k,exponent,constant,log10_constant"


def test_constants_run_builds_the_catalog_once(monkeypatch, tmp_path):
    calls = []
    real = C.constants_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(C, "constants_rows", counted)
    assert run(["constants"]) == 0
    assert len(calls) == 1
    # The CSV export writes the rows the suite already holds.
    csv_path = tmp_path / "table.csv"
    assert run(["constants", "--out-csv", str(csv_path)]) == 0
    assert len(calls) == 2
    assert len(csv_path.read_text().splitlines()) == len(real(*calls[-1])) + 1


def test_search_trace_csv_has_a_row_per_iterate(tmp_path):
    path = tmp_path / "trace.csv"
    run(["search", "--budget", "2", "--restarts", "1", "--trace-csv", str(path)])
    _, trace, _ = S.search(4, 2, C.SCHRODINGER, S.SearchConfig(budget=2, seed=2024))
    lines = path.read_text().splitlines()
    assert lines[0] == "iterate,quotient," + ",".join(f"theta{i}" for i in range(6))
    assert len(lines) == len(trace.iterates) + 1 >= 2
    for i, (line, (theta, q)) in enumerate(zip(lines[1:], trace.iterates)):
        assert line == "%d,%.15g," % (i, q) + ",".join("%.15g" % t for t in theta)


def test_shells_suite_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["shells", "--d", "3", "--k", "2", "--seed", "7", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_meta_out_is_separate(tmp_path):
    out, meta = tmp_path / "r.jsonl", tmp_path / "meta.json"
    assert run(["constants", "--out", str(out), "--meta-out", str(meta)]) == 0
    assert "timestamp" not in out.read_text()
    assert "timestamp" in meta.read_text()


def test_meta_out_records_the_parsed_argv(tmp_path, monkeypatch):
    meta = tmp_path / "meta.json"
    monkeypatch.setattr(cli.sys, "argv", ["strichartz-lab", "--foo"])
    argv = ["constants", "--d", "3", "--meta-out", str(meta)]
    assert run(argv) == 0
    assert json.loads(meta.read_text())["argv"] == argv


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_constants_rows_that_underflow_fail_and_report_valid_json(tmp_path):
    # At d = 99 both sides of the k >= 3 rows underflow to 0, where the
    # relative check 0 <= 1e-12 * 0 would hold; ratio and deficit are inf.
    out = tmp_path / "r.jsonl"
    assert run(["constants", "--d", "99", "--out", str(out)]) == 1
    rows = {row["case_id"]: row for row in
            (json.loads(line, parse_constant=_reject_constant)
             for line in out.read_text().splitlines())}
    for fam in ("wave", "schrodinger"):
        assert rows[f"{fam}_d99_k2"]["pass"] is True
        for k in (3, 4):
            row = rows[f"{fam}_d99_k{k}"]
            assert row["pass"] is False
            assert row["lhs"] == row["rhs"] == 0.0 and row["ratio"] is None


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2


def test_suite_failure_exits_1(monkeypatch):
    # Perturb the closed form so the Monte Carlo comparison must fail.
    real = SH.itilde_closed

    def skewed(d, k, p):
        res = real(d, k, p)
        return SH.ShellResult(res.value * 1.5, res.method)

    monkeypatch.setattr(cli.SH, "itilde_closed", skewed)
    code = run(["shells", "--d", "3", "--k", "2", "--seed", "7"])
    assert code == 1


_COROLLARY_D5 = ["onesided_extremal_d5", "quartic_norm_d5", "energy_quotient_canonical",
                 "energy_quotient_broken", "cross_term_gap_d2"]


def _corollary_d5(path):
    """Exit code and {case_id: pass} of the d = 5 corollary suite."""
    code = run(["corollary", "--d", "5", "--out", str(path)])
    cases = [json.loads(line) for line in path.read_text().splitlines()]
    return code, {c["case_id"]: c["pass"] for c in cases}


def test_corollary_suite_checks_the_d5_cases(monkeypatch, tmp_path):
    code, passed = _corollary_d5(tmp_path / "ok.jsonl")
    assert code == 0
    assert passed == dict.fromkeys(_COROLLARY_D5, True)
    # A Cauchy-Schwarz ratio of 1 is no strict gap: that case, and it alone, fails.
    gap = cli.FN.cross_term_gap("paper")
    monkeypatch.setattr(cli.FN, "cross_term_gap", lambda mode: {**gap, "ratio": 1.0})
    code, passed = _corollary_d5(tmp_path / "flat.jsonl")
    assert code == 1
    assert [case for case, ok in passed.items() if not ok] == ["cross_term_gap_d2"]


def test_constants_wave_rows_fail_on_a_wrong_catalog(monkeypatch):
    # The wave rows check W(d,k) against (2pi)^{1-d(2k-1)} I_k from the
    # shell module, so a perturbed catalog formula must fail them.
    real = C.log_wave_sharp_constant
    monkeypatch.setattr(C, "log_wave_sharp_constant", lambda d, k: real(d, k) + 1e-9)
    assert run(["constants", "--family", "wave"]) == 1


def test_constants_schrodinger_rows_fail_on_a_wrong_catalog(monkeypatch):
    # The Schrodinger rows check S(d,k) against (2pi)^{1-d(2k-1)} I_k from
    # the paraboloid shell, so a perturbed k-linear formula must fail them.
    real = C.log_schrodinger_sharp_constant_klinear
    monkeypatch.setattr(C, "log_schrodinger_sharp_constant_klinear",
                        lambda d, k: real(d, k) + 1e-9)
    assert run(["constants", "--family", "schrodinger", "--k", "3"]) == 1


def test_point_flag_parsing():
    code = run(["shells", "--d", "3", "--k", "2", "--point", "2.0,0.5,0.0,0.0",
                "--seed", "3"])
    assert code == 0


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo config\nsamples = 100000\nseed = 13\nd = 3\nk = 2\n")
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert run(["shells", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["shells", "--d", "3", "--k", "2", "--samples", "100000",
                "--seed", "13", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(SystemExit) as exc:
        run(["shells", "--config", str(bad)])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["family = heat\n", "samples = lots\n", None])
def test_config_values_are_checked_like_flags(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"  # None: the file does not exist
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["constants", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "cases passed" not in capsys.readouterr().out


def test_explicit_flag_overrides_config_value_equal_to_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 13\n")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["shells", "--config", str(cfg), "--seed", "2024", "--out", str(a)]) == 0
    assert run(["shells", "--seed", "2024", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["search", "--seed", "-1", "--budget", "2", "--restarts", "1"],
    ["bilinear", "--d", "3", "--seed", "-1", "--random-cases", "1", "--samples", "1000"],
])
def test_negative_seed_runs(argv):
    assert run(argv) in (0, 1)


def test_bilinear_extremal_holds_the_rhs_to_its_closed_form(monkeypatch):
    # d = 3 (alpha = 0): the Monte Carlo RHS equals the closed form to
    # rounding, so a closed form off by 1% fails the extremal case.
    argv = ["bilinear", "--d", "3", "--random-cases", "0", "--samples", "1000"]
    assert run(argv) == 0
    exact = cli.FN.radial_pair_rhs
    monkeypatch.setattr(cli.FN, "radial_pair_rhs", lambda *ps: 1.01 * exact(*ps))
    assert run(argv) == 1


def test_bilinear_random_pair_holds_its_lhs_to_the_closed_form_rhs(monkeypatch, tmp_path):
    out = tmp_path / "bilinear.jsonl"
    argv = ["bilinear", "--d", "3", "--random-cases", "1", "--samples", "1000", "--out", str(out)]

    def random_passes():
        run(argv)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        return [row["pass"] for row in rows if row["case_id"].startswith("random")]

    assert random_passes() == [True]
    exact = cli.FN.radial_pair_rhs
    monkeypatch.setattr(cli.FN, "radial_pair_rhs", lambda *ps: 0.5 * exact(*ps))
    assert random_passes() == [False]


def test_schrodinger_identity_suite():
    assert run(["schrodinger-identity", "--grid", "2048"]) == 0


def test_audit_suite():
    assert run(["audit", "--seed", "5"]) == 0


def test_shells_too_few_samples_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["shells", "--samples", "100"])
    assert exc.value.code == 2


@pytest.mark.parametrize("point", ["1,0,0", "1,x,0,0", "0.5,1,0,0"])
def test_shells_bad_point_exits_2(point):
    with pytest.raises(SystemExit) as exc:
        run(["shells", "--d", "3", "--point", point])
    assert exc.value.code == 2


_K2 = "the wave estimates need an integer k >= 2, got k = "
_D2 = "the wave estimates need an integer d >= 2, got d = "
_ONEFN = "the one-function case needs the wave family and d in [2, 3, 5], got 'wave' d = "
_EPS = "shells: epsilon must be finite and > 0, got "
_DIVERGES = "bilinear: the wave (d, k) = (2, 2) right-hand side diverges"

# (argv, rule, message): the rule names the row (argv<i>-<rule>), the message
# is what main prints, the failing library check's message after the suite name.
_USAGE_ERRORS = [
    (["bilinear", "--k", "1"], "bilinear needs --k >= 2", "bilinear: " + _K2 + "1"),
    (["bilinear", "--d", "1"], "bilinear needs --d >= 2", "bilinear: " + _D2 + "1"),
    (["bilinear", "--samples", "0", "--random-cases", "0"], "bilinear needs --samples >= 2",
     "bilinear: --samples must be >= 2 for a Monte Carlo error bar, got 0"),
    (["bilinear", "--random-cases", "-1"], "--random-cases must be >= 0",
     "--random-cases must be >= 0"),
    (["corollary", "--d", "4"], "corollary needs --d in [2, 3, 5]", "corollary: " + _ONEFN + "4"),
    (["search", "--budget", "0"], "search needs --budget >= 1",
     "search: need budget >= 1, got 0"),
    (["search", "--restarts", "0"], "search needs --restarts >= 1",
     "search: need restarts >= 1, got 0"),
    (["search", "--d", "3"], "search supports (d, k, family)",
     "search: unsupported search case (3, 2, 'schrodinger')"),
    (["all", "--d", "4"], "corollary needs --d in [2, 3, 5]", "corollary: " + _ONEFN + "4"),
    (["schrodinger-identity", "--grid", "1000"], "grid size must be a power of two >= 256",
     "grid size must be a power of two >= 256"),
    (["all", "--grid", "128"], "grid size must be a power of two >= 256",
     "grid size must be a power of two >= 256"),
    (["shells", "--epsilon", "0"], "shells needs --epsilon > 0", _EPS + "0.0"),
    (["shells", "--epsilon=-1e-3"], "shells needs --epsilon > 0", _EPS + "-0.001"),
    (["shells", "--d", "1"], "shells needs --d >= 2", "shells: " + _D2 + "1"),
    (["shells", "--k", "1"], "shells needs --k >= 2", "shells: " + _K2 + "1"),
    (["all", "--epsilon", "0"], "shells needs --epsilon > 0", _EPS + "0.0"),
    (["shells", "--d", "0"], "shells needs --d >= 2", "shells: " + _D2 + "0"),
    (["bilinear", "--d", "0"], "bilinear needs --d >= 2", "bilinear: " + _D2 + "0"),
    (["bilinear", "--k", "0"], "bilinear needs --k >= 2", "bilinear: " + _K2 + "0"),
    (["corollary", "--d", "0"], "corollary needs --d in [2, 3, 5]", "corollary: " + _ONEFN + "0"),
    (["search", "--d", "0"], "search supports (d, k, family)",
     "search: unsupported search case (0, 2, 'schrodinger')"),
    (["constants", "--d", "0"], "constants has no catalog row",
     "constants: no catalog row for d in [0]"),
    (["shells", "--point", "inf,0,0,0"], "--point needs finite values",
     "shells: a cone point needs a finite tau and xi, got tau = inf"),
    (["shells", "--epsilon", "inf"], "shells needs --epsilon > 0 and finite", _EPS + "inf"),
    (["bilinear", "--d", "2", "--k", "2"], "bilinear has no finite right-hand side", _DIVERGES),
    (["all", "--d", "2"], "bilinear has no finite right-hand side", _DIVERGES),
]


@pytest.mark.parametrize("argv, message", [(argv, message) for argv, _, message in _USAGE_ERRORS],
                         ids=[f"argv{i}-{rule}" for i, (_, rule, _) in enumerate(_USAGE_ERRORS)])
def test_usage_errors_exit_2_before_any_suite_runs(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "cases passed" not in captured.out


# The messages of the CLI's own copies of rules the library owns.
_RETIRED = ["shells needs --d >=", "shells needs --k >= 2", "shells needs --epsilon > 0",
            "shells needs --samples >=", "--point needs tau and", "--point needs finite values",
            "--point must lie inside the forward cone", "bilinear needs --d >=",
            "bilinear needs --k >= 2", "bilinear has no finite right-hand side",
            "corollary needs --d in", "search supports (d, k, family)",
            "search needs --budget >= 1", "search needs --restarts >= 1"]
_LIBRARY_RULES = {"d", "k", "case", "epsilon", "budget", "restarts"}


def _flag_rule_comparisons(tree):
    """Lines outside the suites that compare d, k, the case, epsilon, budget or
    restarts with a number or a library constant, or the sample count with
    one other than the bilinear error-bar floor 2: a library rule written out."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}

    def fixed(n):
        # numbers, upper-case names and attributes of imported modules only
        return all(not isinstance(m, (ast.Name, ast.Attribute, ast.Call, ast.Constant))
                   or (isinstance(m, ast.Constant) and isinstance(m.value, (int, float)))
                   or (isinstance(m, ast.Name) and (m.id.isupper() or m.id in modules))
                   or (isinstance(m, ast.Attribute) and isinstance(m.value, ast.Name)
                       and m.value.id in modules)
                   for m in ast.walk(n))

    suites = {id(m) for f in tree.body if isinstance(f, ast.FunctionDef)
              and f.name.startswith("suite_") for m in ast.walk(f)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in suites:
            continue
        operands = [node.left, *node.comparators]
        for flag in operands:
            name = getattr(flag, "id", getattr(flag, "attr", None))
            bounds = [n for n in operands if n is not flag and fixed(n)]
            if name == "samples":
                bounds = [n for n in bounds if getattr(n, "value", None) != 2]
            if bounds and (name in _LIBRARY_RULES or name == "samples"):
                yield node.lineno


def test_cli_flag_checks_call_the_library_checks():
    # The CLI keeps only its own rules (the bilinear error-bar floor, the
    # random case count, an empty constants selection and the --point text).
    src = Path(cli.__file__).parent
    assert not list(_flag_rule_comparisons(ast.parse((src / "cli.py").read_text())))
    assert not [(p.name, m) for p in src.glob("*.py") for m in _RETIRED if m in p.read_text()]
