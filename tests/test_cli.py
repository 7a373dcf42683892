"""CLI behavior: exit codes, report formats, determinism, checkpoint resume."""

import hashlib
import json
import multiprocessing
import os
import time
import tracemalloc
from collections.abc import Iterator

import pytest
from hypothesis import example, given, strategies as st

from modmaj import cli, modular, qpoly, report
from modmaj.report import json_text
from modmaj.partitions import Partition


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_all_methods(capsys):
    code, out, _ = run(["table", "--shape", "2,2", "--method", "all"], capsys)
    assert code == 0
    assert "[1, 0, 1, 0]" in out
    assert "agreement: OK" in out


def test_table_single_row_shape(capsys):
    code, out, _ = run(["table", "--shape", "5"], capsys)
    assert code == 0
    assert "[1, 0, 0, 0, 0]" in out
    code, out, _ = run(["table", "--shape", "1"], capsys)
    assert code == 0
    assert "[1]" in out


def test_table_exponent_shorthand(capsys):
    code, out, _ = run(["table", "--shape", "2^2", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["shape"] == [2, 2]
    assert report["summary"]["predicted_zero_residues"] == [1, 3]


def test_table_budget_exhaustion_is_usage_error(capsys):
    code, _, err = run(
        ["table", "--shape", "5,4,3", "--method", "enumerate", "--budget", "10"], capsys
    )
    assert code == 2
    assert err.startswith("modmaj: ") and "budget" in err


def test_enumeration_refusal_names_qhook_only_when_it_accepts_the_shape(capsys):
    # (500, 500) is past the q-hook route's polynomial budget too, so the
    # formula is the one route named; (5, 4, 3) is past only the enumeration
    # budget of 10 subshapes.
    code, out, err = run(["table", "--shape", "500,500", "--method", "enumerate"], capsys)
    assert code == 2 and out == ""
    assert err.endswith("; use --method formula\n") and "qhook" not in err
    code, out, err = run(["table", "--shape", "5,4,3", "--method", "enumerate", "--budget", "10"], capsys)
    assert code == 2 and out == ""
    assert err.endswith("; use --method qhook or formula\n")


@pytest.mark.parametrize(
    "shape,nonzero",
    [("1000", {0: 1}), ("1^1000", {499500 % 1000: 1}), ("999,1", {r: 1 for r in range(1, 1000)})],
)
def test_table_enumerates_shapes_deeper_than_the_recursion_limit(shape, nonzero, capsys):
    code, out, _ = run(["table", "--shape", shape, "--method", "enumerate", "--format", "json"], capsys)
    assert code == 0
    counts = json.loads(out)["results"][0]["counts"]
    assert {r: c for r, c in enumerate(counts) if c} == nonzero


@pytest.mark.parametrize("method", ["qhook", "all"])
def test_table_builds_one_product_per_output(method, monkeypatch, capsys):
    # The report's polynomial and its q-hook counts each come from one
    # cyclotomic product: deg + 1 slots for the one, n slots for the other.
    slots = []
    original = qpoly._cyclotomic_fold

    def counted(*args, **kwargs):
        fold = original(*args, **kwargs)
        slots.append(len(fold[3]))
        return fold

    monkeypatch.setattr(qpoly, "_cyclotomic_fold", counted)
    code, out, _ = run(["table", "--shape", "6,4,2", "--method", method, "--format", "json"], capsys)
    assert code == 0
    lam = Partition((6, 4, 2))
    assert sorted(slots) == [12, qpoly._degree(lam, qpoly.min_major_index(lam)) + 1]
    counts = {r["method"]: r["counts"] for r in json.loads(out)["results"]}
    assert counts["qhook"] == list(qpoly.amod_by_qhook(lam))


def test_table_refuses_a_polynomial_past_its_budget_at_once(capsys):
    # (500, 500) packs its polynomial into some 2.5e8 bits: the cyclotomic
    # product would multiply integers of that size once per factor, so the
    # shape is refused before the product starts
    started = time.perf_counter()
    code, out, err = run(["table", "--shape", "500,500"], capsys)
    assert time.perf_counter() - started < 10
    assert code == 2 and out == ""
    assert err.startswith("modmaj: ") and "budget" in err and "--method formula" in err
    code, out, _ = run(["table", "--shape", "500,500", "--method", "formula", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert sum(report["results"][0]["counts"]) == report["summary"]["dimension"]


def test_table_all_names_only_the_routes_left(capsys):
    # (500, 500) is past both budgets: --method all names the formula alone.
    # (5, 4, 3) is past an enumeration budget of 10 subshapes only, so the
    # q-hook is still named.
    code, out, err = run(["table", "--shape", "500,500", "--method", "all"], capsys)
    assert code == 2 and out == ""
    assert "--method formula" in err and "qhook" not in err
    code, out, err = run(["table", "--shape", "5,4,3", "--method", "all", "--budget", "10"], capsys)
    assert code == 2 and out == ""
    assert err.endswith("; use --method qhook or formula\n")


def test_bad_shape_is_usage_error(capsys):
    code, _, err = run(["table", "--shape", "1,2"], capsys)
    assert code == 2
    assert "weakly decreasing" in err


@pytest.mark.parametrize(
    "args,piece,text",
    [
        (["table", "--shape", "3,a"], "a", "3,a"),
        (["table", "--shape", "2^"], "2^", "2^"),
        (["table", "--shape", "^3"], "^3", "^3"),
        (["table", "--shape", "2^1.5"], "2^1.5", "2^1.5"),
        (["char", "--shape", "2,2", "--mu", "2,x"], "x", "2,x"),
    ],
)
def test_shape_component_that_is_not_a_number_is_usage_error(args, piece, text, capsys):
    # the message quotes the bad component and the whole text, not int()'s own words
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("modmaj: ") and repr(piece) in err and repr(text) in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("text", ["3,,1", ","])
def test_empty_shape_component_is_usage_error(text, capsys):
    code, out, err = run(["table", "--shape", text], capsys)
    assert code == 2 and out == ""
    assert err == f"modmaj: empty component in partition text {text!r}\n"


def test_repeat_count_below_one_is_usage_error(capsys):
    code, _, err = run(["table", "--shape", "3,2^-1"], capsys)
    assert code == 2
    assert "repeat count" in err


def test_oversized_shape_is_usage_error(capsys):
    code, _, err = run(["table", "--shape", "1^10000000000"], capsys)
    assert code == 2
    assert "larger than" in err


def test_char_rectangular(capsys):
    code, out, _ = run(["char", "--shape", "2,2", "--ell", "2"], capsys)
    assert code == 0
    assert "= 2" in out and "sign +1" in out and "core: empty" in out


def test_char_whole_shape_ribbon(capsys):
    code, out, _ = run(["char", "--shape", "2,1", "--ell", "3"], capsys)
    assert code == 0
    assert "= -1" in out


def test_char_identity(capsys):
    code, out, _ = run(["char", "--shape", "4", "--ell", "1"], capsys)
    assert code == 0
    assert "= 1" in out


def test_char_cycle_type(capsys):
    code, out, _ = run(["char", "--shape", "2,2", "--mu", "2,1,1"], capsys)
    assert code == 0
    assert "= 0" in out


def test_char_bad_ell(capsys):
    code, _, err = run(["char", "--shape", "2,2", "--ell", "3"], capsys)
    assert code == 2
    assert err.startswith("modmaj: ") and "divide" in err


def test_char_size_mismatch(capsys):
    code, _, err = run(["char", "--shape", "2,2", "--mu", "3"], capsys)
    assert code == 2
    assert err.startswith("modmaj: ") and "does not have size 4" in err


@pytest.mark.parametrize("shape,mu", [("1000", "2^500"), ("498", "1^498")])
def test_char_too_many_cycles_is_usage_error(shape, mu, capsys):
    # The rim-hook recursion goes one level per cycle; past its limit the
    # command reports it instead of running out of interpreter stack.
    code, out, err = run(["char", "--shape", shape, "--mu", mu], capsys)
    assert code == 2 and out == ""
    assert err.startswith("modmaj: ") and "MAX_CYCLE_PARTS" in err


def test_char_too_many_subshapes_is_usage_error(capsys):
    # 20^20 has C(40, 20) subshapes, one memo entry each at 1^400: the
    # command refuses it before any recursion
    code, out, err = run(["char", "--shape", "20^20", "--mu", "1^400"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("modmaj: ") and "MAX_SUBSHAPES" in err


def test_verify_classification(capsys):
    code, out, _ = run(["verify", "--n-max", "8", "--suite", "classification"], capsys)
    assert code == 0
    assert "total mismatches: 0" in out


def test_verify_all_suites(capsys):
    code, out, _ = run(["verify", "--n-max", "6", "--suite", "all"], capsys)
    assert code == 0
    assert "ramanujan" in out and "fiber-laws" in out


def test_verify_census_json(capsys):
    code, out, _ = run(
        ["verify", "--n-max", "6", "--suite", "fdim-census", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    per_n = {e["n"]: e["small_dimension"] for e in report["results"]}
    assert per_n == {1: 0, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}


def test_classify_matches_case_list(capsys):
    code, out, _ = run(["classify", "--n-max", "4"], capsys)
    assert code == 0
    assert "(2,2): {1, 3}" in out
    assert "(3,1): {0}" in out
    assert "(2,1,1): {2}" in out
    assert "(4): {1, 2, 3}" in out
    assert "(1,1,1,1): {0, 1, 3}" in out
    code, out, _ = run(["classify", "--n-max", "1"], capsys)
    assert "no vanishing residues" in out


def test_csv_report_with_no_row_has_its_header(capsys):
    # n = 1 has no vanishing residue, so the report is the header alone:
    # not empty, as a failed write would leave it
    code, out, _ = run(["classify", "--n-max", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out == "n,shape,residues\r\n"
    code, out, _ = run(["classify", "--n-max", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,shape,residues", '2,"1,1",0', "2,2,1"]


def test_bounds(capsys):
    code, out, _ = run(["bounds", "--n-max", "8"], capsys)
    assert code == 0
    assert "all bounds hold" in out
    code, out, _ = run(["bounds", "--n-max", "6", "--suite", "fl"], capsys)
    assert code == 0


def test_json_reports_are_byte_identical(capsys):
    args = ["verify", "--n-max", "6", "--suite", "classification", "--format", "json"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


# SHA-256 of stdout, recorded before the verify checks moved into modmaj.modular.
GOLDEN_REPORTS = {
    ("verify", "json"): "734cbedd922ccdb629857ea447451a9d608b9fd62a32f08f5dca2dcce2f9b857",
    ("verify", "csv"): "e48b10688387e21721fb1ba4b64d3234b59c4435c4a1b590ba4bd605f542f109",
    ("verify", "text"): "52638b27dae77cf74fe196fc7e23584222cbd7bb0472251483ce72c62ff4e53f",
    ("bounds", "json"): "59614b38500dc716bad04b541eed5044e4467439fe2b6d69f7734d61d2927023",
    ("bounds", "csv"): "27dbf19b9065d5d6430f9963ac36250b0788c715f2b6e3c9db8f1c0375259d9d",
    ("bounds", "text"): "602e3985a7c62c35b3b191ea23c45a154bde9c46a92290fdb854f452fe47cabe",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_REPORTS))
def test_golden_reports(command, fmt, capsys):
    suite = ["--suite", "all"] if command == "verify" else []
    code, out, _ = run([command, *suite, "--n-max", "8", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_REPORTS[command, fmt]


# SHA-256 of stdout for the commands test_golden_reports leaves unpinned,
# recorded before the verify checks took the sweep's map as an argument.
GOLDEN_COMMANDS = {
    "table": ["table", "--shape", "4,2,1,1", "--method", "all"],
    "char-ell": ["char", "--shape", "4,2,1,1", "--ell", "2"],
    "char-mu": ["char", "--shape", "4,2,1,1", "--mu", "4,2,1,1"],
    "classify": ["classify", "--n-max", "8"],
}
GOLDEN_COMMAND_REPORTS = {
    ("table", "json"): "84f5808ad4769e2b92774b5670697b1657cf552c32ff84fd1996671024bc6b22",
    ("table", "csv"): "bd2ba9adc7585f34ee96395749314c314d1ce8647e1df7790ef60b0cf602c5c7",
    ("table", "text"): "a6721d748071bafe28dc442e380d687257f67529566313d67477450dfb2f4969",
    ("char-ell", "json"): "e98c6a9f06362667462b1755cf7dee47bd215b59a90aecc0430f66e94199ea83",
    ("char-ell", "csv"): "f83d35aeea7d2230883903700d88461f565146dff36e1ccdc06d05901a81b1e9",
    ("char-ell", "text"): "c299e2e9167aa968100fef01750c587908d70e08d9dea462a1c866ad8743cf1c",
    ("char-mu", "json"): "8938aa6c4eac07aa7a979114607f12ac696c87e6a0673a4982fdee8db0b7861e",
    ("char-mu", "csv"): "0ef1eac19b705026de2c8202bddf3b5726024cf7397803a0d3b688c23c5f3371",
    ("char-mu", "text"): "63bb364144f99059fcbc3bffdcdb4b3f0ad857a2dda9e12a5239f033054333ac",
    ("classify", "json"): "064ba61ee91afa7114e9f43bfe94ff2fad2cb228d2c93284e2b7f308651f065c",
    ("classify", "csv"): "85865f87b2aa64a72c991495aaa199cfab73d4af42785ba9736dc1460e7d06ea",
    ("classify", "text"): "f2900ea346bd872ab78d1f5c2da25e8f724b0a6605828949f870b599e8c99618",
}


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN_COMMAND_REPORTS))
def test_golden_command_reports(name, fmt, capsys):
    code, out, _ = run([*GOLDEN_COMMANDS[name], "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_COMMAND_REPORTS[name, fmt]


# SHA-256 of stdout of `bounds --n-max 10 --suite S --format F` for every
# suite S, recorded before the bound checks came to read one integer per
# bound and before reports were written by report.json_text.
GOLDEN_BOUND_SUITES = {
    ("fl", "json"): "e57fdbcd6e497fbc55640ac0c0e8c0be55f15473cc59ab246589bccec685c0ab",
    ("fl", "csv"): "6b92dc35bc4f79eeb622fa01182190da15f4da870e7e232a3f1ee95364b223d5",
    ("equidistribution", "json"): "9538dc2c3d08123fb01b3f09b084c9543fa438917e11d198bcc5c71f9301d421",
    ("equidistribution", "csv"): "741a59e7b7ab80874cd2ab84a263f2680769fd24da49af0b81a70e9cc9204e68",
    ("dist", "json"): "a2a4e936a18b0157b41e892e1199e76b49fde3464a974b780f68b5b7f361e453",
    ("dist", "csv"): "36f7c9118f8e96d5fbda709b68d720953153eaaf560012ee19d5d8c216c49b69",
    ("fl-log", "json"): "16845daf2adb8de117553e5584a109275c897b33bcf706f2d76efd8d90cda922",
    ("fl-log", "csv"): "b7b5e65194cce7f6354877592617a220bf9e79226edf378ffc9f0fd282527155",
    ("phi-d", "json"): "6e4ad23b92ef81351a2c8e4af7c12603b638a9f3ec650a5af65202e57b7cc024",
    ("phi-d", "csv"): "bef47152c45af4ae8404c9aeaf4ee923f77699e4bc9e2691eda01d6cf55fbba1",
    ("n-cubed", "json"): "3bfed87f415a086b2aa48beda68ec51abead316f85313689d1eaff96b10edc85",
    ("n-cubed", "csv"): "13134fda597cb1884e8637b3f4c55a3f6a70901e9ede6910fa05860390058610",
    ("binom", "json"): "60b8e9de7b830db2b0a01d77b6f96535b72cc162a42a59b7156998b002656473",
    ("binom", "csv"): "7d43902ec4ea8d992e8abb24fea01fda19584d5a837511448eb495cb5a2a9c59",
    ("all", "json"): "8c1341f8607058cbf80ef53ee6ff45ffd4da62c03b4ac5be031af417f8ba283f",
    ("all", "csv"): "26754b38fd7116d1c1354cf27f69df4e2bf9ea4458c701c96b4a975c320543e8",
}


def test_bound_suite_goldens_cover_every_suite():
    assert {suite for suite, _ in GOLDEN_BOUND_SUITES} == set(modular.BOUND_SUITES)
    assert set(GOLDEN_BOUND_SUITES_20) == set(modular.BOUND_SUITES)


@pytest.mark.parametrize("suite,fmt", sorted(GOLDEN_BOUND_SUITES))
def test_golden_bound_suite_reports(suite, fmt, capsys):
    code, out, _ = run(["bounds", "--suite", suite, "--n-max", "10", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_BOUND_SUITES[suite, fmt]


# SHA-256 of stdout of `bounds --n-max 20 --suite S --format csv` for every
# suite S, recorded before the bounds row came to compute each compared
# number once per shape.  Up to n = 10 no shape has f >= n^5, so only these
# pin the dist verdicts.
GOLDEN_BOUND_SUITES_20 = {
    "fl": "6fb1875f44e3017b8a6a972607c0aa7fa82e5d8b5d4aff0e1c99970c84f29290",
    "equidistribution": "b52c810c1fb903420a5a5f9bd68f596d5a0dd1c3a124c3464d924d053e48cfc8",
    "dist": "5b4121fa26b93d2e6fd5092e0d96b16eb14c44968cc99da60d2a2a288c112ee9",
    "fl-log": "10d89c45722eaa2497b88693f4829f21aee096c6b12d3cfecf1f9dcc2377bc1b",
    "phi-d": "f72f6b5fdcebd5d174c8179f3a8ad07d003e049cd437678f5d8be20d7f1b9f8e",
    "n-cubed": "8da54559fec1195fc756278e6e0029480292f95e6a0eef361a1191bf5a716b37",
    "binom": "a0ebe496512d7a8f0263538b2b97b0e87c7d2701fd6e7959e317c10c390d8dc0",
    "all": "4602fb368e98a3a8593bfbd3c83896921758d8b568e64c8f1c1c24dbec40a7fe",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_BOUND_SUITES_20))
def test_golden_bound_suite_reports_to_20(suite, capsys):
    code, out, _ = run(["bounds", "--suite", suite, "--n-max", "20", "--format", "csv"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_BOUND_SUITES_20[suite]


# SHA-256 of stdout of `bounds --n-max 6 --format F` with every
# equidistribution check failing, recorded before the bounds report was
# streamed: the summary, the per-n violation counts and exit 1 must still
# cover every row.
GOLDEN_BOUND_VIOLATIONS = {
    "json": "1dc8861516b1d07d0f5d871e8dee4cba31e83aa20f288e28162b6da020a35b35",
    "text": "7bcf9b5aa38f1eda5c054e82f0f0ceaa29e65d749ef34dc01c857d2bab64033f",
    "csv": "c5ce05b3e8200fbafbf4b63bb3c2a9c385bcbedc71dcc8a247b85e13bb2f351b",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_BOUND_VIOLATIONS))
def test_golden_bound_violation_reports(fmt, monkeypatch, capsys):
    monkeypatch.setattr(modular, "_equidistributed", lambda f, dev, n5: False)
    code, out, _ = run(["bounds", "--n-max", "6", "--format", fmt, "--jobs", "1"], capsys)
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_BOUND_VIOLATIONS[fmt]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_bounds_run_leaves_no_partial_report(jobs, tmp_path, monkeypatch, capsys):
    # The fault comes at n = 5, after the report of n <= 4 is written.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rect_characters = modular.rect_characters

    def faulty(lam):
        if lam.parts == (3, 2):
            raise ArithmeticError("planted failure")
        return rect_characters(lam)

    monkeypatch.setattr(modular, "rect_characters", faulty)
    out = tmp_path / "report.json"
    out.write_bytes(b"earlier report\r\n")
    argv = ["bounds", "--n-max", "6", "--format", "json", "--jobs", jobs]
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 3 and stdout == "" and "planted failure" in err
    assert out.read_bytes() == b"earlier report\r\n"
    code, stdout, err = run(argv, capsys)
    assert code == 3 and stdout == "" and "planted failure" in err
    assert multiprocessing.active_children() == []


def report_peak(argv: list[str]) -> tuple[int, int]:
    """The tracemalloc peak of a second run of argv, after one that fills the caches, and the size of its --out file."""
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, os.path.getsize(argv[argv.index("--out") + 1])


def test_bounds_report_is_written_while_the_sweep_runs(tmp_path):
    # A report held whole until the sweep ends (every row, then one string)
    # peaks at more than four times its size; a streamed one holds one n.
    out = str(tmp_path / "report.json")
    peak, size = report_peak(["bounds", "--n-max", "20", "--format", "json", "--out", out])
    assert peak < 2 * size


def test_classify_report_is_written_while_the_sweep_runs(tmp_path):
    # Records held for every n until the report is written peak at about
    # four times its size; a streamed report holds one n.
    out = str(tmp_path / "report.json")
    peak, size = report_peak(["classify", "--n-max", "300", "--format", "json", "--out", out])
    assert peak < 2 * size


def test_verify_runs_no_check_before_its_report_is_read(monkeypatch):
    # ``_run_checks`` yields each entry as it is computed, and ``cmd_verify``
    # returns its report unevaluated, like ``classify`` and ``bounds``.
    called = []
    for suite, check in list(modular.VERIFY_CHECKS.items()):

        def recorded(ns, pool_map=map, _suite=suite, _check=check):
            called.append(_suite)
            return _check(ns, pool_map)

        monkeypatch.setitem(modular.VERIFY_CHECKS, suite, recorded)
    entries = modular._run_checks(["fdim-census", "ramanujan"], 4, 1, None)
    assert next(entries)["suite"] == "fdim-census"
    assert called == ["fdim-census"]
    args = cli.build_parser().parse_args(["verify", "--suite", "all", "--n-max", "3"])
    for read in range(3):
        called.clear()
        code, _, results, summary, text, csv_rows = cli.cmd_verify(args)
        outputs = (results, text, csv_rows)
        assert all(isinstance(output, Iterator) for output in outputs) and callable(code)
        assert called == []
        list(outputs[read])
        assert called == list(modular.VERIFY_CHECKS)
        assert code() == 0 and summary["ok"] is True


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-1),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u2603\U0001f600/')),
    st.floats(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
@example({})
@example([])
@example([[], {}, ()])
@example({"b": [2**64 + 1, -3, True, None], "a": {"\u00e9\"\x01": False}})
@example({10: "x", 2: [1.5, float("nan"), float("inf"), -float("inf")]})
@example([{1: {"k": [1]}}])
@example([3, -1, 2**70, 0])
@example([1, True, 2])
@example((4, 2, 1.0))
def test_json_writer_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def written_twice(value):
    """json_text of value twice in one process, the second time from cached layouts, each equal to json.dumps."""
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert json_text(value) == expected
    assert json_text(value) == expected


def test_json_writer_layouts_follow_key_order():
    hits = report._layout.cache_info().hits
    written_twice({"b": 1, "a": [2, 3], "c": None, "é": "x"})
    written_twice({"c": None, "é": "x", "a": [2, 3], "b": 1})
    assert report._layout.cache_info().hits > hits


def test_json_writer_layouts_follow_depth():
    row = {"y": True, "x": {"z": -4}}
    written_twice(row)
    written_twice({"k": row, "j": [row, {"k": row}]})
    written_twice(row)


def test_json_writer_scalars_in_place():
    for value in ({"a": 1}, {"a": True}, {"a": None}, {"a": False}, {"a": 0}, {"a": 2**70}):
        written_twice(value)
        written_twice({"b": [value]})


class BackwardKey(str):
    """A str key that sorts backwards, so a dict of them must be written by json.dumps."""

    def __lt__(self, other):
        return str.__gt__(self, other)


class Count(int):
    """An int whose text is not int's."""

    def __repr__(self):
        return "Count()"


def test_json_writer_falls_back_for_other_keys_and_values():
    written_twice({"a": 1, "b": 2})
    written_twice({BackwardKey("a"): 1, BackwardKey("b"): 2})
    written_twice({"a": {BackwardKey("a"): [1], "b": None}})
    written_twice({2: "x", 10: [1], -1: None})
    written_twice({"a": {2: True, 1: False}})
    written_twice({"a": Count(3), "b": [Count(1), 2], "c": 1.5})


def test_json_writer_layout_cache_is_bounded():
    bound = report._layout.cache_info().maxsize
    assert bound == 64
    for i in range(3 * bound):
        written_twice({f"k{i}": i, "z": [None]})
        assert report._layout.cache_info().currsize <= bound


def test_csv_report(capsys):
    code, out, _ = run(["table", "--shape", "3,1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape,n,r,qhook"
    assert len(lines) == 5


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["classify", "--n-max", "3", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["config"]["n_max"] == 3


def test_checkpoint_resume(tmp_path, capsys):
    ckpt = tmp_path / "progress.jsonl"
    args = ["verify", "--n-max", "5", "--suite", "classification", "--resume", str(ckpt)]
    code, _, _ = run(args, capsys)
    assert code == 0
    lines = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert [e["n"] for e in lines] == [1, 2, 3, 4, 5]

    # poison the n=3 line; a resumed run must trust the checkpoint and
    # therefore report the planted mismatch instead of recomputing it
    lines[2]["mismatches"] = [{"shape": [3], "computed": [0], "predicted": []}]
    ckpt.write_text("\n".join(json.dumps(e) for e in lines) + "\n")
    code, out, _ = run(args, capsys)
    assert code == 1
    assert "total mismatches: 1" in out


def test_resume_skips_blank_lines(tmp_path, capsys):
    ckpt = tmp_path / "progress.jsonl"
    args = ["verify", "--n-max", "4", "--suite", "classification", "--resume", str(ckpt),
            "--format", "json"]
    code, fresh, _ = run(args, capsys)
    assert code == 0
    lines = ckpt.read_text().splitlines()
    lines[2:2] = ["", "  "]
    ckpt.write_text("\n".join(lines) + "\n")
    written = ckpt.read_text()
    code, resumed, _ = run(args, capsys)
    assert code == 0 and resumed == fresh
    # every n was read back, so nothing was recomputed or appended
    assert ckpt.read_text() == written


def test_resume_drops_torn_last_line(tmp_path, capsys):
    ckpt = tmp_path / "progress.jsonl"
    args = ["verify", "--n-max", "5", "--suite", "classification", "--resume", str(ckpt),
            "--format", "json"]
    code, fresh, _ = run(args, capsys)
    assert code == 0
    whole = ckpt.read_text()
    # a kill in the middle of writing the n=5 line leaves it unterminated
    ckpt.write_text(whole[: whole.rindex("\n", 0, -1) + 12])
    code, resumed, _ = run(args, capsys)
    assert code == 0
    assert resumed == fresh
    assert ckpt.read_text() == whole
    # a complete last entry that lost only its newline is kept
    ckpt.write_text(whole[:-1])
    assert run(args, capsys)[1] == fresh
    assert ckpt.read_text() == whole


@pytest.mark.parametrize(
    "index,bad",
    [
        (1, '{"n": 2, "suite'),
        (3, '{"n": 4, "suite'),
        (1, "[2]"),
        (0, '{"n": 1, "suite": "classification"}'),
        (2, '{"mismatches": 5, "n": 3, "suite": "classification"}'),
        (1, '{"mismatches": [], "n": 2, "small_dimension": "2", "suite": "classification"}'),
        (3, '{"mismatches": [], "n": 4, "small_dimension": true, "suite": "classification"}'),
        (3, '{"mismatches": [], "n": 4, "suite": "classification"}'),
    ],
    ids=[
        "torn middle line",
        "torn terminated last line",
        "not an entry",
        "no mismatches",
        "mismatches not a list",
        "small_dimension a string",
        "small_dimension a bool",
        "census entry without small_dimension",
    ],
)
def test_resume_rejects_malformed_line(tmp_path, capsys, index, bad):
    ckpt = tmp_path / "progress.jsonl"
    args = ["verify", "--n-max", "4", "--suite", "classification", "--resume", str(ckpt)]
    assert run(args, capsys)[0] == 0
    lines = ckpt.read_text().splitlines()
    lines[index] = bad
    ckpt.write_text("\n".join(lines) + "\n")
    code, _, err = run(args, capsys)
    assert code == 2
    assert f"line {index + 1}" in err


@pytest.mark.parametrize(
    "argv",
    [["classify", "--n-max", "2", "--out", "missing_dir/x.json"], ["verify", "--n-max", "2", "--resume", "some_dir"]],
    ids=["out into a missing directory", "resume naming a directory"],
)
def test_unopenable_path_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "some_dir").mkdir()
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("modmaj: ") and argv[-1] in err


# The counting, character and classification functions that table, char
# and classify call through modmaj.cli.
CLI_WORK = (
    "amod_by_enumeration",
    "amod_by_qhook",
    "amod_by_character_formula",
    "mn_character",
    "rect_character",
    "predicted_exceptions",
)


@pytest.fixture
def check_calls(monkeypatch):
    """Every verify check, bounds row and ``CLI_WORK`` call the CLI runs, counted."""
    calls = []
    for suite, check in list(modular.VERIFY_CHECKS.items()):

        def counted(ns, pool_map=map, _check=check):
            ns = list(ns)
            calls.extend(ns)
            return _check(ns, pool_map)

        monkeypatch.setitem(modular.VERIFY_CHECKS, suite, counted)

    def counted_row(task):
        calls.append(task)
        return modular._bounds_row(task)

    monkeypatch.setattr(cli, "_bounds_row", counted_row)
    for name in CLI_WORK:

        def counted_work(*args, _name=name, _work=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _work(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted_work)
    return calls


def test_resume_computes_only_the_missing_n(tmp_path, monkeypatch, check_calls, capsys):
    # Real pools of 2 workers, so each check has the next n in flight.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    args = ["--n-max", "7", "--format", "json", "--jobs", "2", "--resume"]
    for suite in ("classification", "bounds"):
        fresh_ckpt, ckpt = tmp_path / f"{suite}-fresh.jsonl", tmp_path / f"{suite}.jsonl"
        code, fresh, _ = run(["verify", "--suite", suite, *args, str(fresh_ckpt)], capsys)
        assert code == 0
        lines = fresh_ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text(lines[1] + lines[4])  # n = 2 and n = 5
        check_calls.clear()
        code, resumed, _ = run(["verify", "--suite", suite, *args, str(ckpt)], capsys)
        assert code == 0 and resumed == fresh
        assert check_calls == [1, 3, 4, 6, 7]
        assert ckpt.read_text() == "".join(lines[i] for i in (1, 4, 0, 2, 3, 5, 6))
        assert multiprocessing.active_children() == []


def test_interrupt_leaves_no_worker_and_a_checkpoint_to_resume(tmp_path, monkeypatch, capsys):
    # Real pools of 2 workers.  The interrupt is raised in this process, in
    # the fold of n = 5, while the map of n = 6 is in flight.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    args = ["verify", "--suite", "classification", "--n-max", "8", "--format", "json", "--jobs", "2"]
    code, fresh, _ = run(args, capsys)
    assert code == 0
    fold = modular._classification_entry

    def interrupted(n, pairs):
        if n == 5:
            raise KeyboardInterrupt
        return fold(n, pairs)

    monkeypatch.setattr(modular, "_classification_entry", interrupted)
    ckpt = tmp_path / "progress.jsonl"
    with pytest.raises(KeyboardInterrupt):
        cli.main([*args, "--resume", str(ckpt)])
    assert multiprocessing.active_children() == []
    text = ckpt.read_text()
    assert text.endswith("\n")
    assert [json.loads(line)["n"] for line in text.splitlines()] == [1, 2, 3, 4]
    monkeypatch.setattr(modular, "_classification_entry", fold)
    code, resumed, _ = run([*args, "--resume", str(ckpt)], capsys)
    assert code == 0 and resumed == fresh
    assert [json.loads(line)["n"] for line in ckpt.read_text().splitlines()] == list(range(1, 9))
    assert multiprocessing.active_children() == []


def test_resume_of_every_suite_from_one_file(tmp_path, monkeypatch, capsys):
    # Real pools of 2 workers; one file holds the entries of all five suites.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    computed = []
    for suite, check in list(modular.VERIFY_CHECKS.items()):

        def counted(ns, pool_map=map, _suite=suite, _check=check):
            ns = list(ns)
            computed.extend((_suite, n) for n in ns)
            return _check(ns, pool_map)

        monkeypatch.setitem(modular.VERIFY_CHECKS, suite, counted)
    args = ["verify", "--suite", "all", "--n-max", "6", "--format", "json", "--jobs", "2", "--resume"]
    fresh_ckpt, ckpt = tmp_path / "fresh.jsonl", tmp_path / "progress.jsonl"
    code, fresh, _ = run([*args, str(fresh_ckpt)], capsys)
    assert code == 0
    every = [(suite, n) for suite in modular.VERIFY_CHECKS for n in range(1, 7)]
    assert computed == every
    lines = fresh_ckpt.read_text().splitlines(keepends=True)
    assert [(json.loads(line)["suite"], json.loads(line)["n"]) for line in lines] == every
    # classification n = 2, fdim-census n = 3, ramanujan n = 3, fiber-laws
    # n = 6 and bounds n = 5, written out of suite order
    kept = (28, 8, 1, 23, 14)
    ckpt.write_text("".join(lines[i] for i in kept))
    computed.clear()
    code, resumed, _ = run([*args, str(ckpt)], capsys)
    assert code == 0 and resumed == fresh
    missing = [i for i in range(len(every)) if i not in kept]
    assert computed == [every[i] for i in missing]
    assert ckpt.read_text() == "".join(lines[i] for i in (*kept, *missing))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "22"],
        ["verify", "--n-max", "4", "--suite", "all"],
        ["bounds", "--n-max", "12"],
        ["table", "--shape", "4,2,1", "--method", "all"],
        ["char", "--shape", "4,2", "--ell", "2"],
        ["char", "--shape", "4,2", "--mu", "3,3"],
        ["classify", "--n-max", "6"],
    ],
)
def test_unopenable_out_fails_before_any_check(argv, tmp_path, check_calls, capsys):
    assert run(argv + ["--out", str(tmp_path / "report.json")], capsys)[0] == 0
    assert check_calls
    check_calls.clear()
    for out in (tmp_path / "missing_dir" / "x.json", tmp_path):
        code, stdout, err = run(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("modmaj: ") and str(out) in err
        assert check_calls == []


def test_unopenable_out_is_reported_before_the_budget(tmp_path, check_calls, capsys):
    argv = ["table", "--shape", "5,4,3", "--method", "enumerate", "--budget", "10", "--out"]
    code, _, err = run(argv + [str(tmp_path / "report.json")], capsys)
    assert code == 2 and "budget" in err
    assert check_calls == ["amod_by_enumeration"]
    check_calls.clear()
    out = tmp_path / "missing_dir" / "x.json"
    code, stdout, err = run(argv + [str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("modmaj: ") and str(out) in err and "budget" not in err
    assert check_calls == []


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_out_check_truncates_no_earlier_report(command, tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")

    def boom(*args):
        raise ArithmeticError("planted failure")

    monkeypatch.setitem(modular.VERIFY_CHECKS, "classification", boom)
    monkeypatch.setattr(cli, "_bounds_row", boom)
    code, _, _ = run([command, "--n-max", "3", "--out", str(out)], capsys)
    assert code == 3
    assert out.read_text() == "earlier report\n"


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table"])  # --shape is required
    assert info.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--n-max", "2", "--jobs", jobs])
    assert info.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "classify", "bounds"])
def test_n_max_below_one_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--n-max", "0"])
    assert info.value.code == 2
    assert "--n-max" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5", "x"])
def test_budget_below_one_is_usage_error(budget, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--shape", "3,2", "--method", "enumerate", "--budget", budget])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "whole number >= 1" in err


def test_unknown_internal_failure_maps_to_exit_3(monkeypatch, capsys):
    def boom(lam, poly=None):
        raise ArithmeticError("planted failure")

    monkeypatch.setattr(cli, "amod_by_qhook", boom)
    code, _, err = run(["table", "--shape", "2,2"], capsys)
    assert code == 3
    assert "internal consistency failure" in err


def test_jobs_env_default(monkeypatch, capsys):
    monkeypatch.setenv("MODMAJ_JOBS", "7")
    args = cli.build_parser().parse_args(["verify", "--n-max", "2"])
    assert args.jobs == 7
    for value in ("not-a-number", "0", "-2"):
        monkeypatch.setenv("MODMAJ_JOBS", value)
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--n-max", "2"])
        assert info.value.code == 2
        assert "MODMAJ_JOBS" in capsys.readouterr().err


def test_parallel_verify_matches_serial(capsys):
    for command in (["verify", "--suite", "all"], ["bounds"]):
        argv = command + ["--n-max", "8", "--format", "json"]
        serial = run(argv + ["--jobs", "1"], capsys)
        parallel = run(argv + ["--jobs", "2"], capsys)
        assert serial[0] == parallel[0] == 0
        assert serial[1] == parallel[1], command


SERIAL_COMMANDS = {
    "table": ["table", "--shape", "3,1"],
    "char": ["char", "--shape", "3,1", "--ell", "2"],
    "classify": ["classify", "--n-max", "3"],
}


@pytest.mark.parametrize("name", sorted(SERIAL_COMMANDS))
def test_serial_commands_take_no_jobs(name, monkeypatch, capsys):
    # Only verify and bounds run in parallel, so a bad MODMAJ_JOBS is no
    # error elsewhere, and --jobs is not an option there.
    monkeypatch.setenv("MODMAJ_JOBS", "0")
    assert run(SERIAL_COMMANDS[name], capsys)[0] == 0
    with pytest.raises(SystemExit) as info:
        cli.main(SERIAL_COMMANDS[name] + ["--jobs", "2"])
    assert info.value.code == 2
