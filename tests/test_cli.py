"""CLI behavior: exit codes, report formats, determinism, checkpoint resume."""

import hashlib
import json

import pytest

from modmaj import cli, qpoly
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
    assert "budget" in err


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
def test_table_divides_once(method, monkeypatch, capsys):
    # The report's polynomial and its q-hook counts come from one big-integer quotient.
    calls = []
    original = qpoly._packed_quotient

    def counted(lam):
        calls.append(lam)
        return original(lam)

    monkeypatch.setattr(qpoly, "_packed_quotient", counted)
    code, out, _ = run(["table", "--shape", "6,4,2", "--method", method, "--format", "json"], capsys)
    assert code == 0
    assert len(calls) == 1
    counts = {r["method"]: r["counts"] for r in json.loads(out)["results"]}
    assert counts["qhook"] == list(qpoly.amod_by_qhook(Partition((6, 4, 2))))


def test_bad_shape_is_usage_error(capsys):
    code, _, err = run(["table", "--shape", "1,2"], capsys)
    assert code == 2
    assert "weakly decreasing" in err


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
    assert "divide" in err


def test_char_size_mismatch(capsys):
    code, _, err = run(["char", "--shape", "2,2", "--mu", "3"], capsys)
    assert code == 2


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
    ],
    ids=[
        "torn middle line",
        "torn terminated last line",
        "not an entry",
        "no mismatches",
        "mismatches not a list",
        "small_dimension a string",
        "small_dimension a bool",
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
