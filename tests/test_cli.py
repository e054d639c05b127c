import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import wreathchar
from wreathchar.base_group import BUILTIN_NAMES, builtin, store
from wreathchar.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from wreathchar.partitions import _pk_arrays, multipartitions_of
from wreathchar.stats import CSV_COLUMNS
from wreathchar.wreath_chars import character_table

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEntry:
    def test_b2_cell(self, capsys):
        code, out, _ = run(
            capsys, "entry", "--group", "Z2", "--lambda", "[[1],[1]]", "--mu", "[[1,1],[]]"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["chi"] == "2"
        assert doc["config"]["version"]

    def test_trivial_label_chi_one(self, capsys):
        for mu in ("[[3],[]]", "[[1,1],[1]]", "[[],[2,1]]"):
            code, out, _ = run(
                capsys, "entry", "--group", "Z2", "--lambda", "[[3],[]]", "--mu", mu
            )
            assert code == EXIT_OK
            assert json.loads(out)["chi"] == "1"

    def test_s3_natural(self, capsys):
        code, out, _ = run(
            capsys, "entry", "--group", "trivial", "--lambda", "[[2,1]]", "--mu", "[[1,1,1]]"
        )
        assert code == EXIT_OK
        assert json.loads(out)["chi"] == "2"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "entry", "--group", "Z2", "--lambda", "nope", "--mu", "[[1],[]]")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_size_mismatch_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "entry", "--group", "Z2", "--lambda", "[[2],[]]", "--mu", "[[1],[]]"
        )
        assert code == EXIT_USAGE

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "entry", "--group", "Z2", "--lambda", "[[1],[1]]", "--mu", "[[1,1],[]]",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["chi,perm", "2,2"]


class TestTable:
    def test_csv_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table", "--group", "Z2", "--n", "2", "--format", "csv", "--out", str(path)
        )
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == "row_label,col_label,value"
        assert len(lines) == 1 + 25

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_csv_bytes_match_the_oracle(self, capsys, tmp_path, name):
        # stdout and --out carry the same bytes at any worker count
        for n in range(4):
            want = oracles.reference_csv(character_table(builtin(name), n))
            for workers in ("1", "4"):
                argv = ("table", "--group", name, "--n", str(n), "--format", "csv", "--workers", workers)
                assert run(capsys, *argv) == (EXIT_OK, want, "")
                path = tmp_path / f"{n}-{workers}.csv"
                assert run(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
                assert path.read_bytes() == want.encode("ascii")

    def test_json_stdout(self, capsys):
        code, out, _ = run(capsys, "table", "--group", "Z2", "--n", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["values"] == [["1", "1"], ["1", "-1"]]

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "table", "--group", "Z2", "--n", "6", "--budget", "10")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize("argv", [("table", "--group", "Z2", "--n", "1"), ("dn-census", "--n", "1", "--p", "2")])
    def test_negative_budget_exits_3(self, capsys, argv):
        # a budget has no lower bound: below every cell count, it refuses the table
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err.endswith("budget is -1\n")


class TestMashEquiv:
    def test_mash_merge_chain(self, capsys):
        for mu in ("[[6,1],[4,1,1,1]]", "[[2,2,2,1],[4,1,1,1]]", "[[2,2,2,1],[4,3]]"):
            code, out, _ = run(capsys, "mash", "--mu", mu, "--p", "3")
            assert code == EXIT_OK
            doc = json.loads(out)
            assert doc["canonical"] == [[6, 1], [4, 3]]
            assert doc["largest_part"] == 6

    def test_idempotent(self, capsys):
        code, out, _ = run(capsys, "mash", "--mu", "[[6,1],[4,3]]", "--p", "3")
        assert json.loads(out)["canonical"] == [[6, 1], [4, 3]]

    def test_equiv_two_step(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "--mu", "[[2,2],[]]", "--nu", "[[1,1,1,1],[]]", "--p", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["equivalent"] is True

    def test_equiv_false(self, capsys):
        code, out, _ = run(capsys, "equiv", "--mu", "[[2],[]]", "--nu", "[[1,1],[]]", "--p", "3")
        assert json.loads(out)["equivalent"] is False

    def test_composite_p_exits_2(self, capsys):
        code, _, _ = run(capsys, "mash", "--mu", "[[2,2],[]]", "--p", "4")
        assert code == EXIT_USAGE


class TestLabels:
    # Partition's int() would coerce 2.7, 2.0, true and "2" into valid parts
    BAD = ["[[2.7],[]]", "[[2.0],[]]", "[[true,true],[]]", '[["2"],[]]', '["2"]', "2"]

    @pytest.mark.parametrize("label", BAD)
    @pytest.mark.parametrize(
        "argv",
        [
            ("entry", "--group", "Z2", "--mu", "[[2],[]]", "--lambda"),
            ("mash", "--p", "2", "--mu"),
            ("equiv", "--p", "2", "--mu", "[[2],[]]", "--nu"),
        ],
    )
    def test_non_integer_parts_exit_2(self, capsys, argv, label):
        code, out, err = run(capsys, *argv, label)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: bad multipartition label {label!r}: expected a JSON list of lists of integers\n"

    def test_integer_parts_still_parse(self, capsys):
        code, out, _ = run(capsys, "mash", "--p", "2", "--mu", "[[1,1],[]]")
        assert code == EXIT_OK
        assert json.loads(out)["canonical"] == [[2], []]


# the three sampled censuses, with good arguments but no seed
SAMPLED_ARGV = [
    ("sample-census", "--group", "Z2", "--n", "6", "--p", "2", "--samples", "10"),
    ("cert-census", "--k", "2", "--n", "40", "--p", "2", "--samples", "10"),
    ("dn-census", "--n", "6", "--p", "3", "--mode", "sampled", "--samples", "10"),
]


# every subcommand that takes --format, with the header its CSV starts with
# and its exit code; VALID and INVALID stand for group files written by the test
CSV_HEADERS = [
    (("entry", "--group", "Z2", "--lambda", "[[1],[1]]", "--mu", "[[1,1],[]]"), "chi,perm", EXIT_OK),
    (("table", "--group", "Z2", "--n", "2"), "row_label,col_label,value", EXIT_OK),
    (("mash", "--mu", "[[2,2],[]]", "--p", "2"), "canonical,largest_part", EXIT_OK),
    (("equiv", "--mu", "[[2,2],[]]", "--nu", "[[1,1,1,1],[]]", "--p", "2"), "equivalent", EXIT_OK),
    (("census", "--group", "Z2", "--n", "2", "--p", "2"), ",".join(CSV_COLUMNS), EXIT_OK),
    (("sample-census", "--group", "Z2", "--n", "4", "--p", "2", "--samples", "5", "--seed", "1"), ",".join(CSV_COLUMNS), EXIT_OK),
    (("cert-census", "--k", "2", "--n", "20", "--p", "2", "--samples", "5", "--seed", "1"), ",".join(CSV_COLUMNS), EXIT_OK),
    (("asym", "--k", "2", "--n", "100"), "ratio", EXIT_OK),
    (("concentration", "--k", "2", "--n", "20", "--delta", "0.3"), "proportion,proportion_decimal", EXIT_OK),
    (("dn-census", "--n", "4", "--p", "2"), ",".join(CSV_COLUMNS), EXIT_OK),
    (("group-validate", "--file", "VALID"), "ok,group", EXIT_OK),
    (("group-validate", "--file", "INVALID"), "ok,problems", EXIT_VALIDATION),
]


class TestCensuses:
    def test_exact_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--group", "Z2", "--n", "2", "--p", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["proportion"] == "1/5"
        assert doc["evaluated"] == 25
        assert doc["config"]["command"] == "census"

    def test_sample_census_echoes_seed(self, capsys):
        code, out, _ = run(
            capsys,
            "sample-census", "--group", "Z2", "--n", "6", "--p", "2",
            "--samples", "50", "--seed", "12",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["seed"] == 12
        assert doc["config"]["seed"] == 12

    def test_sample_census_random_seed_echoed(self, capsys):
        code, out, _ = run(
            capsys,
            "sample-census", "--group", "Z2", "--n", "4", "--p", "2", "--samples", "10",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["seed"] is not None

    def test_cert_census(self, capsys):
        code, out, _ = run(
            capsys,
            "cert-census", "--k", "2", "--n", "40", "--p", "2",
            "--samples", "100", "--seed", "5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["coverage"] is not None

    def test_asym(self, capsys):
        code, out, _ = run(capsys, "asym", "--k", "1", "--n", "10000")
        assert code == EXIT_OK
        assert 0.90 <= json.loads(out)["ratio"] <= 0.995

    def test_concentration(self, capsys):
        code, out, _ = run(capsys, "concentration", "--k", "2", "--n", "2", "--delta", "0.5")
        assert code == EXIT_OK
        assert json.loads(out)["proportion"] == "1/5"

    @pytest.mark.parametrize("delta", ["abc", "nan", "inf", "1/0", "0", "1"])
    def test_bad_delta_exits_2(self, capsys, delta):
        code, out, err = run(capsys, "concentration", "--k", "2", "--n", "4", "--delta", delta)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: delta must be a number in (0, 1), got {delta!r}\n"

    def test_dn_census(self, capsys):
        code, out, _ = run(capsys, "dn-census", "--n", "4", "--p", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mode"] == "dn-exact"
        assert doc["coverage"] is not None

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    def test_dn_exact_rejects_sampling_flags(self, capsys, flag):
        code, out, err = run(capsys, "dn-census", "--n", "4", "--p", "2", flag, "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {flag} applies only to --mode sampled\n"

    def test_dn_exact_names_the_flag_not_the_argument(self, capsys):
        # the CLI's own message comes first, before the census's named error
        code, out, err = run(capsys, "dn-census", "--n", "4", "--p", "2", "--samples", "5", "--seed", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --seed applies only to --mode sampled\n"

    @pytest.mark.parametrize("seed", [str(-1), str(2**64), str(2**64 + 1)])
    @pytest.mark.parametrize("argv", SAMPLED_ARGV)
    def test_seed_out_of_range_exits_2(self, capsys, argv, seed):
        # a seed is never wrapped into [0, 2**64): -1 is not 2**64 - 1
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("argv", SAMPLED_ARGV)
    def test_top_seed_is_echoed(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--seed", str(2**64 - 1))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["seed"] == doc["config"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "bad, message",
        [(("--p", "4"), "p = 4 is not prime"), (("--samples", "0"), "samples must be >= 1, got 0")],
        ids=["bad0-p = 4 is not prime", "bad1-samples must be >= 1"],
    )
    @pytest.mark.parametrize("argv", SAMPLED_ARGV)
    def test_bad_p_or_samples_exits_2(self, capsys, argv, bad, message):
        # the last --p or --samples given is the one parsed
        code, out, err = run(capsys, *argv, "--seed", "1", *bad)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("confidence", ["0", "1", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample-census", "--group", "Z2", "--n", "24", "--p", "2", "--samples", "10000", "--seed", "1"),
            ("dn-census", "--n", "20", "--p", "3", "--mode", "sampled", "--samples", "10000", "--seed", "1"),
        ],
    )
    def test_bad_confidence_exits_2_before_sampling(self, capsys, argv, confidence):
        code, out, err = run(capsys, *argv, "--confidence", confidence)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: confidence must be a number in (0, 1), got {float(confidence)!r}\n"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_dn_sampled_bad_samples_exits_2(self, capsys, samples):
        code, out, err = run(
            capsys, "dn-census", "--n", "20", "--p", "3", "--mode", "sampled", "--samples", samples,
            "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: samples must be >= 1, got {samples}\n"

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--group", "Z2", "--n", "3"),
            ("census", "--group", "Z2", "--n", "3", "--p", "2"),
            ("sample-census", "--group", "Z2", "--n", "8", "--p", "2", "--samples", "50", "--seed", "1"),
            ("cert-census", "--k", "2", "--n", "60", "--p", "2", "--samples", "50", "--seed", "1"),
        ],
    )
    def test_bad_workers_exits_2(self, capsys, argv, workers):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("exact", ("census", "--group", "Z2", "--n", "4", "--p", "2")),
            ("sampled", ("sample-census", "--group", "S3", "--n", "5", "--p", "3", "--samples", "40", "--seed", "7")),
            ("certificate", ("cert-census", "--k", "2", "--n", "30", "--p", "2", "--samples", "40", "--seed", "7")),
            ("dn-exact", ("dn-census", "--n", "6", "--p", "3")),
            ("dn-sampled", ("dn-census", "--n", "8", "--p", "2", "--mode", "sampled", "--samples", "40", "--seed", "7")),
            ("entry", ("entry", "--group", "Z2", "--lambda", "[[1],[1]]", "--mu", "[[1,1],[]]")),
            ("mash", ("mash", "--mu", "[[6,1],[4,1,1,1]]", "--p", "3")),
            ("equiv-true", ("equiv", "--mu", "[[2,2],[]]", "--nu", "[[1,1,1,1],[]]", "--p", "2")),
            ("equiv-false", ("equiv", "--mu", "[[2],[]]", "--nu", "[[1,1],[]]", "--p", "3")),
            ("asym", ("asym", "--k", "2", "--n", "10000")),
            ("concentration", ("concentration", "--k", "2", "--n", "200", "--delta", "0.3")),
            ("table", ("table", "--group", "Z2", "--n", "2")),
        ],
    )
    def test_report_bytes_are_pinned(self, capsys, name, argv, fmt):
        # one small run of each census mode and of each other subcommand that
        # prints a report, its stdout pinned byte for byte
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_OK
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")

    def test_over_budget_dn_census_enumerates_nothing(self, capsys):
        before = multipartitions_of.cache_info().misses
        code, out, err = run(capsys, "dn-census", "--n", "40", "--p", "2")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: sub-table needs 20410241156848 cells, budget is 50000000\n"
        assert multipartitions_of.cache_info().misses == before

    def test_over_budget_census_counts_nothing(self, capsys):
        sizes = {k: len(arr) for k, arr in _pk_arrays.items()}
        code, out, err = run(capsys, "census", "--group", "Z2", "--n", "1000000", "--p", "2")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: table needs at least 1000000^2 = 1000000000000 cells, budget is 50000000\n"
        assert {k: len(arr) for k, arr in _pk_arrays.items()} == sizes

    def test_pool_never_exceeds_samples(self, capsys, pool_requests):
        argv = ("sample-census", "--group", "Z2", "--n", "6", "--p", "2", "--samples", "2", "--seed", "3")
        serial = run(capsys, *argv)
        assert run(capsys, *argv, "--workers", "5000") == serial
        assert pool_requests == [2, 1]  # two processes, one sample each

    def test_csv_has_frozen_columns(self, capsys):
        code, out, _ = run(
            capsys, "census", "--group", "Z2", "--n", "2", "--p", "2", "--format", "csv"
        )
        header = out.splitlines()[0]
        assert header == "mode,group,n,p,samples,divisible,evaluated,proportion,ci_low,ci_high,seed,coverage"

    @pytest.mark.parametrize(
        "argv, header, exit_code", CSV_HEADERS, ids=[f"{argv[0]}-{code}" for argv, _, code in CSV_HEADERS]
    )
    def test_csv_starts_with_its_header(self, capsys, tmp_path, argv, header, exit_code):
        valid = store(builtin("S3"))
        invalid = store(builtin("S3"))
        invalid["table"][2][2] = 5
        files = {}
        for key, doc in (("VALID", valid), ("INVALID", invalid)):
            files[key] = tmp_path / f"{key}.json"
            files[key].write_text(json.dumps(doc))
        argv = [str(files.get(arg, arg)) for arg in argv]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == exit_code
        assert not out.startswith("{")
        assert out.splitlines()[0] == header


class TestGroupValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(store(builtin("S3"))))
        code, out, _ = run(capsys, "group-validate", "--file", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_perturbed_exits_4(self, capsys, tmp_path):
        doc = store(builtin("S3"))
        doc["table"][2][2] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "group-validate", "--file", str(path))
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        assert payload["ok"] is False
        assert any("orthogonality" in p for p in payload["problems"])

    def test_paley_12_is_refused_before_the_engine(self, capsys, tmp_path):
        # orthogonal, but not a group's table: validation names the problem
        # and every command exits 4 instead of failing inside the engine
        path = tmp_path / "paley12.json"
        path.write_text(json.dumps(oracles.paley_12_document()))
        code, out, _ = run(capsys, "group-validate", "--file", str(path))
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        assert payload["ok"] is False
        assert "linear character 1 times character 2 is not a character of the table" in payload["problems"]
        for argv in (("table", "--n", "2"), ("census", "--n", "2", "--p", "2")):
            code, out, err = run(capsys, *argv, "--group-file", str(path))
            assert (code, out) == (EXIT_VALIDATION, "")
            assert err.startswith("error: linear character 1 times character 2 is not a character of the table")

    def test_group_file_used_by_entry(self, capsys, tmp_path):
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(store(builtin("Z2"))))
        code, out, _ = run(
            capsys,
            "entry", "--group-file", str(path), "--lambda", "[[1],[1]]", "--mu", "[[1,1],[]]",
        )
        assert code == EXIT_OK
        assert json.loads(out)["chi"] == "2"


class TestDeterminism:
    def test_sample_census_bytes_identical_across_workers(self, capsys):
        outs = []
        for workers in ("1", "4", "8"):
            code, out, _ = run(
                capsys,
                "sample-census", "--group", "Z2", "--n", "8", "--p", "2",
                "--samples", "200", "--seed", "9", "--workers", workers,
            )
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_repeat_run_identical(self, capsys):
        a = run(capsys, "census", "--group", "Z2", "--n", "3", "--p", "2")
        b = run(capsys, "census", "--group", "Z2", "--n", "3", "--p", "2")
        assert a == b


class TestHelp:
    @pytest.mark.parametrize(
        "cmd",
        [
            "entry", "table", "mash", "equiv", "census", "sample-census",
            "cert-census", "asym", "concentration", "dn-census", "group-validate",
        ],
    )
    def test_every_subcommand_has_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        assert f"usage: wreathchar {cmd} " in capsys.readouterr().out

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bogus-command"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        # the package's own source directory, so this runs from a checkout too
        env = dict(os.environ, PYTHONPATH=str(Path(wreathchar.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "wreathchar", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"wreathchar {wreathchar.__version__}"


# a fresh interpreter that imports the CLI, runs argv (if any) and prints, as
# JSON, which of the watched modules it has loaded and what argv wrote
COLD_START = """
import io, json, sys
from contextlib import redirect_stdout
import wreathchar.cli as cli
argv = {argv!r}
out = io.StringIO()
if argv:
    with redirect_stdout(out):
        assert cli.main(argv) == 0
watched = ("multiprocessing", "concurrent.futures", "dataclasses", "inspect", "csv")
print(json.dumps([[name for name in watched if name in sys.modules], out.getvalue()]))
"""


def _cold_start(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(wreathchar.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START.format(argv=argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestColdStart:
    """A serial run never loads the process-pool machinery or dataclasses
    (nor inspect, which it pulls in), and only a one-row CSV report loads
    csv."""

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["census", "--group", "Z2", "--n", "4", "--p", "2", "--workers", "1"],
            ["table", "--group", "S3", "--n", "3", "--format", "csv", "--workers", "1"],
            ["sample-census", "--group", "Z2", "--n", "6", "--p", "2", "--samples", "10", "--seed", "1", "--workers", "1"],
            ["cert-census", "--k", "2", "--n", "40", "--p", "2", "--samples", "10", "--seed", "1", "--workers", "1"],
            ["dn-census", "--n", "6", "--p", "3"],
            ["dn-census", "--n", "6", "--p", "3", "--mode", "sampled", "--samples", "10", "--seed", "1"],
        ],
        ids=lambda argv: argv[0] if argv else "import",
    )
    def test_no_pool_modules(self, argv):
        loaded, _ = _cold_start(argv)
        assert loaded == []

    def test_census_csv_loads_csv_alone(self):
        argv = ["census", "--group", "Z2", "--n", "4", "--p", "2", "--format", "csv", "--workers", "1"]
        loaded, out = _cold_start(argv)
        assert loaded == ["csv"]
        assert out == (GOLDEN / "exact.csv").read_text(encoding="utf-8")


class TestOutputErrors:
    def test_closed_pipe_exits_141_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(wreathchar.__file__).resolve().parents[1]))
        # the CSV is far larger than a pipe buffer, so the writer meets the
        # closed pipe while it is still writing
        proc = subprocess.Popen(
            [sys.executable, "-m", "wreathchar", "table", "--group", "S3", "--n", "5", "--format", "csv"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"row_label,col_label,value\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_PIPE
        assert err == b""

    def test_other_os_errors_exit_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "table", "--group", "S3", "--n", "2", "--out", str(tmp_path / "missing" / "x.csv")
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "No such file or directory" in err
