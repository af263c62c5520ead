import ast
import contextlib
import functools
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import ptl
from ptl.cache import ResultCache, code_version
from ptl.cli import ALL_FORMATS, main
from ptl.engine import BracketSpanProblem, hp0_graded_dims
from ptl.linalg import DEFAULT_PRIME, PRIME_LIMIT, IncrementalModEchelon, is_prime
from ptl.partitions import bn_hilbert
from ptl.poisson import darboux_structure, reflection_structure
from ptl.strata import leaves_type_d
from ptl.tables import GradedDimensionTable
from ptl.weyl import GroupSpec
import ptl.solver
from ptl.solver import kernel_basis


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_typed_solve_json(capsys):
    code, out = run_cli(capsys, "typed", "solve", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "D" and doc["n"] == 2
    assert doc["display_series"] == "1"
    assert doc["dual_weights"] == {"0": 1}


def test_counts_examples(capsys):
    code, out = run_cli(capsys, "counts", "multipartitions", "--n", "5", "--i", "1")
    assert code == 0 and out.strip() == "7"
    code, out = run_cli(capsys, "counts", "p", "--n", "4", "--i", "2")
    assert out.strip() == "2"
    code, out = run_cli(capsys, "counts", "p-prime", "--n", "8", "--i", "5")
    assert out.strip() == "1"
    code, out = run_cli(capsys, "counts", "hh0", "--family", "typeD", "--n", "6")
    assert out.strip() == "6"
    code, out = run_cli(capsys, "counts", "prime-bound", "--family", "typeD",
                        "--n", "4", "--i", "2", "--d", "1,0,1")
    assert out.strip() == "4"


def test_compare_verdict_equal(capsys):
    code, out = run_cli(capsys, "compare", "hp0-hh0",
                        "--n-max", "6", "--format", "json", "--no-cache")
    doc = json.loads(out)
    assert doc["verdict"] == "equal"
    assert all(r["relation"] == "equal" for r in doc["rows"])


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["typed", "solve", "--n", "2", "--bogus"])
    assert exc.value.code == 2


def test_guardrail_exit_3(capsys):
    code, out = run_cli(capsys, "hp0", "brute", "--group", "hyperoctahedral",
                        "--n", "2", "--max-degree", "8", "--max-columns", "5",
                        "--no-cache", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["truncated"] is True


def test_truncated_table_prints_only_computed_degrees(capsys):
    # B_2 stops at degree 6, whose cell streams 6 weight-zero columns;
    # degrees 6..8 were never computed (dim 4 is 1, dim 8 is 0)
    argv = ("hp0", "brute", "--group", "hyperoctahedral", "--n", "2", "--max-degree", "8",
            "--max-columns", "5", "--no-cache", "--format")
    code, out = run_cli(capsys, *argv, "json")
    assert code == 3 and json.loads(out)["truncated_at_degree"] == 6
    code, out = run_cli(capsys, *argv, "table")
    assert code == 3
    assert out.splitlines()[0].endswith("through degree 8 (truncated at degree 6)")
    assert out.splitlines()[2:] == [f"     {d}  {v}" for d, v in enumerate((1, 0, 0, 0, 1, 0))]
    code, out = run_cli(capsys, *argv, "csv")
    assert code == 3 and out == "degree,dim\n0,1\n1,0\n2,0\n3,0\n4,1\n5,0\n"
    code, out = run_cli(capsys, *argv, "latex")
    assert code == 3 and out == "$hyperoctahedral_{2}$ & $1 + t$ \\\\\n% truncated at degree 6\n"


@pytest.mark.parametrize("command", [
    ("typed", "solve", "--n", "3"),
    ("cache", "info"),
    ("cache", "verify"),
    ("cache", "clear"),
    ("compare", "hp0-hh0", "--n-max", "3"),
    ("strata", "type-d", "--n", "3"),
], ids=["typed-solve", "cache-info", "cache-verify", "cache-clear", "compare", "strata-type-d"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_cache_dir_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, command, via_env):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    if via_env:
        monkeypatch.setenv("PTL_CACHE_DIR", str(path))
        code = main(list(command))
    else:
        code = main(list(command) + ["--cache-dir", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: unusable cache directory") and err.count("\n") == 1


def test_cache_roundtrip_and_byte_identical(tmp_path, capsys):
    args = ("typed", "solve", "--n", "4", "--format", "json",
            "--cache-dir", str(tmp_path))
    code, cold = run_cli(capsys, *args)
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code, warm = run_cli(capsys, *args)
    assert code == 0
    assert warm == cold


def test_hp0_cache_byte_identical(tmp_path, capsys):
    args = ("hp0", "brute", "--group", "demihyperoctahedral", "--n", "2",
            "--max-degree", "6", "--format", "json", "--cache-dir", str(tmp_path))
    _, cold = run_cli(capsys, *args)
    _, warm = run_cli(capsys, *args)
    assert warm == cold


def test_hp0_ignores_forged_cache_record(tmp_path, capsys):
    # a re-checksummed hp0 record claiming dim 7 at degree 4 is never served
    key = {"module": "hp0-engine", "group": "hyperoctahedral", "n": 2,
           "subgroup": "full", "max_degree": 6, "prime": DEFAULT_PRIME,
           "code": code_version()}
    payload = hp0_graded_dims(BracketSpanProblem(GroupSpec("hyperoctahedral", 2)),
                              6).to_json_dict()
    payload["dims"]["4"] = 7
    ResultCache(tmp_path).put(key, payload)
    code, out = run_cli(capsys, "hp0", "brute", "--group", "hyperoctahedral", "--n", "2",
                        "--max-degree", "6", "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 1, "4": 1}
    assert len(list(tmp_path.glob("*.json"))) == 1  # and nothing is written


def test_cache_corruption_exit_4(tmp_path, capsys):
    args = ("typed", "solve", "--n", "3", "--format", "json",
            "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    record = next(tmp_path.glob("*.json"))
    data = json.loads(record.read_text())
    data["payload"]["display_series"] = "tampered"
    record.write_text(json.dumps(data))
    code, _ = run_cli(capsys, *args)
    assert code == 4


def test_cache_verify_detects_tampering(tmp_path, capsys):
    run_cli(capsys, "typed", "solve", "--n", "4", "--cache-dir", str(tmp_path))
    code, out = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0 and "1 cache entries" in out
    record = next(tmp_path.glob("*.json"))
    data = json.loads(record.read_text())
    # the s1-free basis: s2^2, the one s1-free column of dual weight -8
    assert data["payload"] == {"vectors": [[-8, [0, 1]]]}
    data["payload"]["vectors"][0][1][1] = 2
    record.write_text(json.dumps(data))
    code, _ = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 4


def test_cache_verify_rejects_misfiled_and_malformed_records(tmp_path, capsys):
    run_cli(capsys, "typed", "solve", "--n", "2", "--cache-dir", str(tmp_path))
    record = next(tmp_path.glob("*.json"))
    misfiled = record.rename(tmp_path / ("0" * 64 + ".json"))
    code, _ = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 4
    misfiled.write_text("[]")
    code, _ = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 4


def test_cache_clear_reports_a_directory_entry(tmp_path, capsys):
    # a directory named like a record is cache corruption to every action:
    # `info` does not count it, and `clear` removes nothing
    run_cli(capsys, "typed", "solve", "--n", "2", "--cache-dir", str(tmp_path))
    record = next(tmp_path.glob("*.json"))
    (tmp_path / "x.json").mkdir()
    for action in ("info", "verify", "clear"):
        code = main(["cache", action, "--cache-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err.count("\n") == 1 and err.startswith("cache corruption: ") and "x.json" in err
    assert record.is_file()


def test_cache_reverifies_kernel_payload(tmp_path, capsys):
    # a forged payload with a consistent checksum still fails kernel re-checks
    args = ("typed", "solve", "--n", "2", "--format", "json",
            "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    cache = ResultCache(tmp_path)
    record_path = next(tmp_path.glob("*.json"))
    record = json.loads(record_path.read_text())
    key = record["key"]
    payload = dict(record["payload"])
    _replace_last_vector(payload, [-4, [0, 1]])  # s2 added: not in the kernel
    cache.put(key, payload)     # checksum now matches the forged payload
    code, _ = run_cli(capsys, *args)
    assert code == 4
    code, _ = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 4


def test_latex_figure_shape(capsys):
    code, out = run_cli(capsys, "typed", "solve", "--n-max", "4",
                        "--format", "latex", "--no-cache")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\begin{tabular}{c|c}"
    assert "t^{\\frac{1}{4}}" in lines[1]
    assert lines[2] == "$2$ & $1$ \\\\"
    assert lines[-1] == "\\end{tabular}"


def test_schema_validation(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src" / "ptl" / "schemas"
         / "output-v1.schema.json").read_text())
    docs = []
    for argv in (
        ("typed", "solve", "--n", "3", "--format", "json", "--no-cache"),
        ("typed", "solve", "--n-max", "3", "--format", "json", "--no-cache"),
        ("typed", "families", "--n", "4", "--format", "json"),
        ("hp0", "brute", "--group", "hyperoctahedral", "--n", "2",
         "--max-degree", "6", "--format", "json", "--no-cache"),
        ("hp0", "aminus", "--n", "2", "--max-degree", "4", "--format", "json"),
        ("counts", "multipartitions", "--n", "3", "--i", "2", "--format", "json"),
        ("counts", "bn-hilbert", "--n", "3", "--format", "json"),
        ("strata", "kleinian", "--n", "2", "--m", "1", "--format", "json"),
        ("series", "burgers", "--order", "4", "--format", "json"),
        ("compare", "hp0-hh0", "--n-max", "4", "--format", "json", "--no-cache"),
        ("cache", "info", "--no-cache", "--format", "json"),
    ):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, argv
        docs.append(json.loads(out))
    for doc in docs:
        jsonschema.validate(doc, schema)


def test_strata_type_d_uses_solver_dims(capsys):
    code, out = run_cli(capsys, "strata", "type-d", "--n", "2",
                        "--format", "json", "--no-cache")
    doc = json.loads(out)
    labels = {leaf["label"] for leaf in doc["leaves"]}
    assert "(ii) {2}" in labels and "(i) (r=2; {})" in labels


def test_workers_deterministic(capsys):
    _, seq = run_cli(capsys, "typed", "solve", "--n-max", "5",
                     "--format", "json", "--no-cache")
    _, par = run_cli(capsys, "typed", "solve", "--n-max", "5",
                     "--format", "json", "--no-cache", "--workers", "2")
    assert seq == par


def test_typed_solve_weight_filter(capsys):
    code, out = run_cli(capsys, "typed", "solve", "--n", "4", "--weight", "-8",
                        "--format", "json", "--no-cache")
    doc = json.loads(out)
    assert doc["dual_weights"] == {"-8": 1}
    assert doc["display_series"] == "t^2"


def test_typed_families_cli(capsys):
    code, out = run_cli(capsys, "typed", "families", "--n", "4")
    assert code == 0
    assert "s1^2*s2" in out and "s2^2" in out


def test_code_version_stable():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def _b2_table(capsys, *extra):
    return run_cli(capsys, "hp0", "brute", "--group", "hyperoctahedral", "--n", "2",
                   "--max-degree", "12", "--no-cache", "--format", "json", *extra)


@pytest.mark.parametrize("prime", [2 ** 31 - 1, 1048571])
def test_prime_range_agrees_with_default(capsys, prime):
    code, default = _b2_table(capsys)
    assert code == 0
    code, out = _b2_table(capsys, "--prime", str(prime))
    assert code == 0
    assert json.loads(out)["dims"] == json.loads(default)["dims"] == {"0": 1, "4": 1}


@pytest.mark.parametrize("prime", [2 ** 61 - 1, 1048575, 2147483659])
def test_unsafe_prime_exits_2(prime):
    for argv in (["hp0", "brute", "--group", "hyperoctahedral", "--n", "2",
                  "--max-degree", "12", "--no-cache"],
                 ["typed", "solve", "--n", "10", "--no-cache"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--prime", str(prime)])
        assert exc.value.code == 2
    if prime >= 2 ** 31:
        with pytest.raises(ValueError):
            IncrementalModEchelon(4, prime)


_B2 = ("hp0", "brute", "--group", "hyperoctahedral", "--n", "2", "--no-cache")
_PRIME_BOUND_D = ("counts", "prime-bound", "--family", "typeD", "--n", "4", "--i", "1")


@pytest.mark.parametrize("argv", [
    ("typed", "solve", "--n", "5", "--n-max", "6", "--no-cache"),
    ("typed", "solve", "--n", "2", "--workers", "0", "--no-cache"),
    _B2 + ("--max-degree", "4", "--workers", "0"),
    _B2 + ("--max-degree", "4", "--max-columns", "-1"),
    _B2 + ("--max-degree", "-1"),
    ("hp0", "aminus", "--n", "2", "--max-degree", "-1"),
    ("typed", "solve", "--n-max", "1", "--no-cache"),
    ("compare", "hp0-hh0", "--n-max", "1", "--no-cache"),
    ("series", "burgers", "--order", "0"),
    ("series", "burgers", "--order", "-1"),
    ("series", "burgers", "--x0", "1/0"),
    ("series", "burgers", "--h0", "1,1/0"),
    _B2 + ("--max-degree", "4", "--certify", "always"),
    _B2 + ("--max-degree", "4", "--generator-mode"),
    ("series", "burgers", "--closed-form"),
    _PRIME_BOUND_D + ("--d", "1,-7"),
    _PRIME_BOUND_D + ("--d", "1,0,5,5,5"),
    _PRIME_BOUND_D + ("--d", "1,x"),
    ("counts", "prime-bound", "--family", "typeA-sym", "--n", "4", "--i", "1", "--d", "1,0"),
    ("strata", "type-d", "--n", "3", "--d", "1,-5,1,1"),
    ("strata", "type-d", "--n", "3", "--d", "1,0,1,1,1"),
    ("strata", "type-d", "--n", "-1", "--d", "1"),
], ids=["n-and-n-max", "solve-workers-0", "brute-workers-0", "max-columns-negative",
        "brute-max-degree-negative", "aminus-max-degree-negative", "solve-n-max-1",
        "compare-n-max-1", "burgers-order-0", "burgers-order-negative",
        "burgers-x0-zero-denominator", "burgers-h0-zero-denominator",
        "retired-certify", "retired-generator-mode", "retired-closed-form",
        "prime-bound-d-negative", "prime-bound-d-surplus", "prime-bound-d-not-int",
        "prime-bound-d-typeA", "strata-d-negative", "strata-d-surplus",
        "strata-n-below-2"])
def test_invalid_option_values_exit_2(argv, capsys):
    # an option value out of range is a flag error: exit 2, nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


_TCJ = ("table", "csv", "json")
_FORMATS = {
    ("typed", "solve", "--n", "4", "--no-cache"): ALL_FORMATS,
    ("typed", "families", "--n", "4"): _TCJ,
    ("hp0", "brute", "--group", "hyperoctahedral", "--n", "2", "--max-degree", "4"): ALL_FORMATS,
    ("hp0", "aminus", "--n", "2", "--max-degree", "4"): _TCJ,
    ("counts", "multipartitions", "--n", "3", "--i", "2"): _TCJ,
    ("counts", "p", "--n", "4", "--i", "2"): _TCJ,
    ("counts", "p-prime", "--n", "8", "--i", "5"): _TCJ,
    ("counts", "bn-hilbert", "--n", "3"): ALL_FORMATS,
    _PRIME_BOUND_D + ("--d", "1,0"): _TCJ,
    ("counts", "hh0", "--family", "typeD", "--n", "6"): _TCJ,
    ("strata", "symmetric-power", "--n", "3", "--dim-y", "4"): _TCJ,
    ("strata", "kleinian", "--n", "2", "--m", "1"): _TCJ,
    ("strata", "type-d", "--n", "3", "--no-cache"): _TCJ,
    ("series", "burgers", "--order", "4"): ("table", "json"),
    ("compare", "hp0-hh0", "--n-max", "4", "--no-cache"): _TCJ,
    ("cache", "info", "--no-cache"): ("table", "json"),
}


@pytest.mark.parametrize("argv, fmt", [(argv, fmt) for argv in _FORMATS for fmt in ALL_FORMATS],
                         ids=[f"{argv[0]}-{argv[1]}-{fmt}" for argv in _FORMATS
                              for fmt in ALL_FORMATS])
def test_format_choices_are_what_the_command_prints(argv, fmt, capsys):
    # --format offers only the formats a command has a branch for: any
    # other exits 2 rather than printing a different format
    if fmt not in _FORMATS[argv]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == 2 and capsys.readouterr().out == ""
        return
    code, out = run_cli(capsys, *argv, "--format", fmt)
    _, table = run_cli(capsys, *argv)
    assert code == 0 and (out == table) == (fmt == "table")
    if fmt == "json":
        assert json.loads(out)["schema"] == "ptl-output/1"
    if fmt == "latex":
        assert out.startswith(("$", "\\begin{tabular}"))


def test_certification_failure_exit_5(monkeypatch, capsys):
    # a column forged into the family-(ii) leads, which the certificate
    # takes to be zero in the reduced system: s4, the one column of dual
    # weight -12 at n = 4, is not, and the exact check stops the solve
    leads = ptl.solver._family_leads
    monkeypatch.setattr(ptl.solver, "_family_leads",
                        lambda n: [*leads(n), (0, 0, 0, 1, 0, 0, 0, 0)] if n == 4 else leads(n))
    ptl.solver._reduced_components.cache_clear()
    try:
        code = main(["typed", "solve", "--n", "4", "--no-cache"])
    finally:
        ptl.solver._reduced_components.cache_clear()
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == ("internal check failed: family-(ii) lead column 0 of (n, w) = "
                            "(4, -12) is not zero in xi_4\n")


def test_assertion_error_exit_5(monkeypatch, capsys):
    def fail(args):
        raise AssertionError("conjugation left the locus")

    monkeypatch.setattr("ptl.cli.cmd_hp0_brute", fail)
    code = main(["hp0", "brute", "--group", "hyperoctahedral", "--n", "2",
                 "--max-degree", "4", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "internal check failed: conjugation left the locus\n"


def test_uncertifiable_lift_exits_5(monkeypatch, capsys):
    # with no reconstruction ever succeeding, the lift of this deficit
    # component passes its Hadamard bound: an internal check, not an answer
    monkeypatch.setattr("ptl.linalg.rational_reconstruct", lambda a, m: None)
    code = main(["typed", "solve", "--n", "8", "--weight", "-20", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("internal check failed:")


def _forge_record(cache_dir, n, edit):
    # rewrite the typed-solve record for n with a consistent checksum
    for path in Path(cache_dir).glob("*.json"):
        record = json.loads(path.read_text())
        if record["key"]["n"] == n:
            payload = dict(record["payload"])
            edit(payload)
            ResultCache(cache_dir).put(record["key"], payload)
            return
    raise AssertionError(f"no record for n={n}")


def _replace_last_vector(payload, *new):
    # swap the record's last [dual weight, [column, entry, ...]] vector (if
    # any) for `new`
    payload["vectors"] = payload["vectors"][:-1] + list(new)


def _duplicate_last_vector(payload):
    # a dependent record
    _replace_last_vector(payload, payload["vectors"][-1], payload["vectors"][-1])


def _drop_last_vector(payload):
    # a record one vector short
    _replace_last_vector(payload)


# forged last vectors of the n = 4 record, whose one vector is s2^2, the
# one s1-free column of dual weight -8: [-8, [0, 1]] (the "triple" cases
# keep the names they had when a vector was a triple)
_FORGED_VECTORS = {
    "column-out-of-range": [-8, [1, 1]],
    "column-negative": [-8, [-1, 1]],
    "entry-scaled": [-8, [0, 2]],
    "entry-negated": [-8, [0, -1]],
    "parent-triple": [-8, 1, [0, 1]],  # [dual weight, denominator, [column, numerator, ...]]
    "numerator-zero": [-8, [0, 0]],
    "numerator-float": [-8, [0, 1.0]],
    "numerator-string": [-8, [0, "1"]],
    "numerator-true": [-8, [0, True]],
    "column-true": [-8, [True, 1]],
    "empty-vector": [-8, []],
    "weight-not-a-component": [4, [0, 1]],
    "triple-too-short": [-8],
    "triple-too-long": [-8, [0, 1], 0],
    "pairs-odd": [-8, [0]],
    "pairs-not-a-list": [-8, 0],
}


def _forge_last_vector(name):
    def edit(payload):
        assert payload == {"vectors": [[-8, [0, 1]]]}
        _replace_last_vector(payload, _FORGED_VECTORS[name])
    return edit


_FORGERIES = {edit.__name__: edit for edit in (_duplicate_last_vector, _drop_last_vector)}
_FORGERIES.update({name: _forge_last_vector(name) for name in _FORGED_VECTORS})
_FORGERIES["vectors-not-a-list"] = lambda payload: payload.update(vectors={})
# the counts and series follow from the vectors, and n is in the key: a
# payload holds the vectors only, even when the added field is right
_FORGERIES["dual-weights-added"] = lambda payload: payload.update(
    dual_weights={"-8": 1, "-4": 1, "0": 1})
_FORGERIES["display-series-added"] = lambda payload: payload.update(
    display_series="1 + t + t^2")
_FORGERIES["n-added"] = lambda payload: payload.update(n=4)
_FORGERIES["key-added"] = lambda payload: payload.update(note="")


@pytest.mark.parametrize("edit", list(_FORGERIES.values()), ids=list(_FORGERIES))
def test_cache_reverifies_counts_and_series(tmp_path, capsys, edit):
    args = ("typed", "solve", "--n", "4", "--format", "json", "--cache-dir", str(tmp_path))
    code, _ = run_cli(capsys, *args)
    assert code == 0
    _forge_record(tmp_path, 4, edit)
    code, _ = run_cli(capsys, *args)
    assert code == 4
    code, _ = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 4


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_unlucky_prime_cache_reverifies(tmp_path, capsys, prime):
    # at these primes ncols - rank_p overstates some kernels; the honest
    # records must still re-verify, on load and under `cache verify`
    args = ("typed", "solve", "--n-max", "9", "--prime", str(prime),
            "--cache-dir", str(tmp_path))
    code, cold = run_cli(capsys, *args)
    assert code == 0
    code, warm = run_cli(capsys, *args)
    assert code == 0 and warm == cold
    code, out = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0 and out == "8 cache entries verified\n"


def test_workers_reverify_cache(tmp_path, capsys):
    args = ("typed", "solve", "--n-max", "5", "--format", "json", "--cache-dir", str(tmp_path))
    code, cold = run_cli(capsys, *args)
    assert code == 0
    code, warm = run_cli(capsys, *args, "--workers", "2")
    assert code == 0 and warm == cold
    _forge_record(tmp_path, 3, lambda payload: _replace_last_vector(payload, [-8, [0, 1]]))
    code, _ = run_cli(capsys, *args, "--workers", "2")
    assert code == 4


_ENGINE_COMMANDS = [("hp0", "brute", "--group", group, "--n", "3", "--max-degree", "10")
                    for group in ("hyperoctahedral", "demihyperoctahedral", "symmetric-full")] + [
    ("hp0", "aminus", "--n", "4", "--max-degree", "8"),
    ("hp0", "brute", "--group", "symmetric-reflection", "--n", "4",
     "--subgroup", "last-point-stabilizer", "--max-degree", "6"),
    ("hp0", "brute", "--group", "symmetric-reflection", "--n", "3", "--max-degree", "8"),
    ("hp0", "brute", "--group", "symmetric-full", "--n", "2", "--subgroup", "ambient",
     "--max-degree", "6"),
]
_PRIMES = st.sampled_from([2, 3, 5, 65537, 1048573, PRIME_LIMIT - 1]) | st.integers(
    2, PRIME_LIMIT - 1).map(lambda x: next(p for p in range(x, 1, -1) if is_prime(p)))


def _captured_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, out.getvalue()


_default_prime_run = functools.cache(_captured_main)


@seed(20110607)
@settings(max_examples=100, deadline=None, database=None)
@given(command=st.sampled_from(_ENGINE_COMMANDS), prime=_PRIMES, workers=st.sampled_from([1, 2]))
def test_folded_cells_any_prime_and_workers(command, prime, workers):
    # the folded B_3/D_3/S_3 cells, the A_-/A_+ check, and the reflection,
    # relative and ambient cells, which bracket whole polynomials, print the
    # default prime's output at every prime below 2^31 and with a process pool
    argv = command + ("--prime", str(prime))
    if command[1] == "brute":
        argv += ("--workers", str(workers))
    code, out = _captured_main(argv)
    assert code == 0
    assert (code, out) == _default_prime_run(command)


def _change_one_numerator(cache_dir, index):
    """Step one stored entry by 1, keeping the record well formed and its
    checksum right.  The certificate re-run gives back only the stored
    basis: a unit vector e_z of a family-(ii) lead becomes 2 e_z, and a
    lifted vector v, the primitive multiple of the one that is 1 at its own
    non-lead column f and 0 at the other non-lead columns, becomes
    v +- e_c, which leaves the kernel unless column c is zero; then c is f,
    v is e_f, and 2 e_f is not primitive."""
    spots = []
    for path in sorted(Path(cache_dir).glob("*.json")):
        record = json.loads(path.read_text())
        for w, flat in record["payload"]["vectors"]:
            spots += [(record, flat, i + 1) for i in range(0, len(flat), 2)]
    record, flat, i = spots[index % len(spots)]
    flat[i] += 1 if flat[i] != -1 else -1
    ResultCache(cache_dir).put(record["key"], record["payload"])


@seed(20110607)
@settings(max_examples=100, deadline=None, database=None)
@given(n_max=st.integers(2, 12), prime=_PRIMES, workers=st.sampled_from([1, 2]),
       state=st.sampled_from(["none", "cold", "warm", "changed"]), spot=st.integers(0, 999))
def test_typed_solve_any_prime_workers_and_cache_state(n_max, prime, workers, state, spot):
    # the stored table's rows n <= n_max at every prime below 2^31, with or
    # without a process pool, and without, into or from a cache; a record
    # with one entry changed is cache corruption
    if state == "changed":
        n_max = max(n_max, 4)  # the n = 2, 3 records hold no vector
    lines = (Path(__file__).parent / "data" / "typed_solve_n34.tex").read_text().splitlines()
    table = "\n".join(lines[:n_max + 1] + lines[-1:]) + "\n"
    argv = ["typed", "solve", "--n-max", str(n_max), "--prime", str(prime),
            "--workers", str(workers), "--format", "latex"]
    with tempfile.TemporaryDirectory() as cache_dir:
        argv += ["--no-cache"] if state == "none" else ["--cache-dir", cache_dir]
        if state in ("warm", "changed"):
            assert _captured_main(argv) == (0, table)
        if state == "changed":
            _change_one_numerator(cache_dir, spot)
            assert _captured_main(argv) == (4, "")
        else:
            assert _captured_main(argv) == (0, table)


@pytest.mark.slow
@pytest.mark.parametrize("group", ["hyperoctahedral", "demihyperoctahedral"])
def test_hp0_brute_degree_16_reference(group, capsys):
    # the n = 4 tables through degree 16, byte for byte as stored, and the
    # B_4 one against the partition statistic (one class every 4 degrees)
    code, out = run_cli(capsys, "hp0", "brute", "--group", group, "--n", "4",
                        "--max-degree", "16", "--no-cache")
    assert code == 0
    stored = Path(__file__).parent / "data" / f"hp0_brute_{group}_n4_d16.txt"
    assert out == stored.read_text()
    if group == "hyperoctahedral":
        dims = {int(d): int(v) for d, v in (line.split() for line in out.splitlines()[2:])}
        assert {d // 4: v for d, v in dims.items() if v} == \
            {e: c for e, c in bn_hilbert(4).items() if 4 * e <= 16}
        assert all(d % 4 == 0 for d, v in dims.items() if v)


def test_public_names_resolve():
    assert len(set(ptl.__all__)) == len(ptl.__all__)
    assert [name for name in ptl.__all__ if not hasattr(ptl, name)] == []


def test_package_holds_no_code_only_tests_reach():
    # every top-level function and class of the package is named, as a name
    # or an attribute, and every method and property of its classes as an
    # attribute, by package code outside its own definition; the
    # interpreter calls `__getattr__` and the other dunder methods
    trees = [ast.parse(path.read_text()) for path in sorted(Path(ptl.__file__).parent.glob("*.py"))]

    def refs(node, kinds):
        return Counter(getattr(n, "id", None) or n.attr for n in ast.walk(node)
                       if isinstance(n, kinds))

    top = [stmt for tree in trees for stmt in tree.body
           if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    methods = [stmt for cls in top if isinstance(cls, ast.ClassDef) for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef)]
    unused = []
    for defs, kinds in ((top, (ast.Name, ast.Attribute)), (methods, ast.Attribute)):
        everywhere = sum((refs(tree, kinds) for tree in trees), Counter())
        unused += [d.name for d in defs if not (d.name.startswith("__") and d.name.endswith("__"))
                   and everywhere[d.name] == refs(d, kinds)[d.name]]
    assert unused == []


_TYPED_SOLVE_MODULES = {"ptl", "ptl.cli", "ptl.cache", "ptl.linalg", "ptl.solver",
                        "ptl.partitions", "ptl.tables", "json"}


@pytest.mark.parametrize("argv, modules", [
    (["hp0", "brute", "--group", "hyperoctahedral", "--n", "2", "--max-degree", "4"],
     {"ptl", "ptl.cli", "ptl.linalg", "ptl.engine", "ptl.poisson", "ptl.tables", "ptl.weyl"}),
    (["hp0", "aminus", "--n", "4", "--max-degree", "8", "--prime", "2"],
     {"ptl", "ptl.cli", "ptl.linalg", "ptl.engine", "ptl.poisson", "ptl.tables", "ptl.weyl"}),
    (["typed", "solve", "--n", "8", "--no-cache"], _TYPED_SOLVE_MODULES),
    (["typed", "solve", "--n-max", "12", "--cache-dir"], _TYPED_SOLVE_MODULES),
    (["series", "burgers", "--order", "5", "--h0", "0,1,1", "--x0", "3/4"],
     {"ptl", "ptl.cli", "ptl.burgers", "fractions", "decimal"}),
    (["counts", "p", "--n", "4", "--i", "2"], {"ptl", "ptl.cli", "ptl.partitions", "ptl.tables"}),
    (["strata", "kleinian", "--n", "2", "--m", "1"],
     {"ptl", "ptl.cli", "ptl.partitions", "ptl.strata", "ptl.tables"}),
    (["cache", "info", "--no-cache"], {"json", "ptl", "ptl.cache", "ptl.cli"}),
], ids=["hp0-brute", "hp0-aminus", "typed-solve", "typed-solve-cached", "series-burgers",
        "counts-p", "strata-kleinian", "cache-info"])
def test_each_route_loads_only_its_modules(tmp_path, argv, modules):
    # `ptl` resolves its public names on first access, and each command
    # imports its own route: typed solve never loads the engine, and
    # neither route loads a module it does not run.  The records are named
    # tuples and plain classes, so neither loads `dataclasses` (nor, through
    # it, `inspect`); of the two, only the cache loads `json`.  Kernel
    # vectors are integers from the lift to the cache record, so no route
    # loads `fractions` (nor, through it, `decimal`), though every command
    # here lifts a nullspace (aminus at --prime 2), and whether a record is
    # written or re-verified: a cached run is probed cold, then warm.  Only
    # `series burgers` computes in fractions.  A run on one worker maps in
    # process, so it loads neither `multiprocessing` nor `concurrent`.
    # Counted from what ptl loads, whatever the interpreter's start-up
    # loaded before
    if argv[-1] == "--cache-dir":
        argv = argv + [str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(ptl.__file__).resolve().parents[1]))
    probe = ("import sys; before = set(sys.modules); import ptl.cli; "
             "code = ptl.cli.main(sys.argv[1:]); "
             "print(code, *sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'ptl'"
             " or m in ('dataclasses', 'inspect', 'json', 'fractions', 'decimal',"
             " 'multiprocessing', 'concurrent')))")
    for _run in range(2 if "--cache-dir" in argv else 1):
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                             capture_output=True, text=True).stdout
        code, *loaded = out.splitlines()[-1].split()
        assert (code, set(loaded)) == ("0", modules)
    if "--cache-dir" in argv:
        assert len(list(tmp_path.glob("*.json"))) == 11


@pytest.mark.parametrize("argv", [
    ("multipartitions", "--n", "-1", "--i", "0"),
    ("multipartitions", "--n", "3", "--i", "-2"),
    ("p", "--n", "-1", "--i", "0"),
    ("p", "--n", "3", "--i", "-1"),
    ("p-prime", "--n", "-1", "--i", "0"),
    ("p-prime", "--n", "3", "--i", "-1"),
    ("prime-bound", "--family", "typeA-sym", "--n", "4", "--i", "-1"),
    ("prime-bound", "--family", "typeA-quot", "--n", "-4", "--i", "1"),
])
def test_counts_reject_negative_n_and_i(argv, capsys):
    # a mistyped sign is a flag error, never a printed count of 0
    with pytest.raises(SystemExit) as exc:
        main(["counts", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "is below 0" in err


@pytest.mark.parametrize("record, hashable", [
    (GroupSpec("demihyperoctahedral", 4), True),
    (darboux_structure(3), True),
    (reflection_structure(4), True),
    (BracketSpanProblem(GroupSpec("symmetric-reflection", 4), "last-point-stabilizer"), True),
    (leaves_type_d(4, (1, 0, 1, 1, 2))[0], True),
    (GradedDimensionTable({0: 1, 4: 2}, {"group": "hyperoctahedral", "n": 4}), False),
    (kernel_basis(4), False),
], ids=["GroupSpec", "PoissonStructure-darboux", "PoissonStructure-reflection",
        "BracketSpanProblem", "LeafDescriptor", "GradedDimensionTable", "SolutionBasis"])
def test_records_round_trip_through_pickle(record, hashable):
    # a process pool pickles its tasks: every record unpickles to an equal
    # one, with the same fields, through its own validation; the hashable
    # ones (cache keys among them) are immutable
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)
    if hashable:
        assert hash(copy) == hash(record)
        with pytest.raises(AttributeError):
            setattr(copy, copy._fields[0], None)


def test_pooled_brute_run_ends():
    # --workers 2 pickles each cell's task, a BracketSpanProblem among its
    # arguments, to the pool: a task that a worker cannot unpickle leaves
    # the pool waiting, so the run is bounded by a timeout
    env = dict(os.environ, PYTHONPATH=str(Path(ptl.__file__).resolve().parents[1]))
    argv = ["hp0", "brute", "--group", "hyperoctahedral", "--n", "2", "--max-degree", "6"]
    pooled = subprocess.run([sys.executable, "-m", "ptl.cli", *argv, "--workers", "2"],
                            env=env, capture_output=True, text=True, timeout=120)
    serial = subprocess.run([sys.executable, "-m", "ptl.cli", *argv],
                            env=env, capture_output=True, text=True, timeout=120)
    assert (pooled.returncode, pooled.stdout, pooled.stderr) == (0, serial.stdout, "")


def test_stdlib_only():
    # ptl has no runtime dependency, and the CLI imports no numpy; neither
    # `import ptl.cli` nor `hp0 brute`, which takes no cache, loads the
    # cache or hashlib
    env = dict(os.environ, PYTHONPATH=str(Path(ptl.__file__).resolve().parents[1]))
    probe = ("import sys, ptl.cli\n"
             "loaded = lambda: [m in sys.modules for m in ('numpy', 'ptl.cache', 'hashlib')]\n"
             "before = loaded()\n"
             "ptl.cli.main(['hp0', 'brute', '--group', 'hyperoctahedral', '--n', '2', "
             "'--max-degree', '4'])\n"
             "print(before, loaded())")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[False, False, False] [False, False, False]"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"].get("dependencies", []) == []
