import json
from pathlib import Path

import pytest

from ptl.cache import ResultCache, code_version
from ptl.cli import _display_fields, main
from ptl.context import svar_context
from ptl.engine import BracketSpanProblem, hp0_graded_dims
from ptl.linalg import DEFAULT_PRIME, IncrementalModEchelon
from ptl.partitions import bn_hilbert
from ptl.poly import parse_polynomial
from ptl.weyl import GroupSpec
from ptl.solver import KernelCertificationError


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
    code, out = run_cli(capsys, "compare", "hp0-hh0", "--family", "D",
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
           "certify": "fast", "generator_mode": False, "code": code_version()}
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
    run_cli(capsys, "typed", "solve", "--n", "2", "--cache-dir", str(tmp_path))
    code, out = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 0 and "1 cache entries" in out
    record = next(tmp_path.glob("*.json"))
    record.write_text(record.read_text().replace("s1^2", "s1^3"))
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
    payload["vectors"] = ["s2"]  # not in the kernel
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


@pytest.mark.parametrize("argv", [
    ("typed", "solve", "--n", "5", "--n-max", "6", "--no-cache"),
    ("typed", "solve", "--n", "2", "--workers", "0", "--no-cache"),
    _B2 + ("--max-degree", "4", "--workers", "0"),
    _B2 + ("--max-degree", "4", "--max-columns", "-1"),
    _B2 + ("--max-degree", "-1"),
    ("hp0", "aminus", "--n", "2", "--max-degree", "-1"),
], ids=["n-and-n-max", "solve-workers-0", "brute-workers-0", "max-columns-negative",
        "brute-max-degree-negative", "aminus-max-degree-negative"])
def test_invalid_option_values_exit_2(argv, capsys):
    # an option value out of range is a flag error: exit 2, nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_certification_failure_exit_5(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise KernelCertificationError("family span exceeds the modular bound")

    monkeypatch.setattr("ptl.cli.kernel_basis", fail)
    code = main(["typed", "solve", "--n", "3", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "certification failed: family span exceeds the modular bound\n"


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


def _inflate_dual_weights(payload):
    w = next(iter(payload["dual_weights"]))
    payload["dual_weights"] = dict(payload["dual_weights"], **{w: payload["dual_weights"][w] + 1})


def _retitle_display(payload):
    payload["display_series"] = "1 + t"


def _duplicate_last_vector(payload):
    # a dependent record whose counts and series are all consistent
    ctx = svar_context(payload["n"])
    last = payload["vectors"][-1]
    w = str(ctx.weight_of(next(iter(parse_polynomial(last, ctx).terms))))
    dual = dict(payload["dual_weights"], **{w: payload["dual_weights"][w] + 1})
    payload.update(vectors=payload["vectors"] + [last], dual_weights=dual,
                   **_display_fields(dual))


def _drop_last_vector(payload):
    # a record one vector short whose counts and series are all consistent
    ctx = svar_context(payload["n"])
    last = payload["vectors"][-1]
    w = str(ctx.weight_of(next(iter(parse_polynomial(last, ctx).terms))))
    dual = dict(payload["dual_weights"], **{w: payload["dual_weights"][w] - 1})
    dual = {k: v for k, v in dual.items() if v}
    payload.update(vectors=payload["vectors"][:-1], dual_weights=dual, **_display_fields(dual))


@pytest.mark.parametrize("edit", [_inflate_dual_weights, _retitle_display,
                                  _duplicate_last_vector, _drop_last_vector])
def test_cache_reverifies_counts_and_series(tmp_path, capsys, edit):
    args = ("typed", "solve", "--n", "4", "--format", "json", "--cache-dir", str(tmp_path))
    code, _ = run_cli(capsys, *args)
    assert code == 0
    _forge_record(tmp_path, 4, edit)
    code, _ = run_cli(capsys, *args)
    assert code == 4
    code, _ = run_cli(capsys, "cache", "verify", "--cache-dir", str(tmp_path))
    assert code == 4


@pytest.mark.parametrize("prime", [3, 5])
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
    _forge_record(tmp_path, 3, lambda payload: payload.update(vectors=["s2"]))
    code, _ = run_cli(capsys, *args, "--workers", "2")
    assert code == 4


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
