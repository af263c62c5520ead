"""`ptl`'s command outputs, byte for byte.

Each case runs one command in one format it prints.  Its golden file in
data/cli_output/ holds stdout, NAME.txt, and where the command writes to
stderr, NAME.err.txt; without one, stderr must be empty.  The cache cases
run on a fresh cache directory that `typed solve --n-max 4` has filled,
whose path reads as CACHE in the goldens.
"""

from pathlib import Path

import pytest

from ptl.cli import ALL_FORMATS, ENV_CACHE_DIR, main

GOLDEN = Path(__file__).parent / "data" / "cli_output"

CACHE = "CACHE"
_TCJ = ("table", "csv", "json")
_TJ = ("table", "json")
_B2 = ("hp0", "brute", "--group", "hyperoctahedral", "--n", "2")
_B2_GUARDRAIL = _B2 + ("--max-degree", "8", "--no-cache", "--max-columns")
_PRIME_BOUND = ("counts", "prime-bound", "--family")

# (case name, argv, the formats it prints, exit code)
_COMMANDS = [
    ("typed_solve_n4", ("typed", "solve", "--n", "4", "--no-cache"), ALL_FORMATS, 0),
    ("typed_solve_nmax6", ("typed", "solve", "--n-max", "6", "--no-cache"), ALL_FORMATS, 0),
    ("typed_solve_nmax6_weight", ("typed", "solve", "--n-max", "6", "--weight", "-8",
                                  "--no-cache"), ALL_FORMATS, 0),
    ("typed_families_n4", ("typed", "families", "--n", "4"), _TCJ, 0),
    ("typed_families_n6", ("typed", "families", "--n", "6"), _TCJ, 0),
    ("hp0_brute_b2", _B2 + ("--max-degree", "4"), ALL_FORMATS, 0),
    ("hp0_brute_b2_columns5", _B2_GUARDRAIL + ("5",), ALL_FORMATS, 3),
    ("hp0_brute_b2_columns0", _B2_GUARDRAIL + ("0",), ALL_FORMATS, 3),
    ("hp0_brute_b3", ("hp0", "brute", "--group", "hyperoctahedral", "--n", "3",
                      "--max-degree", "12"), ALL_FORMATS, 0),
    ("hp0_brute_s3", ("hp0", "brute", "--group", "symmetric-full", "--n", "3",
                      "--max-degree", "6"), ALL_FORMATS, 0),
    ("hp0_brute_s3_stabilizer", ("hp0", "brute", "--group", "symmetric-reflection", "--n", "3",
                                 "--subgroup", "last-point-stabilizer", "--max-degree", "6"),
     ALL_FORMATS, 0),
    ("hp0_aminus_n2", ("hp0", "aminus", "--n", "2", "--max-degree", "4"), _TCJ, 0),
    ("hp0_aminus_n4", ("hp0", "aminus", "--n", "4", "--max-degree", "8"), _TCJ, 0),
    ("counts_multipartitions", ("counts", "multipartitions", "--n", "3", "--i", "2"), _TCJ, 0),
    ("counts_p", ("counts", "p", "--n", "4", "--i", "2"), _TCJ, 0),
    ("counts_p_prime", ("counts", "p-prime", "--n", "8", "--i", "5"), _TCJ, 0),
    ("counts_bn_hilbert", ("counts", "bn-hilbert", "--n", "3"), ALL_FORMATS, 0),
    ("counts_prime_bound_typeD", _PRIME_BOUND + ("typeD", "--n", "4", "--i", "1",
                                                 "--d", "1,0"), _TCJ, 0),
    ("counts_prime_bound_typeA_sym", _PRIME_BOUND + ("typeA-sym", "--n", "6", "--i", "2"),
     _TCJ, 0),
    ("counts_prime_bound_typeA_quot", _PRIME_BOUND + ("typeA-quot", "--n", "6", "--i", "2"),
     _TCJ, 0),
    ("counts_hh0", ("counts", "hh0", "--family", "typeD", "--n", "6"), _TCJ, 0),
    ("strata_symmetric_power", ("strata", "symmetric-power", "--n", "3", "--dim-y", "4"),
     _TCJ, 0),
    ("strata_kleinian", ("strata", "kleinian", "--n", "2", "--m", "1"), _TCJ, 0),
    ("strata_type_d", ("strata", "type-d", "--n", "3", "--no-cache"), _TCJ, 0),
    ("strata_type_d_given_d", ("strata", "type-d", "--n", "3", "--d", "1,0,1,1"), _TCJ, 0),
    ("series_burgers", ("series", "burgers", "--order", "4"), _TJ, 0),
    ("series_burgers_h0", ("series", "burgers", "--order", "5", "--h0", "0,1,1",
                           "--x0", "3/4"), _TJ, 0),
    ("series_burgers_not_a_square", ("series", "burgers", "--h0", "0,2"), _TJ, 2),
    ("compare_nmax4", ("compare", "hp0-hh0", "--n-max", "4", "--no-cache"), _TCJ, 0),
    ("compare_nmax10", ("compare", "hp0-hh0", "--n-max", "10", "--no-cache"), _TCJ, 0),
    ("cache_info_no_cache", ("cache", "info", "--no-cache"), _TJ, 0),
    ("cache_info", ("cache", "info", "--cache-dir", CACHE), _TJ, 0),
    ("cache_verify", ("cache", "verify", "--cache-dir", CACHE), _TJ, 0),
    ("cache_clear", ("cache", "clear", "--cache-dir", CACHE), _TJ, 0),
]

# (golden file name, argv, exit code)
CASES = [(f"{name}_{fmt}", argv + ("--format", fmt), code)
         for name, argv, formats, code in _COMMANDS for fmt in formats]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, code, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    if CACHE in argv:
        main(["typed", "solve", "--n-max", "4", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
    assert main([str(tmp_path) if word == CACHE else word for word in argv]) == code
    out, err = (text.replace(str(tmp_path), CACHE) for text in capsys.readouterr())
    assert out == (GOLDEN / f"{name}.txt").read_text()
    err_golden = GOLDEN / f"{name}.err.txt"
    assert err == (err_golden.read_text() if err_golden.exists() else "")
