"""`ptl`'s help texts and flag errors, byte for byte.

`main` builds only the parser branch of the command it runs; what it prints
must read as if the whole parser were built.  Each case's golden file in
data/cli_help/ holds stdout for exit 0 (a --help) and stderr for exit 2,
and the other stream must be empty.  Help is formatted for 80 columns.
"""

from pathlib import Path

import pytest

from ptl.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_help"

_LEAVES = (
    ("typed", "solve"), ("typed", "families"), ("hp0", "brute"), ("hp0", "aminus"),
    *(("counts", s) for s in ("multipartitions", "p", "p-prime", "bn-hilbert",
                              "prime-bound", "hh0")),
    *(("strata", v) for v in ("symmetric-power", "kleinian", "type-d")),
    ("series", "burgers"), ("compare", "hp0-hh0"), ("cache",),
)
_GROUPS = ((), ("typed",), ("hp0",), ("counts",), ("strata",), ("series",), ("compare",))

# (golden file name, argv, exit code)
CASES = [("help_" + "_".join(("ptl",) + words), words + ("--help",), 0)
         for words in _GROUPS + _LEAVES] + [
    ("error_no_command", (), 2),
    ("error_unknown_command", ("bogus",), 2),
    ("error_unknown_subcommand", ("hp0", "bogus"), 2),
    ("error_missing_n", ("hp0", "brute", "--group", "hyperoctahedral", "--max-degree", "4"), 2),
    ("error_bad_prime", ("typed", "solve", "--n", "4", "--prime", "4"), 2),
    ("error_latex_counts_p", ("counts", "p", "--n", "4", "--i", "1", "--format", "latex"), 2),
    ("error_option_before_command", ("--bogus", "counts", "p", "--n", "4", "--i", "1"), 2),
    ("error_d_mismatch", ("strata", "type-d", "--n", "3", "--d", "1,0"), 2),
    ("error_strata_n_below_2", ("strata", "type-d", "--n", "-1", "--d", "1"), 2),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_help_and_flag_errors_match_golden(name, argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    golden = (GOLDEN / f"{name}.txt").read_text()
    assert (exc.value.code, out, err) == ((code, golden, "") if code == 0 else (code, "", golden))
