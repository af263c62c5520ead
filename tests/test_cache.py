"""The cache's SHA-256: CPython's built-in module, or hashlib without it,
gives the digests hashlib gives, so record names, checksums and
`code_version()` do not depend on which one a build has."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptl
from ptl import cache
from ptl.cache import ResultCache
from ptl.cli import main


@pytest.mark.parametrize("text", ["", "abc", '{"kind":"typed","n":4}', "ξ_k ∈ T*C^n/D_n",
                                  "x" * 200_000])
def test_digest_is_hashlib_sha256(text):
    assert cache._digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_code_version_hashes_every_package_source_in_name_order():
    # every *.py under the package, each file's name then its bytes; a
    # subpackage of sources would sort by path and fail here first
    h = hashlib.sha256()
    for path in sorted(Path(cache.__file__).parent.rglob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert cache.code_version() == h.hexdigest()[:16]


def test_record_name_checksum_and_bytes(tmp_path):
    key, payload = {"kind": "typed", "n": 4}, {"vectors": [[-4, [0, 1, 2, -3]]]}
    ResultCache(tmp_path).put(key, payload)
    [path] = tmp_path.iterdir()
    checksum = hashlib.sha256(b'{"vectors":[[-4,[0,1,2,-3]]]}').hexdigest()
    assert path.name == hashlib.sha256(b'{"kind":"typed","n":4}').hexdigest() + ".json"
    assert path.read_text() == ('{"checksum":"%s","key":{"kind":"typed","n":4},'
                                '"payload":{"vectors":[[-4,[0,1,2,-3]]]}}' % checksum)
    # created exclusively with mode 0600, as tempfile.mkstemp does
    assert path.stat().st_mode & 0o777 == 0o600
    assert ResultCache(tmp_path).get(key) == payload


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        ResultCache(tmp_path).put({"n": 1}, {})
    assert list(tmp_path.iterdir()) == []


def test_hashlib_fallback_gives_the_same_digests_and_records(tmp_path, capsys):
    # a build without CPython's own SHA-256 modules falls back to hashlib; the
    # records it writes re-verify under the built-in hash, and back
    src = str(Path(ptl.__file__).resolve().parents[1])
    probe = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "import hashlib, ptl.cli; from ptl import cache\n"
             "assert cache.sha256 is hashlib.sha256\n"
             "codes = [ptl.cli.main(argv.split() + [sys.argv[1]]) for argv in\n"
             "         ('typed solve --n-max 6 --cache-dir', 'cache verify --cache-dir')]\n"
             "print(codes, cache._digest('abc'), cache.code_version())\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(tmp_path)], check=True,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1] == f"[0, 0] {cache._digest('abc')} {cache.code_version()}"
    assert out.splitlines()[-2] == "5 cache entries verified"
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "5 cache entries verified\n"
