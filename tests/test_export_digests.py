"""The ``--compare`` gate of ``scripts/export_digests.py`` on hand-written
digest files: a base output, a head output, the base's manifest and the
manifest, each a list of ``digest exit-code argv`` lines."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "export_digests.py"
_spec = importlib.util.spec_from_file_location("export_digests", _SCRIPT)
export_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(export_digests)

CALLS = ["0 run --example fig1", "0 run --example fig2", "1 iterate --input tiny.json"]


def _write(path, digests, calls=CALLS):
    path.write_text("".join(f"{d} {c}\n" for d, c in zip(digests, calls)))
    return str(path)


def _compare(tmp_path, base, head, old, new, new_calls=CALLS, old_calls=CALLS):
    """compare() on base and head outputs over ``new_calls``, the base's
    manifest ``old`` over ``old_calls`` (None: no file) and the manifest ``new``."""
    old_path = str(tmp_path / "missing.txt") if old is None else _write(tmp_path / "old.txt", old, old_calls)
    return export_digests.compare(_write(tmp_path / "base.txt", base, new_calls),
                                  _write(tmp_path / "head.txt", head, new_calls),
                                  old_path, _write(tmp_path / "new.txt", new, new_calls))


def test_nothing_moved_passes(tmp_path):
    assert _compare(tmp_path, "abc", "abc", "xyz", "xyz") == []


def test_declared_move_passes(tmp_path):
    # the manifest changed line 2, and call 2 moved
    assert _compare(tmp_path, "abc", "aBc", "xyz", "xYz") == []


def test_appended_call_passes_whether_or_not_it_moved(tmp_path):
    for head in ("abc", "abC"):
        assert _compare(tmp_path, "abc", head, "xy", "xyz", old_calls=CALLS[:2]) == []


def test_missing_base_manifest_reads_as_empty(tmp_path):
    assert _compare(tmp_path, "abc", "aBC", None, "xyz") == []


@pytest.mark.parametrize("base, head, old, new, message", [
    ("abc", "aBc", "xyz", "xyz", "call 2: moved, not declared in the manifest"),
    ("abc", "abc", "xyz", "xYz", "call 2: declared in the manifest, did not move"),
])
def test_moves_must_match_the_declared_lines(tmp_path, base, head, old, new, message):
    assert _compare(tmp_path, base, head, old, new) == [message]


def test_exit_code_or_argv_off_the_manifest_fails(tmp_path):
    head_calls = ["0 run --example fig1", "1 run --example fig2", "1 iterate --input huge.json"]
    wrong = export_digests.compare(_write(tmp_path / "base.txt", "abc", head_calls),
                                   _write(tmp_path / "head.txt", "abc", head_calls),
                                   _write(tmp_path / "old.txt", "xyz"),
                                   _write(tmp_path / "new.txt", "xyz"))
    assert [w.split(":")[0] for w in wrong] == ["call 2", "call 3"]
    assert all("the manifest has" in w for w in wrong)


def test_missing_call_fails(tmp_path):
    wrong = export_digests.compare(_write(tmp_path / "base.txt", "ab", CALLS[:2]),
                                   _write(tmp_path / "head.txt", "ab", CALLS[:2]),
                                   _write(tmp_path / "old.txt", "xyz"),
                                   _write(tmp_path / "new.txt", "xyz"))
    assert wrong == ["2 calls, the manifest has 3"]


def test_compare_runs_without_framegs_on_the_path(tmp_path):
    # --compare reads only text files, so it must not need PYTHONPATH=src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(_SCRIPT), "--compare", *[str(export_digests.MANIFEST)] * 3],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "every moved export is declared in the manifest\n"
