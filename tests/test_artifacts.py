import os
import stat

import pytest

from zhcorrect import UsageError
from zhcorrect.artifacts import write_artifact


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "a.txt"
    write_artifact(str(path), "一\n")
    write_artifact(str(path), "二\n")
    assert path.read_bytes() == "二\n".encode("utf-8")
    assert _names(tmp_path) == ["a.txt"]


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_artifact(str(path), "new\ud800")  # a lone surrogate has no UTF-8 form
    assert path.read_text(encoding="utf-8") == "old\n"
    assert _names(tmp_path) == ["a.txt"]


def test_unwritable_targets_are_usage_errors(tmp_path):
    directory = tmp_path / "adir"
    directory.mkdir()
    with pytest.raises(UsageError, match="cannot write"):
        write_artifact(str(directory), "x")
    with pytest.raises(UsageError, match="cannot write"):
        write_artifact(str(tmp_path / "nodir" / "x"), "x")
    assert _names(tmp_path) == ["adir"]
    assert _names(directory) == []


def test_a_target_that_may_not_be_written_keeps_its_bytes(tmp_path, monkeypatch):
    # os.access stands in for a read-only file, which chmod cannot make for root.
    path = tmp_path / "a.txt"
    path.write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(os, "access", lambda target, mode: False)
    with pytest.raises(UsageError) as err:
        write_artifact(str(path), "new\n")
    assert str(err.value).startswith(f"cannot write {path}: ")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert _names(tmp_path) == ["a.txt"]


def test_symlink_target_is_replaced_and_the_link_kept(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    write_artifact(str(link), "new\n")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == "new\n"
    assert _names(tmp_path) == ["link.txt", "real.txt"]


def test_replaced_file_keeps_its_mode(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n", encoding="utf-8")
    path.chmod(0o640)
    write_artifact(str(path), "new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text(encoding="utf-8") == "new\n"


def test_non_regular_target_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_artifact(str(fifo), "北京\n")
        assert os.read(reader, 100) == "北京\n".encode("utf-8")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert _names(tmp_path) == ["pipe"]
    write_artifact(os.devnull, "x\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
