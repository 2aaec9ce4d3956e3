import os

import pytest

from xbench import proctree


def _stat(pid, ppid, utime, stime, comm="python3"):
    # fields after "(comm)": state ppid pgrp session tty tpgid flags
    # minflt cminflt majflt cmajflt utime stime ...
    rest = ["S", str(ppid), "1", "1", "0", "-1", "0", "0", "0", "0", "0",
            str(utime), str(stime), "0", "0"]
    return f"{pid} ({comm}) " + " ".join(rest) + "\n"


@pytest.fixture
def fake_proc(tmp_path):
    def add(pid, ppid, utime=0, stime=0, hwm_kb=None, comm="python3"):
        d = tmp_path / str(pid)
        d.mkdir()
        (d / "stat").write_text(_stat(pid, ppid, utime, stime, comm))
        if hwm_kb is not None:
            (d / "status").write_text(f"Name:\t{comm}\nVmHWM:\t{hwm_kb} kB\n")
    (tmp_path / "self").mkdir()
    return tmp_path, add


def test_tree_follows_descendants_only(fake_proc):
    root, add = fake_proc
    add(10, 1)
    add(11, 10)
    add(12, 11, comm="odd ) name (with parens")
    add(20, 1)
    assert proctree.tree_pids([10], str(root)) == {10, 11, 12}


def test_pid_exiting_mid_read_is_skipped(fake_proc, monkeypatch):
    root, add = fake_proc
    tick = os.sysconf("SC_CLK_TCK")
    add(10, 1, utime=tick, stime=tick, hwm_kb=2048)
    add(11, 10, utime=3 * tick, stime=0, hwm_kb=1024)
    real_listdir = os.listdir

    def listdir_then_exit(path):
        names = real_listdir(path)
        # pid 12 was listed, then exited before its stat was opened
        return names + ["12"]

    monkeypatch.setattr(proctree.os, "listdir", listdir_then_exit)
    assert proctree.tree_pids([10], str(root)) == {10, 11}
    assert proctree.cpu_seconds([10, 11, 12], str(root)) == {10: 2.0, 11: 3.0}
    assert proctree.peak_rss_mb([10, 11, 12], str(root)) == 3.0


def test_cpu_delta_across_a_worker_restart(fake_proc):
    root, add = fake_proc
    tick = os.sysconf("SC_CLK_TCK")
    add(10, 1, utime=tick)
    add(11, 10, utime=tick)
    sampler = proctree.TreeSampler([10], str(root))
    before = sampler.sample()
    assert before == {10: 1.0, 11: 1.0}
    (root / "10" / "stat").write_text(_stat(10, 1, 3 * tick, 0))
    # worker 11 exited; its replacement 12 appeared in the interval
    (root / "11" / "stat").unlink()
    (root / "11").rmdir()
    add(12, 10, utime=tick, stime=tick)
    after = sampler.sample()
    assert proctree.cpu_delta(before, after) == pytest.approx(2.0 + 2.0)


def test_group_members_skip_zombies_and_other_groups(fake_proc):
    root, add = fake_proc
    add(10, 1)
    add(11, 10)
    add(12, 1)
    zombie = (root / "11" / "stat").read_text().replace(") S 10 1", ") Z 10 10")
    (root / "11" / "stat").write_text(zombie)
    for pid in (10, 12):
        stat = (root / str(pid) / "stat").read_text().replace(" 1 1 0 -1", " 10 1 0 -1")
        (root / str(pid) / "stat").write_text(stat)
    assert sorted(proctree.group_members(10, str(root))) == [10, 12]


def test_host_cpu_ticks_reads_steal(fake_proc):
    root, _ = fake_proc
    (root / "stat").write_text("cpu  100 0 50 800 5 0 3 42 0 0\ncpu0 1 2 3\n")
    assert proctree.host_cpu_ticks(str(root)) == (42, 1000)


def test_live_tree_of_this_process():
    pids = proctree.tree_pids([os.getpid()])
    assert os.getpid() in pids
    assert proctree.cpu_seconds([os.getpid()])[os.getpid()] >= 0.0
    assert proctree.peak_rss_mb([os.getpid()]) > 1.0
