"""tools/repro_process.py: the tools' one way to boot ``repro serve``
leaves no daemon and no state directory behind, however its block ends.
"""

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.repro_process import SRC, repro_environment, serve_daemon  # noqa: E402


def state_dir_of(process):
    return process.args[process.args.index("--state-dir") + 1]


def test_a_raising_block_leaves_no_daemon_and_no_state_directory():
    with pytest.raises(RuntimeError, match="mid-request failure"):
        with serve_daemon("helper-test", "--jobs", "1") as client:
            process = client.process
            state_dir = state_dir_of(process)
            assert client.health()["status"] == "ok"
            assert os.path.isdir(state_dir)
            raise RuntimeError("mid-request failure")
    # Killed and reaped: the pid is gone, not a zombie.
    assert process.returncode is not None
    with pytest.raises(ProcessLookupError):
        os.kill(process.pid, 0)
    assert not os.path.exists(state_dir)


def test_a_drained_daemon_exits_on_its_own():
    with serve_daemon("helper-test", "--jobs", "1") as client:
        client.shutdown()
        client.process.wait(timeout=30)
        tail = client.process.stdout.read()
    assert client.process.returncode == 0
    assert "drained and stopped" in tail
    assert not os.path.exists(state_dir_of(client.process))


def test_a_daemon_that_does_not_start_exits_the_tool():
    with pytest.raises(SystemExit, match="helper-test: daemon did not "
                                         "start: 'usage: "):
        with serve_daemon("helper-test", "--no-such-flag"):
            pytest.fail("the block runs only once the daemon listens")


def test_the_environment_puts_this_tree_first():
    environment = repro_environment(PYTHONHASHSEED="7")
    assert environment["PYTHONPATH"].split(os.pathsep)[0] == SRC
    assert environment["PYTHONHASHSEED"] == "7"
