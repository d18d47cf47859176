"""The differential harness runs, and finds no difference between a tree
and itself."""

import differential


def test_differential_harness_finds_nothing_against_its_own_tree(capsys):
    assert differential.main(["--against", str(differential.ROOT), "--small"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("62 inputs, 0 differ\n")
    for command in differential.COMMANDS:
        assert f"{command} here: exit 0: " in out


def test_a_changed_stderr_or_exit_code_is_reported():
    jobs = [("prune", "a", []), ("verify", "b", []), ("verify", "c", [])]
    here = [[0, "d", ""], [1, "e", "separating\n"], [2, "f", "error: x\n"]]
    there = [[0, "d", ""], [1, "e", "partial basis\n"], [4, "f", "error: x\n"]]
    lines, differing = differential.compare(jobs, here, there)
    assert differing == 2
    assert "DIFFERS b (verify): stderr" in lines
    assert "DIFFERS c (verify): exit" in lines
    assert lines[-1] == "3 inputs, 2 differ"


def test_a_traceback_is_compared_by_its_last_line():
    err = 'Traceback (most recent call last):\n  File "/x/src/a.py", line 3\nValueError: no\n'
    assert differential.normalized(err, "/x", "prune") == (
        "Traceback (most recent call last): ... ValueError: no\n"
    )


def test_pipeline_timings_are_normalized():
    err = "growth 0.012s  prune+verify 1.250s  report 10.003s\n"
    assert differential.normalized(err, "/x", "pipeline") == "growth #s  prune+verify #s  report #s\n"
    assert differential.normalized(err, "/x", "simulate") == err
