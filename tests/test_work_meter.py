"""The work meter counts what it is given, and the same each time: checked
on toy functions, with no count pinned that the Python version decides."""

from work_meter import count


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _repeat(k):
    for _ in range(k):
        _fib(10)


def test_count_is_deterministic_and_additive():
    first, again = count(_fib, 10), count(_fib, 10)
    assert first == again and first[2] == 55
    # fib(10) enters 177 Python frames, whatever bytecode they run
    assert first[1] == 177 and first[0] > first[1]
    ops, calls = zip(*(count(_repeat, k)[:2] for k in range(4)))
    # each further fib(10) adds the same work: its own and one loop step
    assert ops[3] - ops[2] == ops[2] - ops[1] == ops[1] - ops[0] > first[0]
    assert [c - calls[0] for c in calls] == [0, 177, 354, 531]


def test_count_sees_no_work_outside_its_call():
    _fib(12)
    assert count(len, ()) == (0, 0, 0)
    assert count(sorted, [3, 1, 2])[:2] == (0, 0)
