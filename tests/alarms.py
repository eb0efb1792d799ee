"""A deadline for tests whose work must be refused, not run."""

import signal
from contextlib import contextmanager


class _Expired(Exception):
    pass


@contextmanager
def within(seconds: int):
    """Fail the test when its body runs past `seconds`.  The alarm's own
    traceback is dropped: the frame it interrupts may have no line number,
    which pytest cannot print."""

    def expire(signum, frame):
        raise _Expired

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except _Expired:
        raise AssertionError(f"ran past {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
