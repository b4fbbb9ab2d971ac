"""One alarm for the tests whose failure mode is a run without end."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError inside the block once seconds have passed, so a
    slow path fails its test instead of hanging the suite (SIGALRM, so the
    main thread of a Unix process only). The previous handler is restored
    on exit."""
    def give_up(signum, frame):
        raise TimeoutError(f"did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
