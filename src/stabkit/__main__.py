"""The process entry of `python -m stabkit` and of the `stabkit` script."""

import os
import sys

from .cli import main


def run() -> int:
    """cli.main, flushed; a reader that closes stdout early, as `| head` does, ends the stream quietly.

    Then the exit code is 141 (128 + SIGPIPE, as for a writer the signal ends), and stdout goes to os.devnull
    for the flush at exit, so nothing reaches stderr.
    """
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(run())
