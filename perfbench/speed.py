"""Host-speed clock: repeat a fixed mpmath kernel and stamp each repetition.

    python3 perfbench/speed.py

Prints ``time.monotonic()`` after every repetition, one per line, until it is
killed or its stdout is closed.  `run.py` runs it on the second core while a
`verify` process runs on the first, and counts the repetitions completed in
that process's lifetime: the shared host's speed at exactly that time.

The kernel does the kind of work `verify` spends its time on -- mpf exp,
log, multiply and divide at 320 bits, the guarded precision of a 256-bit
report -- and uses no code of the program, so a change to the program does
not change it.
"""

import sys
import time

import mpmath

BITS = 320
TERMS = 800  # about 50 ms per repetition on the host the reference was taken on


def repetition(ctx, x):
    s = ctx.zero
    for i in range(1, TERMS):
        t = x * i
        s += ctx.exp(-t) * ctx.log(1 + t) / (1 + t * t)
    return s


def main():
    ctx = mpmath.MPContext()
    ctx.prec = BITS
    x = ctx.mpf(1) / 3
    try:
        while True:
            repetition(ctx, x)
            sys.stdout.write(f"{time.monotonic()!r}\n")
            sys.stdout.flush()
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


if __name__ == "__main__":
    sys.exit(main())
