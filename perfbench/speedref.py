"""Fixed reference job that gauges how fast the host runs right now.

run.py starts it as a child process next to each speccor invocation it
times. It does what those invocations spend most of their time on: start an
interpreter, import numpy and scipy.signal, run a few FFTs. It never touches
the package under test, so a change to speccor cannot change its time; only
the host can.
"""

import numpy as np
import scipy.signal  # noqa: F401

frames = np.random.default_rng(0).standard_normal((100, 2048))
for _ in range(5):
    np.abs(np.fft.rfft(frames, axis=1))
