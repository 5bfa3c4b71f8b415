"""Reference work that does not depend on the program; prints two timings.

    python3 perfbench/reference.py  ->  "<import_s> <compute_s>"

The shared machine's speed drifts by tens of percent over minutes.  run.py
runs this in a fresh interpreter right before and right after each command
and divides the command's times by the mean of the two runs:
- import_s, `import numpy, scipy.spatial, scipy.integrate`, the bulk of the
  program's own import, is the yardstick for set-up time;
- import_s plus compute_s, a pure-Python loop and a numpy kernel, is the
  yardstick for the commands' run time, which is interpreted code, numpy
  and compiled libraries.
"""

import time

start = time.perf_counter()
import numpy, scipy.spatial, scipy.integrate  # noqa: E401,F401
import_s = time.perf_counter() - start

start = time.perf_counter()
total = 0
for i in range(3_500_000):
    total += i % 7
x = numpy.random.default_rng(0).standard_normal((1 << 16, 6))
for _ in range(40):
    numpy.hypot(x[:, 0], x[:, 1]).sum()
    x / numpy.linalg.norm(x, axis=1, keepdims=True)
compute_s = time.perf_counter() - start
print(import_s, compute_s)
