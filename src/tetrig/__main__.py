import sys
from time import perf_counter

start = perf_counter()
from .cli import main  # noqa: E402  (its import is timed for --timings)

sys.exit(main(startup=perf_counter() - start))
