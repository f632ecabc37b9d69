from time import perf_counter

start = perf_counter()
from .cli import launch  # noqa: E402  (its import is timed for --timings)

launch(perf_counter() - start)
