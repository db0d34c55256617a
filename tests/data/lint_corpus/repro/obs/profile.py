"""REP016's exempt path: the timer home names time.perf_counter freely
(and is out of REP006's scope)."""
import time
import time as _time
from time import perf_counter as clock
from time import perf_counter_ns

NOW = time.perf_counter()
NOW_NS = _time.perf_counter_ns()
WALL = time.time()


def lap():
    from time import perf_counter

    return perf_counter() - clock()
