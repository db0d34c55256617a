"""REP006: non-clock attributes, and names that only look like the module."""
import time
import time as wall
from time import sleep
from time import struct_time as Stamp
from time import strftime, gmtime
import datetime
import timeit
from timing import perf_counter

PAUSE = time.sleep
ZONE = wall.timezone
FORMATTED = time.strftime("%Y", time.gmtime(0))
BOXED = datetime.time.min
NESTED = datetime.time.perf_counter
cycle = 0
clock = cycle.perf_counter


def step(self, perf_counter):
    import time as t

    self.cycle += 1
    t.sleep(0)
    return perf_counter(), self.time.monotonic()
