"""The sanctioned route: import the one clock."""
import time
from time import time as wall, sleep
from repro.obs.profile import clock
from repro.obs.profile import clock as now
import repro.obs.profile as profile

T0 = clock()
CREATED = time.time()
NESTED = profile.time.perf_counter
perf_counter = now


def timed(fn):
    from repro.obs.profile import clock as tick

    t0 = tick()
    fn()
    return tick() - t0, perf_counter()
