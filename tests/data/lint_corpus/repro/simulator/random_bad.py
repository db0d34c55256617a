"""REP002: draws from the unseeded global generator."""
from typing import TYPE_CHECKING

import random
import random as rnd
from random import shuffle
from random import randint as roll
from random import choice, Random, sample
from random import *
from .random import uniform

PICK = random.randint(0, 5)
ORDER = rnd.shuffle
COIN = random.random() < rnd.random()
STATE = random.getstate()
CHAINED = random.choice.__name__


def arbitrate(candidates):
    import random as local

    return local.choice(candidates), later.gauss(0, 1)


def elsewhere():
    import random as later

    return later.Random(7)


if TYPE_CHECKING:
    import random as typed
    from random import betavariate

JITTER = typed.uniform(0, 1)
