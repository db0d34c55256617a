"""REP002's exempt path: the traffic layer owns randomness."""
import random
import random as rnd
from random import shuffle
from random import randint as roll

PICK = random.randint(0, 5)
ORDER = rnd.random()


def destinations(nodes):
    import random as local

    shuffle(nodes)
    return local.choice(nodes), roll(0, 3)
