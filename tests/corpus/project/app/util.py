import sys

LIMIT = 10


def clamp(n):
    if n > LIMIT:
        return LIMIT
    return n


def argv_count():
    return clamp(len(sys.argv))
