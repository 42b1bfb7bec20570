import app.helpers as h
from app.core.engine import stop as halt


def report(data):
    return halt(h.shout(data))
