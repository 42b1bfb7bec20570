import os
import os.path
import app.core.engine
import app.core.engine as eng
from . import helpers
from .util import *
from ...outside import thing
from json import dumps
from app.core import engine


def run(path):
    base = os.path.join(path, 'x')
    started = app.core.engine.start(base)
    stopped = eng.stop(started)
    text = helpers.shout(started)
    return dumps([text, stopped])


def main():
    value = run(os.getcwd())
    print(value)
    return engine.start(value)


main()
