from ... import x
from .. import util


def g():
    return util.h()


y = g()
