N = 3


def f():
    return N + 1


x = f()
