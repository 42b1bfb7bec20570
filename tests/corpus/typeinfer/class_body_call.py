def double(a):
    return a * 2


class Sizes:
    width = double(3)
    height = double(4)
