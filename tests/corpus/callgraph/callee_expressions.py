class C:
    def m(self, x):
        return x


def f(a):
    return a


def g(b):
    return b


def choose(flag):
    return flag and f or g


k = f or g
k(1)
h = choose(0)
h(2)
c = C()
bound = c.m
bound(3)
