def g():
    return 1


def h():
    return 2


class C:
    def m(self, b):
        return b()

    def __call__(this, f):
        return f()

    def helper(self, f):
        return f()

    def run(self, f):
        return self.helper(f)


def star(a):
    return a()


def double_star(a):
    return a()


C.m(C(), g)
c = C()
c(h)
c.m(h)
c.run(g)
star(*[g])
double_star(**{"a": h})
