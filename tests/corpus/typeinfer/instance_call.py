def h(x):
    return x


class C:
    def __call__(this, g, n):
        g(n)
        return n


c = C()
j = c(h, 1)
