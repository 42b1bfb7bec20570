class P:
    def __init__(self, v):
        self.v = v

    def scale(self, k):
        return k * 2

    def twice(self, x):
        return self.scale(x)


class Q:
    def m(this, x):
        return x


p = P(1)
r = p.scale(3)
t = p.twice(4)
a = Q.m(Q(), 1)
q = Q()
y = q.m('s')
