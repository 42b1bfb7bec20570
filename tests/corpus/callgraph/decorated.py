def g():
    pass


class C:
    @staticmethod
    def s(f):
        return f()

    @classmethod
    def make(cls, f):
        f()
        return cls()


C.s(g)
c = C.make(g)
c.s(g)
c.make(g)
