class C:
    @classmethod
    def make(cls):
        return cls()


m = C.make()
