def scaled(n):
    def inner(k):
        return k * n % 1009
    return inner(3)


y = scaled(5)
