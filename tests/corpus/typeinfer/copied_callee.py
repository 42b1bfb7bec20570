def h(p):
    return p


k = h
r = k(1)
