def h():
    return 1
