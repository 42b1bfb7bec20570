import nested.a.b


def run():
    return nested.a.b.f()


x = run()
