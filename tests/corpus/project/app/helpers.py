def shout(text):
    return text.upper()


def whisper(text):
    return text.lower()
