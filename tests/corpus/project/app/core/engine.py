from ..helpers import whisper
from .. import util


def start(value):
    return whisper(value) + '!'


def stop(value):
    return util.clamp(len(value))
