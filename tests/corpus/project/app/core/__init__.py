from .engine import start
from . import engine
