"""``python -m intpoints``: the same command line as ``intpoints``."""

from .cli import entry

entry()
