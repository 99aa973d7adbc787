"""``python -m agediff``: the command-line interface."""

from .cli import console_main

console_main()
