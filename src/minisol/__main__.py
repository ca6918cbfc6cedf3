"""``python -m minisol``: the command-line interface."""

from .cli import main

main()
