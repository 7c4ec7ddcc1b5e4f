"""``python -m quasiinv``: the CLI through ``cli.console_entry``, which
ends the process with ``os._exit`` once the output is flushed."""

from .cli import console_entry

console_entry()
