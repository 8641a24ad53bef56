"""``python -m spafl``: the ``spafl`` command-line front end."""
from .cli import entrypoint

entrypoint()
