"""Golden records pinned from earlier engine versions."""
