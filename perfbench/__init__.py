"""Wall-clock benchmark of the DCert reproduction (see README.md)."""
