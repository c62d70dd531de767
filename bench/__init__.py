"""Wall-clock campaign benchmark (see README.md)."""
