"""The layered benchmark ladder (see README.md in this directory)."""
