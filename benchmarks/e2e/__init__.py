"""End-to-end benchmark of the ADA reproduction (see README.md here)."""
