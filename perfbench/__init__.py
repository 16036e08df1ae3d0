"""Token-push benchmark; see README.md."""
