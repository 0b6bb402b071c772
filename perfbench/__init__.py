"""The repository's benchmark; see ``README.md`` beside this file."""
