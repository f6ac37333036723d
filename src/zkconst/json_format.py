"""The --format json writer, alone in a lazily registered module, so only it loads json."""
import json


def dumps(payload) -> str:
    """payload indented by two spaces, ending in a newline."""
    return json.dumps(payload, indent=2) + "\n"
