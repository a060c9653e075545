"""The one HTTP call the gateway makes, on the standard library.

Importing this module loads no HTTP code: ``urllib.request`` is imported
on the first ``post``, so commands that never reach a model endpoint
never pay for it.  HTTPS verifies against the system CA store.
"""

from __future__ import annotations


class RequestException(Exception):
    """The endpoint could not be reached, or its reply did not arrive."""


def post(url: str, data: bytes, headers: dict, timeout: float):
    """POST data to url and return (status, body), an error status
    included; raise RequestException when no complete reply arrives."""
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=data, headers=headers,
                                     method="POST")
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()
    except (OSError, http.client.HTTPException) as exc:
        raise RequestException(str(exc)) from exc
