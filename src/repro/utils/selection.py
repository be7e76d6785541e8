"""Named-implementation selection with one precedence rule.

The transport registry chooses among named implementations by one rule:
an explicit per-call name beats the process-wide choice (a CLI flag),
which beats an environment variable, which beats the default; an
unknown name is an error, and a known one that cannot run on this
machine is served by a fallback after one logged warning — an optional
fabric must never become a hard dependency.  :class:`Selection` is that
rule.
"""

from __future__ import annotations

import logging
import os
from typing import Callable

__all__ = ["Selection"]


class Selection:
    """Resolve a requested name to an implementation that can run here.

    *available* maps every known name to a zero-argument availability
    probe (called on each resolution, so tests can flip it); *fallback*
    serves a request whose probe says no, with *missing* explaining why
    in the one warning logged to *logger*.
    """

    def __init__(
        self,
        what: str,
        env_var: str,
        available: dict[str, Callable[[], bool]],
        *,
        default: str,
        fallback: str,
        logger: str,
        missing: str,
    ) -> None:
        self.what, self.env_var, self.available = what, env_var, available
        self.default, self.fallback, self.missing = default, fallback, missing
        self.explicit: str | None = None
        self._log = logging.getLogger(logger)
        self._warned: set[str] = set()

    def available_names(self) -> list[str]:
        """The implementations usable in this environment."""
        return [name for name, ok in self.available.items() if ok()]

    def validate(self, name: str) -> str:
        name = name.strip().lower()
        if name not in self.available:
            raise ValueError(f"unknown {self.what} {name!r}; choose from {list(self.available)}")
        return name

    def resolve(self, name: str | None = None) -> str:
        """*name* (or the configured choice) as a usable implementation."""
        req = self.validate(
            name or self.explicit or os.environ.get(self.env_var) or self.default
        )
        if self.available[req]():
            return req
        if req not in self._warned:
            self._warned.add(req)
            self._log.warning(
                "%s %r requested but %s; falling back to %r",
                self.what, req, self.missing, self.fallback,
            )
        return self.fallback

    def set(self, name: str | None) -> str:
        """Set the process-wide choice (``None`` clears it); returns the
        name that will actually serve, so callers can record what they
        really got."""
        self.explicit = None if name is None else self.validate(name)
        return self.resolve()

    def reset(self) -> None:
        """Clear the process-wide choice and the warning memory (tests)."""
        self.explicit = None
        self._warned.clear()

    def describe(self) -> dict:
        """Environment census for bench metadata and trace attributes."""
        return {
            "active": self.resolve(),
            "available": self.available_names(),
            "explicit": self.explicit,
            "env": os.environ.get(self.env_var),
        }
