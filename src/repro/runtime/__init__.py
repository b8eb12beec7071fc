"""Runtime backends: one protocol core, two execution engines.

- :class:`~repro.runtime.interface.Transport` -- the clock/send/timer
  contract the protocol state machines speak;
- :class:`~repro.net.transport.Network` -- the deterministic
  discrete-event backend: the simulator's message fabric implements
  the contract itself;
- :class:`~repro.runtime.aio.AsyncioTransport` -- the localhost asyncio
  backend: real timers, a marshal wire codec, file-backed WALs.

``BACKENDS`` lists the valid values of the ``backend=`` knob threaded
through :class:`repro.RunSpec`, scenarios, sweeps and the CLI.
"""

from repro.runtime.interface import TimerHandle, Transport

__all__ = [
    "BACKENDS",
    "TimerHandle",
    "Transport",
    "AsyncioTransport",
    "FileWriteAheadLog",
    "LocalhostSpec",
    "LocalhostStore",
    "LocalhostDeployment",
    "deploy_localhost",
    "run_localhost",
]

#: Valid values of the ``backend`` knob.
BACKENDS = ("sim", "asyncio")

#: Lazily-resolved exports: the asyncio transport imports
#: :mod:`repro.net.transport`, whose ``Network`` subclasses
#: :class:`Transport` from this package; the localhost harness (and its
#: file-backed WAL) import the txn package, which imports the cluster
#: package, which imports the network. Eager imports here would close
#: those cycles. PEP 562 attribute access keeps this package importable
#: from anywhere in the stack.
_LAZY = {
    "AsyncioTransport": "repro.runtime.aio",
    "FileWriteAheadLog": "repro.runtime.wal",
    "LocalhostSpec": "repro.runtime.localhost",
    "LocalhostStore": "repro.runtime.localhost",
    "LocalhostDeployment": "repro.runtime.localhost",
    "deploy_localhost": "repro.runtime.localhost",
    "run_localhost": "repro.runtime.localhost",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
