"""Runtime instrumentation hooks for the sanitizer layer.

The ParalleX model makes a strong promise: futures, LCOs and parcels are
the *only* legal ordering edges between HPX-threads.  The
:mod:`repro.analysis` sanitizers check that promise dynamically, and to
do so they need to observe every edge-creating operation.  This module
is the seam between the runtime and those tools: the runtime calls the
functions below at each synchronisation-relevant point, and they forward
to the installed :class:`Probe` (if any).

Design constraints:

* **Zero cost when disabled.**  Every call site guards with
  ``if instrument.probe is not None`` (via the module-level helpers,
  which do the same check), so an un-instrumented run pays one attribute
  load per event.
* **No upward imports.**  This module knows nothing about the analysis
  package; probes are duck-typed subclasses of :class:`Probe` installed
  with :func:`install` / removed with :func:`uninstall`.
* **Composable.**  Several probes (e.g. a race detector plus a deadlock
  detector) can be active at once; they are invoked in install order.
* **No object reuse under observation.**  While :data:`enabled` is True
  the runtime neither pushes to nor pops from its object pools (thread
  shells, execution frames, parcel shells), so probes may key their
  bookkeeping on object identity.  The schedule explorer relies on this
  for bit-identical replays.

The event vocabulary (see :class:`Probe` for signatures):

=====================  ========================================================
event                  fired when
=====================  ========================================================
``task_created``       a new HPX-thread is queued (spawn edge parent -> child)
``task_started``       an HPX-thread begins executing on a worker
``task_finished``      an HPX-thread terminated (value or exception delivered)
``state_fulfilled``    a promise/future shared state received its value
``state_read``         a task consumed a ready future's value (join edge)
``state_linked``       a combinator derived one future from others
                       (``when_all``/``then``/``dataflow``/...)
``state_contribute``   a partial contribution joined an LCO's release clock
                       (latch count-down, barrier arrival, and-gate slot)
``token_put``          a clocked token entered a buffer (channel value,
                       semaphore permit)
``token_get``          a clocked token left a buffer
``wait_enter``         a task cooperatively blocked on a shared state
``wait_exit``          the blocked task resumed (or unwound)
``lco_labelled``       an LCO described itself for wait-graph rendering
``access``             an instrumented read/write of shared component state
``stalled``            the progress engine ran out of runnable work
``quiesced``           the job drained with no awaited condition pending
``forgiven``           the runtime abandoned all pending continuations by
                       design (checkpoint rollback)
=====================  ========================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .threads.hpx_thread import HpxThread

__all__ = ["Probe", "install", "uninstall", "active_probes"]


class Probe:
    """No-op base class for runtime observers (override what you need)."""

    # Thread lifecycle ------------------------------------------------------
    def task_created(self, parent: "HpxThread | None", task: "HpxThread") -> None:
        """``task`` was queued by ``parent`` (None = the main context)."""

    def task_started(self, task: "HpxThread") -> None:
        """``task`` began running on a worker."""

    def task_finished(self, task: "HpxThread") -> None:
        """``task`` terminated (its result promise is set)."""

    # Future / promise edges ------------------------------------------------
    def state_fulfilled(self, state: Any) -> None:
        """A shared state became ready (value or exception stored)."""

    def state_read(self, state: Any) -> None:
        """The current task consumed a ready shared state's value."""

    def state_linked(
        self, sources: Sequence[Any], target: Any, label: str, mode: str = "all"
    ) -> None:
        """``target`` state will be produced from ``sources``.

        ``mode`` is ``"all"`` (every source needed: ``when_all``,
        ``dataflow``, ``then``) or ``"any"`` (one suffices:
        ``when_any``).
        """

    def state_contribute(self, state: Any) -> None:
        """The current task contributed to ``state``'s eventual release
        without necessarily being its final fulfiller (barrier arrival,
        latch count-down, and-gate slot, ``when_all`` input)."""

    # Buffered hand-offs ----------------------------------------------------
    def token_put(self, obj: Any) -> None:
        """The current task deposited a value/permit into ``obj``'s buffer."""

    def token_get(self, obj: Any) -> None:
        """The current task withdrew a buffered value/permit from ``obj``."""

    # Blocking waits --------------------------------------------------------
    def wait_enter(self, state: Any, detail: str = "") -> None:
        """The current task is about to block on ``state``."""

    def wait_exit(self, state: Any) -> None:
        """The current task resumed from a block on ``state``."""

    # Labels / shared-state metadata ---------------------------------------
    def lco_labelled(self, state: Any, label: str) -> None:
        """Human-readable description of the LCO behind ``state``."""

    # Shared-data accesses --------------------------------------------------
    def access(self, owner: Any, field: str, kind: str) -> None:
        """An instrumented ``kind`` ('read'/'write') of ``owner.field``."""

    # Progress-engine verdicts ---------------------------------------------
    def stalled(self, context: Any = None) -> None:
        """No runnable work remains while a wait is unsatisfied.  A probe
        may raise a richer error here; returning defers to the engine's
        default :class:`~repro.errors.DeadlockError`."""

    def quiesced(self, context: Any = None) -> None:
        """The job drained normally; a probe may raise if it tracked
        work that can no longer complete."""

    def forgiven(self, context: Any = None) -> None:
        """The runtime deliberately abandoned every currently-pending
        continuation (checkpoint rollback discards in-flight chains);
        probes tracking lost continuations should stop expecting them."""


#: The active probe, or ``None`` (the fast path).  With several probes
#: installed this is a :class:`_Fanout`; call sites only ever check
#: ``is not None`` and invoke the event method.
probe: Probe | None = None

#: Mirror of ``probe is not None``, kept in sync by :func:`_refresh`.
#: Hot event sites read this one module-level boolean and fetch
#: :data:`probe` only when it is True, so a disabled run pays a single
#: attribute load and truthiness test per event -- no None comparison,
#: no argument construction.
enabled: bool = False

_installed: list[Probe] = []


class _Fanout(Probe):
    """Dispatch every event to each installed probe, in install order."""

    def __init__(self, probes: list[Probe]) -> None:
        self._probes = probes

    def __getattribute__(self, name: str) -> Any:
        if name.startswith("_") or name not in Probe.__dict__:
            return object.__getattribute__(self, name)
        probes = object.__getattribute__(self, "_probes")

        def fanout(*args: Any, **kwargs: Any) -> None:
            for p in probes:
                getattr(p, name)(*args, **kwargs)

        return fanout


def _refresh() -> None:
    global probe, enabled
    if not _installed:
        probe = None
    elif len(_installed) == 1:
        probe = _installed[0]
    else:
        probe = _Fanout(list(_installed))
    enabled = probe is not None


def install(p: Probe) -> None:
    """Activate ``p``; it will receive every runtime event."""
    if p in _installed:
        return
    _installed.append(p)
    _refresh()


def uninstall(p: Probe) -> None:
    """Deactivate ``p`` (no-op if it is not installed)."""
    if p in _installed:
        _installed.remove(p)
    _refresh()


def active_probes() -> list[Probe]:
    """The probes currently receiving events (install order)."""
    return list(_installed)


def call_each(fn: Callable[[Probe], None]) -> None:
    """Apply ``fn`` to every installed probe (engine-side convenience)."""
    for p in list(_installed):
        fn(p)
