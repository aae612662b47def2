"""Regression tests for the ledger's contextvars scope stack.

The scope stack used to be ``threading.local``: an engine pool thread
(``threads_per_worker > 1``) saw an *empty* stack and recorded its
shuffle traffic unscoped, so per-stage byte breakdowns silently leaked
bytes into the ``""`` scope.  The stack is now a ``contextvars`` variable
and :meth:`repro.localexec.engine.LocalEngine._run` runs every pool task
under a copy of the submitting stage's context."""

import concurrent.futures
import contextvars

from repro import ClusterConfig, DMacSession
from repro.datasets import netflix_like
from repro.programs import build_gnmf_program
from repro.rdd.ledger import CommunicationLedger


def _gnmf_run(threads):
    data = netflix_like(scale=1e-3, seed=3)
    program = build_gnmf_program(data.shape, 0.02, factors=4, iterations=2)
    session = DMacSession(
        ClusterConfig(num_workers=4, threads_per_worker=threads, block_size=8)
    )
    session.run(program, {"V": data})
    return session.context.ledger


class TestPoolThreadScopes:
    def test_no_unscoped_records_with_pool_threads(self):
        """The headline regression: with L>1 every transfer still lands
        under its stage's scope -- zero records with an empty scope."""
        ledger = _gnmf_run(threads=4)
        unscoped = [r for r in ledger.records() if not r.scope]
        assert unscoped == []
        assert all(r.scope.startswith("stage-") for r in ledger.records())

    def test_pool_and_serial_runs_scope_identically(self):
        """Mis-scoping would shift bytes between scopes; the per-scope
        breakdown must not depend on engine-pool parallelism."""
        assert _gnmf_run(threads=1).bytes_by_scope() == _gnmf_run(
            threads=4
        ).bytes_by_scope()

    def test_scope_survives_an_explicit_context_copy(self):
        """Code run under a copied context keeps the scope it was copied
        in, on whatever thread runs it."""
        ledger = CommunicationLedger()

        def work():
            ledger.record("shuffle", 5, link=(0, 1))
            return ledger.current_scope()

        with ledger.scope("stage-9"), ledger.scope("task"):
            context = contextvars.copy_context()
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            seen = pool.submit(context.run, work).result()
        assert seen == "stage-9/task"
        assert ledger.records()[-1].scope == "stage-9/task"

    def test_plain_thread_records_unscoped(self):
        """Without a copied context a foreign thread has no scope (the
        stack is per-context, not global)."""
        ledger = CommunicationLedger()
        with ledger.scope("stage-1"):
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                pool.submit(ledger.record, "shuffle", 3, (0, 1)).result()
        assert ledger.records()[-1].scope == ""

    def test_scopes_are_independent_per_ledger(self):
        first, second = CommunicationLedger(), CommunicationLedger()
        with first.scope("a"):
            assert first.current_scope() == "a"
            assert second.current_scope() == ""


class TestUnattributedBucket:
    def test_by_link_sums_to_total_with_unattributed(self):
        """bytes_by_link() used to silently drop link-less (broadcast)
        records; the explicit bucket closes the books."""
        ledger = _gnmf_run(threads=2)
        by_link = ledger.bytes_by_link(include_unattributed=True)
        assert sum(by_link.values()) == ledger.total_bytes
        assert by_link.get(None, 0) == ledger.unattributed_bytes
        assert ledger.unattributed_bytes == ledger.bytes_by_kind().get(
            "broadcast", 0
        )

    def test_default_excludes_the_none_bucket(self):
        ledger = CommunicationLedger()
        ledger.record("broadcast", 7)
        ledger.record("shuffle", 3, link=(1, 0))
        assert ledger.bytes_by_link() == {(1, 0): 3}
        assert ledger.bytes_by_link(include_unattributed=True) == {
            (1, 0): 3,
            None: 7,
        }
        assert ledger.unattributed_bytes == 7

    def test_unattributed_is_zero_without_broadcasts(self):
        ledger = CommunicationLedger()
        ledger.record("shuffle", 4, link=(0, 1))
        assert ledger.unattributed_bytes == 0
        assert ledger.bytes_by_link(include_unattributed=True) == {(0, 1): 4}
