"""Whole-program rules: cross-module tag ledgers (MPI002/MPI003),
request/response pairing (MPI008), collective-sequence divergence
(MPI009) and rank-closure shared-state mutation (MPI011).  Each rule
gets a true positive, a near miss, and — for the protocol rules — a
seeded-mutation test that breaks a working protocol and checks the
right rule catches it."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.runner import lint_paths


def lint(code):
    return lint_source(textwrap.dedent(code), "prog.py")


def codes(code):
    return [f.code for f in lint(code)]


TAGS_MODULE = """
class Tags:
    PING_REQUEST = 21
    PING_RESPONSE = 22
"""

RESPONDER_MODULE = """
from tags import Tags

class Responder:
    def install(self):
        self.handlers[Tags.PING_REQUEST] = self.on_ping

    def on_ping(self, msg, comm):
        comm.send(msg.source, None, tag=Tags.PING_RESPONSE)
"""

CLIENT_MODULE = """
from tags import Tags

def client(comm):
    comm.send(1, None, tag=Tags.PING_REQUEST)
    return comm.recv()
"""


def write_modules(tmp_path, **modules):
    paths = []
    for name, source in modules.items():
        p = tmp_path / f"{name}.py"
        p.write_text(textwrap.dedent(source))
        paths.append(p)
    return paths


class TestCrossModuleTagLedger:
    def test_send_received_in_another_module_is_clean(self, tmp_path):
        paths = write_modules(
            tmp_path,
            producer="""
                def produce(comm):
                    comm.send(1, None, tag=5)
            """,
            consumer="""
                def consume(comm):
                    return comm.recv(source=0, tag=5)
            """,
        )
        assert lint_paths(paths).findings == []

    def test_cross_module_mismatch_flags_both_sides(self, tmp_path):
        paths = write_modules(
            tmp_path,
            producer="""
                def produce(comm):
                    comm.send(1, None, tag=5)
            """,
            consumer="""
                def consume(comm):
                    return comm.recv(source=0, tag=6)
            """,
        )
        found = lint_paths(paths).findings
        assert sorted(f.code for f in found) == ["MPI002", "MPI003"]

    def test_symbolic_tags_fold_through_another_modules_class(self, tmp_path):
        """Tags.X in one module folds to its integer because the module
        defining `class Tags` is part of the lint set."""
        paths = write_modules(
            tmp_path,
            tags="""
                class Tags:
                    SHARD_BLOCK = 21
            """,
            producer="""
                from tags import Tags

                def produce(comm):
                    comm.send(1, None, tag=Tags.SHARD_BLOCK)
            """,
            consumer="""
                def consume(comm):
                    return comm.recv(source=0, tag=21)
            """,
        )
        assert lint_paths(paths).findings == []

    def test_wildcard_recv_anywhere_satisfies_all_sends(self, tmp_path):
        paths = write_modules(
            tmp_path,
            producer="""
                def produce(comm):
                    comm.send(1, None, tag=9)
            """,
            pump="""
                def pump(comm):
                    return comm.recv()
            """,
        )
        assert lint_paths(paths).findings == []


class TestRequestProtocol:
    def test_unconsumed_request_tag_flagged(self):
        found = lint("""
            class Tags:
                SCAN_REQUEST = 31

            def client(comm):
                comm.send(1, None, tag=Tags.SCAN_REQUEST)
                return comm.recv()
        """)
        assert "MPI008" in [f.code for f in found]
        assert "SCAN_REQUEST" in found[0].message

    def test_dispatch_comparison_counts_as_consumer(self):
        assert codes("""
            class Tags:
                SCAN_REQUEST = 31

            def client(comm):
                comm.send(1, None, tag=Tags.SCAN_REQUEST)
                return comm.recv()

            def server(comm):
                msg = comm.recv()
                if msg.tag == Tags.SCAN_REQUEST:
                    comm.send(msg.source, None, tag=31)
        """) == []

    def test_take_queued_drain_counts_as_consumer(self):
        """A server that only ever drains a request tag with the
        non-blocking drain consumes it, each tag of the drain's literal
        ``tags``, by keyword or position, alike (the linter read the
        drain's tag from its ``tags`` argument as one expression, so the
        request looked unanswerable)."""
        for tags in ("tags=(Tags.SCAN_REQUEST,)", "ANY_SOURCE, [Tags.SCAN_REQUEST]"):
            assert codes(f"""
                class Tags:
                    SCAN_REQUEST = 31

                def client(comm):
                    comm.send(1, None, tag=Tags.SCAN_REQUEST)
                    return comm.recv()

                def server(comm):
                    for msg in comm.take_queued({tags}):
                        comm.send(msg.source, None, tag=32)
            """) == [], tags

    def test_a_drain_of_an_unresolved_tag_set_consumes_nothing(self):
        """A ``tags`` expression that is not a literal tuple or list
        (``REQUEST_TAGS``) stays unresolved: it names no tag."""
        found = lint("""
            class Tags:
                SCAN_REQUEST = 31

            def client(comm):
                comm.send(1, None, tag=Tags.SCAN_REQUEST)
                return comm.recv()

            def server(comm):
                for msg in comm.take_queued(ANY_SOURCE, REQUEST_TAGS):
                    comm.send(msg.source, None, tag=32)
        """)
        assert [f.code for f in found] == ["MPI008"]

    def test_handler_registration_counts_as_consumer(self, tmp_path):
        paths = write_modules(
            tmp_path, tags=TAGS_MODULE, responder=RESPONDER_MODULE,
            client=CLIENT_MODULE,
        )
        assert lint_paths(paths).findings == []

    def test_seeded_mutation_dropped_responder(self, tmp_path):
        """Deleting the responder module from a working protocol is
        caught: the request is no longer consumed and its paired
        response is no longer sent."""
        paths = write_modules(
            tmp_path, tags=TAGS_MODULE, client=CLIENT_MODULE,
        )
        found = lint_paths(paths).findings
        assert [f.code for f in found] == ["MPI008", "MPI008"]
        messages = " ".join(f.message for f in found)
        assert "PING_REQUEST" in messages
        assert "PING_RESPONSE" in messages

    def test_request_without_paired_constant_needs_no_response(self):
        """KMER_REQUEST-style tags are answered under a shared response
        tag; with no *_RESPONSE constant defined, pairing is skipped."""
        assert codes("""
            class Tags:
                KMER_REQUEST = 1
                COUNT_RESPONSE = 3

            def client(comm):
                comm.send(1, None, tag=Tags.KMER_REQUEST)
                return comm.recv()

            def server(comm):
                msg = comm.recv()
                if msg.tag == Tags.KMER_REQUEST:
                    comm.send(msg.source, None, tag=Tags.COUNT_RESPONSE)

            def sink(comm):
                msg = comm.recv()
                if msg.tag == Tags.COUNT_RESPONSE:
                    return msg
        """) == []

    def test_query_answer_suffix_pair(self):
        found = lint("""
            class Tags:
                OWNER_QUERY = 41
                OWNER_ANSWER = 42

            def client(comm):
                comm.send(1, None, tag=Tags.OWNER_QUERY)
                return comm.recv()

            def server(comm):
                msg = comm.recv()
                if msg.tag == Tags.OWNER_QUERY:
                    pass  # answers but never sends OWNER_ANSWER
        """)
        assert [f.code for f in found] == ["MPI008"]
        assert "OWNER_ANSWER" in found[0].message


class TestCollectiveSequence:
    def test_reordered_collectives_flagged(self):
        found = lint("""
            def program(comm):
                if comm.rank == 0:
                    comm.reduce(1)
                    comm.barrier()
                else:
                    comm.barrier()
                    comm.reduce(1)
        """)
        assert [f.code for f in found] == ["MPI009"]
        assert "different orders" in found[0].message

    def test_same_order_passes(self):
        assert codes("""
            def program(comm):
                if comm.rank == 0:
                    comm.reduce(1)
                    comm.barrier()
                else:
                    comm.reduce(0)
                    comm.barrier()
        """) == []

    def test_unequal_multiset_is_mpi001_not_mpi009(self):
        assert codes("""
            def program(comm):
                if comm.rank == 0:
                    comm.reduce(1)
                    comm.barrier()
                else:
                    comm.barrier()
        """) == ["MPI001"]

    def test_seeded_mutation_reordering_a_working_program(self):
        clean = """
            def program(comm):
                if comm.rank == 0:
                    comm.gather(1)
                    comm.barrier()
                else:
                    comm.gather(None)
                    comm.barrier()
        """
        assert codes(clean) == []
        mutated = clean.replace(
            "comm.gather(None)\n                    comm.barrier()",
            "comm.barrier()\n                    comm.gather(None)",
        )
        assert codes(mutated) == ["MPI009"]


class TestRankClosureRaces:
    def test_threaded_closure_mutating_captured_list_flagged(self):
        found = lint("""
            from repro.simmpi import run_spmd

            def launch():
                seen = []

                def program(comm):
                    seen.append(comm.rank)

                run_spmd(program, nranks=4, engine="threaded")
                return seen
        """)
        assert [f.code for f in found] == ["MPI011"]
        assert "'seen'" in found[0].message
        assert "threaded" in found[0].message

    def test_process_engine_also_analysed(self):
        """Module-level closure + module-level launch: under the process
        engine each rank mutates a private copy of `counts`."""
        found = lint("""
            from repro.simmpi import run_spmd

            counts = {}

            def program(comm):
                counts[comm.rank] = 1

            run_spmd(program, nranks=4, engine="process")
        """)
        assert [f.code for f in found] == ["MPI011"]

    def test_cooperative_engine_not_flagged(self):
        """The cooperative engine runs ranks one at a time in one
        process; captured-state aggregation there is safe and common."""
        assert codes("""
            from repro.simmpi import run_spmd

            def launch():
                seen = []

                def program(comm):
                    seen.append(comm.rank)

                run_spmd(program, nranks=4, engine="cooperative")
        """) == []

    def test_default_engine_not_flagged(self):
        assert codes("""
            from repro.simmpi import run_spmd

            def launch():
                seen = []

                def program(comm):
                    seen.append(comm.rank)

                run_spmd(program, nranks=4)
        """) == []

    def test_lock_guarded_mutation_passes(self):
        assert codes("""
            import threading
            from repro.simmpi import run_spmd

            def launch():
                seen = []
                lock = threading.Lock()

                def program(comm):
                    with lock:
                        seen.append(comm.rank)

                run_spmd(program, nranks=4, engine="threaded")
        """) == []

    def test_local_mutation_passes(self):
        assert codes("""
            from repro.simmpi import run_spmd

            def launch():
                def program(comm):
                    local = []
                    local.append(comm.rank)
                    comm.send(0, None, tag=1)
                    comm.recv(tag=1)

                run_spmd(program, nranks=4, engine="threaded")
        """) == []

    def test_communicator_calls_are_not_mutations(self):
        assert codes("""
            from repro.simmpi import run_spmd

            def launch():
                def program(comm):
                    comm.send(0, None, tag=1)
                    comm.recv(tag=1)

                run_spmd(program, nranks=4, engine="threaded")
        """) == []

    def test_seeded_mutation_shared_state_from_rank_closures(self):
        """Turning communicator-mediated aggregation into direct shared
        mutation of the captured dict is caught."""
        clean = """
            from repro.simmpi import run_spmd

            def launch():
                totals = {}

                def program(comm):
                    part = comm.allreduce(comm.rank)
                    comm.send(0, part, tag=1)
                    comm.recv(tag=1)

                run_spmd(program, nranks=4, engine="threaded")
                return totals
        """
        assert codes(clean) == []
        mutated = clean.replace(
            "comm.recv(tag=1)",
            "totals[comm.rank] = comm.recv(tag=1).payload",
        )
        found = lint(mutated)
        assert [f.code for f in found] == ["MPI011"]
        assert "'totals'" in found[0].message
