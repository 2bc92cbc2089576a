"""Each static lint rule: one positive (bug caught) and one negative
(clean code passes) case, plus suppression and CLI plumbing."""

import textwrap

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.runner import iter_python_files


def lint(code):
    return lint_source(textwrap.dedent(code), "prog.py")


def codes(code):
    return [f.code for f in lint(code)]


class TestRankDivergentCollective:
    def test_collective_on_one_side_flagged(self):
        found = lint("""
            def program(comm):
                if comm.rank == 0:
                    comm.barrier()
        """)
        assert [f.code for f in found] == ["MPI001"]
        assert "barrier" in found[0].message
        assert found[0].line == 4

    def test_collective_in_else_only_flagged(self):
        assert codes("""
            def program(comm):
                if comm.rank % 2:
                    pass
                else:
                    comm.allreduce(1)
        """) == ["MPI001"]

    def test_balanced_collectives_pass(self):
        assert codes("""
            def program(comm):
                if comm.rank == 0:
                    total = comm.reduce(1)
                else:
                    comm.reduce(1)
        """) == []

    def test_unconditional_collective_passes(self):
        assert codes("""
            def program(comm):
                comm.barrier()
                comm.alltoallv([None] * comm.size)
        """) == []

    def test_non_rank_conditional_passes(self):
        """Collectives under a data conditional are the caller's contract
        to keep consistent; only rank conditionals are flagged."""
        assert codes("""
            def program(comm, enabled):
                if enabled:
                    comm.barrier()
        """) == []


class TestTagMismatch:
    def test_recv_tag_never_sent_flagged(self):
        found = lint("""
            def program(comm):
                comm.send(1, None, tag=3)
                comm.recv(source=0, tag=8)
        """)
        assert "MPI002" in [f.code for f in found]

    def test_matched_tags_pass(self):
        assert codes("""
            def program(comm):
                comm.send(1, None, tag=3)
                comm.recv(source=0, tag=3)
        """) == []

    def test_symbolic_tags_match_across_functions(self):
        assert codes("""
            REQ = 4
            def sender(comm):
                comm.send(1, None, tag=REQ)
            def receiver(comm):
                comm.recv(source=0, tag=4)
        """) == []

    def test_unresolvable_send_tag_disables_rule(self):
        assert codes("""
            def program(comm, t):
                comm.send(1, None, tag=t + 1)
                comm.recv(source=0, tag=8)
        """) == []

    def test_take_queued_is_a_receive(self):
        """The drain primitive receives each tag of its literal ``tags``,
        positionally or by keyword: a tag nobody sends is MPI002, and a
        matching one satisfies the sender."""
        found = lint("""
            def program(comm):
                comm.send(1, None, tag=3)
                comm.take_queued(0, (8,))
        """)
        assert sorted(f.code for f in found) == ["MPI002", "MPI003"]
        assert codes("""
            def program(comm):
                comm.send(1, None, tag=3)
                comm.send(1, None, tag=4)
                for msg in comm.take_queued(tags=[4, 3]):
                    pass
        """) == []


class TestOrphanedSend:
    def test_send_tag_never_received_flagged(self):
        found = lint("""
            def program(comm):
                comm.send(1, None, tag=9)
                comm.recv(source=0, tag=3)
                comm.send(0, None, tag=3)
        """)
        assert [f.code for f in found] == ["MPI003"]
        assert "9" in found[0].message

    def test_wildcard_recv_satisfies_all_sends(self):
        assert codes("""
            def program(comm):
                comm.send(1, None, tag=9)
                comm.recv()
        """) == []

    def test_module_without_receives_not_flagged(self):
        """A pure-producer module's tags are received elsewhere (e.g. by
        a protocol pump in another module)."""
        assert codes("""
            def program(comm):
                comm.send(1, None, tag=9)
        """) == []


class TestRecvInProbeLoop:
    def test_blocking_recv_in_probe_loop_flagged(self):
        found = lint("""
            def serve(comm):
                while True:
                    probed = comm.iprobe()
                    if probed is None:
                        continue
                    msg = comm.recv()
        """)
        assert [f.code for f in found] == ["MPI004"]

    def test_recv_by_probed_envelope_passes(self):
        assert codes("""
            def serve(comm):
                while True:
                    probed = comm.iprobe()
                    if probed is not None:
                        msg = comm.recv(probed.source, probed.tag)
                        break
        """) == []

    def test_recv_without_probe_loop_passes(self):
        assert codes("""
            def serve(comm):
                while True:
                    msg = comm.recv()
                    if msg.payload is None:
                        break
        """) == []

    def test_take_queued_drain_loop_passes(self):
        """A serve turn that probes, receives by the probed envelope and
        then drains what else is queued never blocks on the drain."""
        assert codes("""
            def serve(comm):
                while True:
                    probed = comm.iprobe()
                    if probed is None:
                        break
                    batch = [comm.recv(probed.source, probed.tag)]
                    batch += comm.take_queued(tags=(probed.tag,))
        """) == []


class TestNonCodablePayload:
    def test_dict_literal_payload_flagged(self):
        found = lint("""
            def program(comm):
                comm.send(1, {"served": 3}, tag=1)
                comm.recv(tag=1)
        """)
        assert [f.code for f in found] == ["MPI006"]
        assert "dict" in found[0].message

    def test_set_literal_and_comprehensions_flagged(self):
        assert codes("""
            def program(comm, ids):
                comm.send(1, {1, 2}, tag=1)
                comm.send(2, {i: 0 for i in ids}, tag=1)
                comm.send(3, {i for i in ids}, tag=1)
                comm.recv(tag=1)
        """) == ["MPI006", "MPI006", "MPI006"]

    def test_constructor_calls_flagged(self):
        assert codes("""
            def program(comm):
                comm.send(1, dict(a=1), tag=1)
                comm.send(1, set(), tag=1)
                comm.recv(tag=1)
        """) == ["MPI006", "MPI006"]

    def test_keyword_payload_flagged(self):
        assert codes("""
            def program(comm):
                comm.send(1, tag=1, payload={"x": 0})
                comm.recv(tag=1)
        """) == ["MPI006"]

    def test_typed_payloads_pass(self):
        assert codes("""
            import numpy as np

            def program(comm, block):
                comm.send(1, np.zeros(4), tag=1)
                comm.send(1, (block.ids, block.codes, 7), tag=1)
                comm.send(1, None, tag=1)
                comm.send(1, [b"x", "y", 2.5], tag=1)
                comm.recv(tag=1)
        """) == []

    def test_opaque_name_is_not_guessed(self):
        """A bare name might be a dict at runtime, but the rule only
        reports syntactically certain cases."""
        assert codes("""
            def program(comm, payload):
                comm.send(1, payload, tag=1)
                comm.recv(tag=1)
        """) == []

    def test_noqa_suppresses(self):
        assert codes("""
            def program(comm):
                comm.send(1, {"a": 1}, tag=1)  # noqa: MPI006
                comm.recv(tag=1)
        """) == []

    def test_non_comm_receiver_ignored(self):
        assert codes("""
            def program(sock):
                sock.send(1, {"a": 1}, tag=1)
        """) == []


class TestDirectSpectrumLookup:
    """MPI007: repro.parallel modules must resolve counts through the
    lookup tier stack, never by probing a count table directly."""

    PARALLEL = "src/repro/parallel/session.py"

    def lint_at(self, code, path=PARALLEL):
        return lint_source(textwrap.dedent(code), path)

    def test_table_probe_in_parallel_module_flagged(self):
        found = self.lint_at("""
            def counts(self, ids):
                return self.spectra.kmers.lookup(ids)
        """)
        assert [f.code for f in found] == ["MPI007"]
        assert "spectra.kmers.lookup" in found[0].message

    def test_lookup_found_and_table_suffix_receivers_flagged(self):
        found = self.lint_at("""
            def probe(self, ids):
                a = self.reads_tiles.lookup_found(ids)
                b = group_table.lookup(ids)
                return a, b
        """)
        assert [f.code for f in found] == ["MPI007", "MPI007"]

    def test_shard_server_lookup_is_the_sanctioned_surface(self):
        assert self.lint_at("""
            def serve(self, kind, ids):
                return self.protocol.shards.lookup(kind, ids)
        """) == []

    def test_stack_resolution_passes(self):
        assert self.lint_at("""
            def counts(self, ids):
                return self.stacks.kmers.counts(ids)
        """) == []

    def test_lookup_package_is_exempt(self):
        code = """
            def resolve(self, req):
                return self.table.lookup(req.ids)
        """
        assert self.lint_at(code, "src/repro/parallel/lookup/tiers.py") == []
        assert [f.code for f in self.lint_at(code)] == ["MPI007"]

    def test_modules_outside_parallel_not_policed(self):
        code = """
            def counts(self, ids):
                return self.spectra.kmers.lookup(ids)
        """
        assert self.lint_at(code, "src/repro/core/spectrum.py") == []
        assert self.lint_at(code, "prog.py") == []

    def test_noqa_marks_a_serving_site(self):
        assert self.lint_at("""
            def serve(self, ids):
                return self.owned_kmers.lookup(ids)  # noqa: MPI007
        """) == []


class TestServiceLayering:
    """MPI012: the service tier (and every repro package above the
    backend layers) touches spectrum state only through the
    CorrectionSession verbs."""

    SERVICE = "src/repro/service/frontend.py"

    def lint_at(self, code, path=SERVICE):
        return lint_source(textwrap.dedent(code), path)

    def test_construction_call_in_service_flagged(self):
        found = self.lint_at("""
            def build(self, comm, keys, counts):
                return exchange_deltas(comm, keys, counts)
        """)
        assert [f.code for f in found] == ["MPI012"]
        assert "exchange_deltas" in found[0].message

    def test_table_probe_in_service_flagged(self):
        found = self.lint_at("""
            def counts(self, ids):
                return self.spectra.kmers.lookup(ids)
        """)
        assert [f.code for f in found] == ["MPI012"]
        assert "CorrectionSession.correct" in found[0].message

    def test_direct_backend_type_construction_flagged(self):
        found = self.lint_at("""
            def open(self, comm, kmers, tiles):
                self.protocol = CorrectionProtocol(comm, kmers, tiles)
        """)
        assert [f.code for f in found] == ["MPI012"]
        assert "CorrectionProtocol" in found[0].message

    def test_raw_checkpoint_state_read_flagged(self):
        found = self.lint_at("""
            def snapshot(self, session):
                return session.raw_kmers
        """)
        assert [f.code for f in found] == ["MPI012"]
        assert "checkpoint()" in found[0].message

    def test_backend_verbs_pass(self):
        assert self.lint_at("""
            def round(self, backend, block, directory):
                backend.ingest(block)
                result = backend.correct(block)
                backend.checkpoint(directory)
                return result
        """) == []

    def test_every_non_backend_repro_package_is_policed(self):
        code = """
            def rebuild(self, comm, tables):
                return exchange_deltas(comm, tables)
        """
        found = self.lint_at(code, "src/repro/cli.py")
        assert [f.code for f in found] == ["MPI012"]

    def test_backend_layers_and_plain_programs_exempt(self):
        code = """
            def build(self, comm, kmers, tiles):
                spectra = RankSpectra(kmers, tiles)
                return exchange_deltas(comm, spectra)
        """
        assert self.lint_at(code, "src/repro/parallel/build.py") == []
        assert self.lint_at(code, "src/repro/core/spectrum.py") == []
        assert self.lint_at(code, "prog.py") == []

    def test_annotations_and_imports_pass(self):
        """Typing against the backend types is fine; constructing or
        calling the machinery is what the rule police."""
        assert self.lint_at("""
            from repro.parallel.build import RankSpectra

            def hold(self, spectra: RankSpectra) -> RankSpectra:
                return spectra
        """) == []

    def test_noqa_marks_a_deliberate_exception(self):
        assert self.lint_at("""
            def debug_probe(self, ids):
                return self.spectra.kmers.lookup(ids)  # noqa: MPI012
        """) == []


class TestSuppression:
    def test_noqa_with_code(self):
        assert codes("""
            def program(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa: MPI001
        """) == []

    def test_noqa_bare(self):
        assert codes("""
            def program(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa
        """) == []

    def test_noqa_other_code_does_not_suppress(self):
        assert codes("""
            def program(comm):
                if comm.rank == 0:
                    comm.barrier()  # noqa: MPI004
        """) == ["MPI001"]

    def test_disable_argument(self):
        src = "def program(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        assert lint_source(src, disable=["MPI001"]) == []


class TestParseErrors:
    def test_syntax_error_reported_as_mpi000(self):
        found = lint_source("def broken(:\n", "bad.py")
        assert [f.code for f in found] == ["MPI000"]


class TestCommDetection:
    def test_self_comm_attribute_detected(self):
        assert "MPI001" in codes("""
            class Endpoint:
                def exchange(self):
                    if self.comm.rank == 0:
                        self.comm.barrier()
        """)

    def test_split_result_is_comm_like(self):
        assert "MPI001" in codes("""
            def program(comm):
                sub = comm.split(comm.rank % 2)
                if sub.rank == 0:
                    sub.barrier()
        """)

    def test_string_split_is_not_comm_like(self):
        assert codes("""
            def parse(text):
                if text.rank == 0:
                    parts = text.split(",")
        """) == []


class TestPaths:
    def test_lint_paths_over_repo_targets_is_clean(self):
        result = lint_paths(["src/repro/parallel", "examples"])
        assert len(result.files) >= 15
        assert result.clean, [f.render() for f in result.findings]

    def test_iter_python_files_deduplicates(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        files = iter_python_files([tmp_path, f])
        assert files == [f]

    def test_rule_catalogue_covers_all_codes(self):
        assert set(RULES) == {
            "MPI000", "MPI001", "MPI002", "MPI003", "MPI004", "MPI006",
            "MPI007", "MPI008", "MPI009", "MPI011", "MPI012",
        }
