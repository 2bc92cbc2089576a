"""The byte-range scanner against a record-at-a-time reference.

The reference below is the parser Step I used before the scanner: a line
loop, ``int()`` per header and per score, one row write per read.  It is
kept here so the array code is checked against plain Python, not against
itself.
"""

import builtins
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileFormatError
from repro.io import scan
from repro.io.fasta import read_fasta, read_fasta_range, write_fasta
from repro.io.partition import load_rank_block
from repro.io.quality import read_quality, write_quality
from repro.io.records import DEFAULT_QUALITY
from repro.kmer.codec import INVALID_CODE


# ----------------------------------------------------------------------
# The reference: record at a time.
CODE = {"A": 0, "C": 1, "G": 2, "T": 3}


def reference_records(data: bytes) -> list[tuple[int, int, list[str]]]:
    """``(header offset, sequence number, body lines)`` of every record."""
    records = []
    pos = 0
    for raw in data.splitlines(keepends=True):
        line = raw.decode("ascii").rstrip("\r\n")
        if line.startswith(">"):
            records.append((pos, int(line[1:].split()[0]), []))
        elif line:
            records[-1][2].append(line)
        pos += len(raw)
    return records


def reference_cut(heads: list[int], size: int, offset: int) -> int:
    if offset <= 0:
        return 0
    return min((h for h in heads if h >= offset), default=size)


def reference_block(fasta: bytes, quality: bytes | None, nranks: int,
                    rank: int):
    """What ``load_rank_block`` must return, as four arrays."""
    records = reference_records(fasta)
    heads = [h for h, _, _ in records]
    size = len(fasta)
    lo = reference_cut(heads, size, size * rank // nranks)
    hi = reference_cut(heads, size, size * (rank + 1) // nranks)
    mine = [(rid, "".join(body)) for h, rid, body in records if lo <= h < hi]
    scores = None
    if quality is not None:
        scores = {
            rid: [int(t) for t in " ".join(body).split()]
            for _, rid, body in reference_records(quality)
        }
    width = max((len(seq) for _, seq in mine), default=0)
    codes = np.full((len(mine), width), INVALID_CODE, dtype=np.uint8)
    quals = np.zeros((len(mine), width), dtype=np.uint8)
    for i, (rid, seq) in enumerate(mine):
        codes[i, : len(seq)] = [
            CODE.get(base, INVALID_CODE) for base in seq.upper()
        ]
        quals[i, : len(seq)] = (
            DEFAULT_QUALITY if scores is None else scores[rid]
        )
    return (
        np.array([rid for rid, _ in mine], dtype=np.int64),
        codes,
        np.array([len(seq) for _, seq in mine], dtype=np.int32),
        quals,
    )


# ----------------------------------------------------------------------
# Generated file pairs: everything the readers tolerate on purpose.
@st.composite
def file_pairs(draw):
    n = draw(st.integers(0, 24))
    first = draw(st.integers(1, 10**6))
    names = [first + i for i in range(n)]
    if draw(st.booleans()):
        names = draw(st.permutations(names))
    reads = [
        draw(st.text(alphabet="ACGTNacgtnR", max_size=30)) for _ in range(n)
    ]

    def render(bodies, blank):
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        out = [eol] * draw(st.integers(0, 2))
        for name, tokens in zip(names, bodies):
            # A zero-padded name (`>007`) is the same sequence number.
            out.append(f">{draw(st.sampled_from(['', '0', '00']))}{name}")
            if draw(st.booleans()):
                out.append(draw(st.sampled_from([" x", "\tread 1", " "])))
            out.append(eol)
            wrap = draw(st.integers(1, 12))
            for at in range(0, len(tokens), wrap):
                out.append(blank.join(tokens[at : at + wrap]))
                out.append(eol)
                out.append(eol * draw(st.integers(0, 1)))
        text = "".join(out)
        if text.endswith(eol) and draw(st.booleans()):
            text = text[: -len(eol)]
        return text.encode("ascii")

    fasta = render([list(r) for r in reads], "")
    def score():
        # Zero-padded to 1-3 digits (`0`, `00`, `007`, `099`, `255`): the
        # parse reads a run's length from its neighbours, not `str(int)`.
        value = draw(st.integers(0, 255))
        width = draw(st.integers(len(str(value)), 3))
        return f"{value:0{width}d}"

    scores = [[score() for _ in r] for r in reads]
    quality = render(scores, draw(st.sampled_from([" ", "\t", "  "])))
    return fasta, quality


class TestDifferential:
    @given(file_pairs(), st.sampled_from([7, 64, scan.PIECE_BYTES]),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_blocks_equal_the_reference(self, pair, piece, with_quality):
        fasta, quality = pair
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            # Small pieces cut records everywhere and force the doubling.
            patch.setattr(scan, "PIECE_BYTES", piece)
            fa, qual = Path(tmp, "r.fa"), Path(tmp, "r.qual")
            fa.write_bytes(fasta)
            qual.write_bytes(quality)
            for nranks in (1, 2, 8, 17):
                loaded = []
                for rank in range(nranks):
                    block = load_rank_block(
                        fa, qual if with_quality else None, nranks, rank
                    )
                    want = reference_block(
                        fasta, quality if with_quality else None,
                        nranks, rank,
                    )
                    for got, ref in zip(block.to_wire(), want):
                        assert got.dtype == ref.dtype
                        assert got.shape == ref.shape or not len(ref)
                        assert np.array_equal(got, ref)
                    loaded.extend(block.ids.tolist())
                assert sorted(loaded) == sorted(
                    rid for _, rid, _ in reference_records(fasta)
                )

    @given(file_pairs())
    @settings(max_examples=50, deadline=None)
    def test_iterators_equal_the_reference(self, pair):
        fasta, quality = pair
        with tempfile.TemporaryDirectory() as tmp:
            fa, qual = Path(tmp, "r.fa"), Path(tmp, "r.qual")
            fa.write_bytes(fasta)
            qual.write_bytes(quality)
            assert list(read_fasta(fa)) == [
                (rid, "".join(body))
                for _, rid, body in reference_records(fasta)
            ]
            got = [(rid, q.dtype, q.tolist()) for rid, q in read_quality(qual)]
            assert got == [
                (rid, np.uint8, [int(t) for t in " ".join(body).split()])
                for _, rid, body in reference_records(quality)
            ]


# ----------------------------------------------------------------------
class TestMalformedPairs:
    """Each of these got past (or crashed) the old readers; each is now a
    FileFormatError that says where."""

    @staticmethod
    def load(tmp_path, fasta: bytes, quality: bytes | None = None):
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        fa.write_bytes(fasta)
        if quality is not None:
            qual.write_bytes(quality)
        return load_rank_block(fa, None if quality is None else qual, 1, 0)

    @pytest.mark.parametrize("row", [b"1 1 1", b"1 1 1 1 1"])
    def test_quality_row_of_the_wrong_length(self, tmp_path, row):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">1\nACGT\n>2\nACGT\n",
                      b">1\n1 1 1 1\n>2\n" + row + b"\n")
        assert err.value.path.endswith("r.qual")
        assert "sequence number 2" in str(err.value)
        assert f"{len(row.split())} quality scores" in str(err.value)

    def test_non_ascii_base(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">1\nACGT\n>2\nAC\xc3\xa9T\n")
        assert err.value.path.endswith("r.fa")
        assert err.value.line == 4

    def test_non_ascii_score(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">1\nAC\n", b">1\n4\xc3\xa9 2\n")
        assert "sequence number 1" in str(err.value)

    def test_duplicate_read(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">1\nACGT\n>1\nTTTT\n",
                      b">1\n1 1 1 1\n>2\n2 2 2 2\n")
        assert err.value.path.endswith("r.fa")
        assert "sequence number 1 appears twice" in str(err.value)

    def test_duplicate_quality_record(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">1\nACGT\n>2\nTTTT\n",
                      b">1\n1 1 1 1\n>2\n2 2 2 2\n>2\n3 3 3 3\n")
        assert err.value.path.endswith("r.qual")
        assert "sequence number 2 appears twice" in str(err.value)

    @pytest.mark.parametrize(
        "token",
        [b"+5", b"1_0", b"-1", b"256", b"0040", b"1000", b"4.0", b"x"],
    )
    def test_scores_are_plain_decimals(self, tmp_path, token):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">7\nAC\n>8\nAC\n",
                      b">7\n1 2\n>8\n3 " + token + b"\n")
        assert "sequence number 8" in str(err.value)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "name", [b"+5", b"1_0", b" 5", b"5x", b"", b"9" * 19]
    )
    def test_names_are_plain_decimals(self, tmp_path, name):
        with pytest.raises(FileFormatError) as err:
            self.load(tmp_path, b">1\nAC\n>" + name + b"\nAC\n")
        assert "is not a sequence number" in str(err.value)
        assert err.value.line == 3

    def test_data_before_the_first_header(self, tmp_path):
        qual = tmp_path / "r.qual"
        qual.write_bytes(b"40 40\n>1\n40 40\n")
        with pytest.raises(FileFormatError):
            list(read_quality(qual))

    def test_range_errors_carry_the_file_line(self, tmp_path):
        fa = tmp_path / "r.fa"
        fa.write_bytes(b">1\nAC\n>2\nAC\n>x\nAC\n")
        with pytest.raises(FileFormatError) as err:
            list(read_fasta_range(fa, 6, 18))
        assert err.value.line == 5


class TestTolerated:
    def test_names_in_any_order_in_either_file(self, tmp_path):
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        fa.write_bytes(b">3\nAAA\n>1\nC\n>2\nGG\n")
        qual.write_bytes(b">2\n2 2\n>3\n3 3 3\n>1\n1\n")
        block = load_rank_block(fa, qual, 1, 0)
        assert block.ids.tolist() == [3, 1, 2]
        assert block.to_strings() == ["AAA", "C", "GG"]
        assert block.quals.tolist() == [[3, 3, 3], [1, 0, 0], [2, 2, 0]]

    def test_zero_length_read(self, tmp_path):
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        fa.write_bytes(b">1\n\n>2\nAC\n>3")
        qual.write_bytes(b">1\n>2\n5 6\n>3\n")
        block = load_rank_block(fa, qual, 1, 0)
        assert block.lengths.tolist() == [0, 2, 0]
        assert block.quals.tolist() == [[0, 0], [5, 6], [0, 0]]

    def test_names_of_every_length_and_ending(self, tmp_path):
        """Names of 1 to 18 digits, ended by LF, CRLF, a blank and a
        comment, or the end of the file with no LF."""
        fa = tmp_path / "r.fa"
        longest = int("9" * 18)
        fa.write_bytes(
            b">0\nA\n>12\r\nC\n>345 read three\nG\n>6789\tx\nT\n>"
            + str(longest).encode() + b"\nAC\n>42"
        )
        assert [name for name, _ in read_fasta(fa)] == [
            0, 12, 345, 6789, longest, 42,
        ]

    def test_a_record_longer_than_many_pieces(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scan, "PIECE_BYTES", 16)
        fa = tmp_path / "r.fa"
        write_fasta(fa, ["ACGT" * 500, "TT", "G" * 300])
        assert [len(s) for _, s in read_fasta(fa)] == [2000, 2, 300]


class TestBoundedTemporaries:
    def test_peak_memory_is_a_small_multiple_of_the_block(self, tmp_path):
        """Index arrays (8 bytes a base or a score) may exist per piece,
        never per range: a whole-range table gather read 5.8x here."""
        import tracemalloc

        n = 8000
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        write_fasta(fa, ["ACGT" * 25] * n)
        write_quality(qual, ([40] * 100 for _ in range(n)))
        tracemalloc.start()
        try:
            block = load_rank_block(fa, qual, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(block) == n
        assert peak < 4 * block.nbytes


class TestOpens:
    def test_opens_per_rank_do_not_grow_with_ranks(self, tmp_path,
                                                   monkeypatch):
        """A rank finds its own cuts: each file is opened once, whatever
        the number of ranks (it used to be 3 x P opens a rank)."""
        rng = np.random.default_rng(1)
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        lengths = rng.integers(20, 60, 400)
        write_fasta(fa, ["A" * n for n in lengths])
        # One- and three-digit scores: the quality ranges do not line up
        # with the fasta ranges, so windows widen.
        write_quality(
            qual, [[7 if i < 200 else 107] * n for i, n in enumerate(lengths)]
        )
        opened = []
        real = builtins.open

        def counting(file, *args, **kwargs):
            opened.append(file)
            return real(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        most = {}
        for nranks in (8, 64):
            counts = []
            for rank in range(nranks):
                del opened[:]
                load_rank_block(fa, qual, nranks, rank)
                counts.append(len(opened))
            most[nranks] = max(counts)
        assert most[8] == most[64] == 2


class TestWriters:
    @staticmethod
    def old_fasta(seqs, start_id=1) -> bytes:
        return "".join(
            f">{i}\n{seq}\n" for i, seq in enumerate(seqs, start=start_id)
        ).encode("ascii")

    @staticmethod
    def old_quality(quals, start_id=1) -> bytes:
        return "".join(
            f">{i}\n" + " ".join(str(int(q)) for q in row) + "\n"
            for i, row in enumerate(quals, start=start_id)
        ).encode("ascii")

    @pytest.mark.parametrize("batch", [3, 4096])
    def test_bytes_identical_to_the_per_record_writers(
            self, tmp_path, monkeypatch, batch):
        from repro.io import fasta

        monkeypatch.setattr(fasta, "WRITE_BATCH", batch)
        rng = np.random.default_rng(2)
        seqs = ["ACGTN"[: n % 6] * 3 for n in range(10)]
        quals = [rng.integers(0, 256, len(s)) for s in seqs]
        assert write_fasta(tmp_path / "w.fa", iter(seqs), start_id=98) == 10
        assert (tmp_path / "w.fa").read_bytes() == self.old_fasta(seqs, 98)
        for rows in (quals, [q.tolist() for q in quals],
                     (q.astype(np.uint8) for q in quals)):
            assert write_quality(tmp_path / "w.qual", rows, start_id=98) == 10
            assert (tmp_path / "w.qual").read_bytes() == self.old_quality(
                quals, 98
            )

    def test_no_records(self, tmp_path):
        assert write_fasta(tmp_path / "w.fa", []) == 0
        assert (tmp_path / "w.fa").read_bytes() == b""

    @pytest.mark.parametrize("score", [-1, 256])
    def test_unreadable_scores_are_not_written(self, tmp_path, score):
        with pytest.raises(ValueError, match="outside 0-255"):
            write_quality(tmp_path / "w.qual", [[40, score]])
