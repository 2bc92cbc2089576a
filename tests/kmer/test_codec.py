"""Unit and property tests for the 2-bit codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kmer.codec import (
    INVALID_CODE,
    MAX_K,
    WindowLadder,
    block_window_ids,
    canonical_id,
    decode_kmer,
    decode_sequence,
    encode_sequence,
    is_valid_sequence,
    pad_rows,
    reverse_complement_id,
    window_ids,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=80)


class TestEncodeSequence:
    def test_basic_mapping(self):
        assert encode_sequence("ACGT").tolist() == [0, 1, 2, 3]

    def test_lowercase_accepted(self):
        assert encode_sequence("acgt").tolist() == [0, 1, 2, 3]

    def test_ambiguous_marked_invalid(self):
        codes = encode_sequence("ANRT")
        assert codes[0] == 0
        assert codes[1] == INVALID_CODE
        assert codes[2] == INVALID_CODE
        assert codes[3] == 3

    def test_bytes_input(self):
        assert encode_sequence(b"ACGT").tolist() == [0, 1, 2, 3]

    def test_uint8_array_input(self):
        raw = np.frombuffer(b"GATT", dtype=np.uint8)
        assert encode_sequence(raw).tolist() == [2, 0, 3, 3]

    def test_empty(self):
        assert encode_sequence("").shape == (0,)

    def test_is_valid_sequence(self):
        assert is_valid_sequence("ACGTacgt")
        assert not is_valid_sequence("ACGNT")


class TestWindowIds:
    def test_known_value(self):
        ids, valid = window_ids(encode_sequence("ACGT"), 2)
        # AC=0b0001=1, CG=0b0110=6, GT=0b1011=11
        assert ids.tolist() == [1, 6, 11]
        assert valid.all()

    def test_window_longer_than_input(self):
        ids, valid = window_ids(encode_sequence("AC"), 3)
        assert ids.shape == (0,)
        assert valid.shape == (0,)

    def test_invalid_base_invalidates_touching_windows(self):
        _, valid = window_ids(encode_sequence("ACGNACG"), 3)
        assert valid.tolist() == [True, False, False, False, True]

    def test_rejects_bad_window_length(self):
        with pytest.raises(CodecError):
            window_ids(encode_sequence("ACGT"), 0)
        with pytest.raises(CodecError):
            window_ids(encode_sequence("ACGT"), MAX_K + 1)

    @given(dna, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60)
    def test_roundtrip_against_decode(self, seq, k):
        if len(seq) < k:
            return
        ids, valid = window_ids(encode_sequence(seq), k)
        assert valid.all()
        for i, kid in enumerate(ids):
            assert decode_kmer(int(kid), k) == seq[i : i + k]


class TestDecodeKmer:
    def test_known(self):
        assert decode_kmer(0b0001, 2) == "AC"

    def test_out_of_range(self):
        with pytest.raises(CodecError):
            decode_kmer(1 << 8, 3)
        with pytest.raises(CodecError):
            decode_kmer(-1, 3)

    def test_max_k_roundtrip(self):
        seq = "ACGT" * 8  # 32 bases
        ids, _ = window_ids(encode_sequence(seq), 32)
        assert decode_kmer(int(ids[0]), 32) == seq


class TestReverseComplement:
    def test_known(self):
        ids, _ = window_ids(encode_sequence("ACG"), 3)
        assert decode_kmer(reverse_complement_id(int(ids[0]), 3), 3) == "CGT"

    @given(dna.filter(lambda s: len(s) >= 5), st.integers(2, 10))
    @settings(max_examples=50)
    def test_involution(self, seq, k):
        if len(seq) < k:
            return
        ids, _ = window_ids(encode_sequence(seq), k)
        kid = int(ids[0])
        assert reverse_complement_id(reverse_complement_id(kid, k), k) == kid

    def test_array_input(self):
        ids, _ = window_ids(encode_sequence("ACGTACG"), 3)
        rc = reverse_complement_id(ids, 3)
        assert isinstance(rc, np.ndarray)
        back = reverse_complement_id(rc, 3)
        assert np.array_equal(back, ids)

    def test_palindrome(self):
        # ACGT is its own reverse complement.
        ids, _ = window_ids(encode_sequence("ACGT"), 4)
        assert reverse_complement_id(int(ids[0]), 4) == int(ids[0])

    @pytest.mark.parametrize("w", range(1, MAX_K + 1))
    def test_matches_string_reverse_complement(self, w):
        rng = np.random.default_rng(w)
        ids = rng.integers(0, 1 << (2 * w), 64, dtype=np.uint64)
        rc = reverse_complement_id(ids, w)
        assert rc.dtype == np.uint64
        complement = str.maketrans("ACGT", "TGCA")
        for kid, back in zip(ids.tolist(), rc.tolist()):
            expected = decode_kmer(kid, w)[::-1].translate(complement)
            assert decode_kmer(back, w) == expected
        assert reverse_complement_id(ids[0], w) == rc[0]
        assert isinstance(reverse_complement_id(int(ids[0]), w), int)
        if 2 * w <= 32:
            narrow = reverse_complement_id(ids.astype(np.uint32), w)
            assert narrow.dtype == np.uint32
            assert np.array_equal(narrow, rc)

    @pytest.mark.parametrize("w", range(2, MAX_K + 1, 2))
    def test_palindromes_are_fixed_points(self, w):
        rng = np.random.default_rng(w)
        complement = str.maketrans("ACGT", "TGCA")
        for _ in range(8):
            half = "".join(rng.choice(list("ACGT"), w // 2))
            seq = half + half[::-1].translate(complement)
            kid = int(window_ids(encode_sequence(seq), w)[0][0])
            assert reverse_complement_id(kid, w) == kid


class TestCanonical:
    def test_scalar_symmetric(self):
        ids, _ = window_ids(encode_sequence("ACG"), 3)
        kid = int(ids[0])
        rc = reverse_complement_id(kid, 3)
        assert canonical_id(kid, 3) == canonical_id(rc, 3) == min(kid, rc)

    def test_array(self):
        ids, _ = window_ids(encode_sequence("ACGTACGT"), 4)
        canon = canonical_id(ids, 4)
        rc = reverse_complement_id(ids, 4)
        assert np.array_equal(canon, np.minimum(ids, rc))


class TestDecodeSequence:
    def test_roundtrip_with_invalid(self):
        codes = encode_sequence("ACGNT")
        assert decode_sequence(codes) == "ACGNT"


class TestPadRows:
    @pytest.mark.parametrize("lengths", [[3, 0, 2], [3, 3, 3], [0, 0], []])
    def test_rows_back_to_back_come_back_padded(self, lengths):
        lengths = np.array(lengths, dtype=np.int32)
        flat = np.arange(1, lengths.sum() + 1, dtype=np.uint8)
        rows = pad_rows(flat, lengths, 9)
        width = int(lengths.max()) if len(lengths) else 0
        assert rows.shape == (len(lengths), width)
        assert rows.dtype == np.uint8
        at = 0
        for row, n in zip(rows.tolist(), lengths.tolist()):
            assert row == flat[at : at + n].tolist() + [9] * (width - n)
            at += n
        # Reads of one length reshape, but never hand back the input.
        assert not np.shares_memory(rows, flat)

    @pytest.mark.parametrize("lengths", [[3, 3], [3, 1]])
    def test_a_wrong_total_is_an_error(self, lengths):
        with pytest.raises(ValueError):
            pad_rows(np.zeros(5, dtype=np.uint8),
                     np.array(lengths, dtype=np.int32), 0)


class TestBlockWindowIds:
    def test_matches_per_row_extraction(self):
        seqs = ["ACGTACGTAA", "TTGCATGCAT", "ACGTNCGTAC"]
        codes = np.stack([encode_sequence(s) for s in seqs])
        lengths = np.array([10, 10, 10])
        ids, valid = block_window_ids(codes, lengths, 4, step=2)
        for r, s in enumerate(seqs):
            row_ids, row_valid = window_ids(encode_sequence(s), 4)
            assert np.array_equal(ids[r], row_ids[::2])
            assert np.array_equal(valid[r], row_valid[::2])

    def test_length_mask(self):
        codes = np.full((2, 10), INVALID_CODE, dtype=np.uint8)
        codes[0, :10] = encode_sequence("ACGTACGTAC")
        codes[1, :6] = encode_sequence("ACGTAC")
        ids, valid = block_window_ids(codes, np.array([10, 6]), 4)
        assert valid[0].all()
        # Second read: only starts 0..2 fit in 6 bases.
        assert valid[1].tolist() == [True, True, True, False, False, False, False]

    def test_too_narrow_block(self):
        codes = np.zeros((3, 2), dtype=np.uint8)
        ids, valid = block_window_ids(codes, np.array([2, 2, 2]), 4)
        assert ids.shape == (3, 0)

    def test_bad_step(self):
        codes = np.zeros((1, 8), dtype=np.uint8)
        with pytest.raises(CodecError):
            block_window_ids(codes, np.array([8]), 4, step=0)

    @given(
        st.lists(st.text(alphabet="ACGTN", min_size=8, max_size=20),
                 min_size=1, max_size=6),
        st.integers(2, 6),
        st.integers(1, 3),
    )
    @settings(max_examples=40)
    def test_property_matches_serial(self, seqs, w, step):
        width = max(len(s) for s in seqs)
        codes = np.full((len(seqs), width), INVALID_CODE, dtype=np.uint8)
        for i, s in enumerate(seqs):
            codes[i, : len(s)] = encode_sequence(s)
        lengths = np.array([len(s) for s in seqs])
        ids, valid = block_window_ids(codes, lengths, w, step=step)
        for r, s in enumerate(seqs):
            sid, sval = window_ids(encode_sequence(s), w)
            sid, sval = sid[::step], sval[::step]
            n = sid.shape[0]
            assert np.array_equal(ids[r, :n][sval], sid[sval])
            assert np.array_equal(valid[r, :n], sval)
            assert not valid[r, n:].any()


class TestWindowLadder:
    """The ladder against the per-read reference :func:`window_ids`."""

    @staticmethod
    def _block(rng, n, width):
        lengths = rng.integers(0, width + 1, n)
        codes = rng.integers(0, 4, (n, width), dtype=np.uint8)
        codes[rng.random((n, width)) < 0.03] = INVALID_CODE
        codes[np.arange(width)[None, :] >= lengths[:, None]] = INVALID_CODE
        return codes, lengths

    @pytest.mark.parametrize("w", range(1, MAX_K + 1))
    def test_matches_per_read_reference(self, w):
        rng = np.random.default_rng(w)
        codes, lengths = self._block(rng, 12, 80)
        ladder = WindowLadder(codes, lengths)
        # Step 1, a tile's k - overlap (w = 2k - 4), and the window itself.
        for step in sorted({1, max(1, (w - 4) // 2), w}):
            ids, valid = ladder.windows(w, step)
            assert ids.dtype == (np.uint32 if 2 * w <= 32 else np.uint64)
            assert ids.shape == valid.shape == (12, len(range(0, 80 - w + 1, step)))
            for r in range(12):
                ref, ref_valid = window_ids(codes[r, : lengths[r]], w)
                ref, ref_valid = ref[::step], ref_valid[::step]
                m = ref.shape[0]
                assert np.array_equal(valid[r, :m], ref_valid)
                assert not valid[r, m:].any()
                assert np.array_equal(ids[r, :m][ref_valid], ref[ref_valid])

    def test_clean_block_matches_the_reference_everywhere(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, (5, 40), dtype=np.uint8)
        ladder = WindowLadder(codes, np.full(5, 40))
        ids, valid = ladder.windows(12)
        assert valid.all()
        ref, ref_valid = block_window_ids(codes, np.full(5, 40), 12)
        assert np.array_equal(ids, ref) and ref_valid.all()

    def test_narrower_than_the_window(self):
        codes = np.zeros((3, 5), dtype=np.uint8)
        ids, valid = WindowLadder(codes, np.full(3, 5)).windows(6)
        assert ids.shape == valid.shape == (3, 0)
        assert ids.dtype == np.uint32

    def test_zero_reads(self):
        ladder = WindowLadder(np.empty((0, 30), np.uint8), np.empty(0))
        for w, step in ((12, 1), (20, 8)):
            ids, valid = ladder.windows(w, step)
            assert ids.shape == valid.shape == (0, len(range(0, 31 - w, step)))

    def test_bad_arguments(self):
        ladder = WindowLadder(np.zeros((1, 8), np.uint8), np.array([8]))
        with pytest.raises(CodecError):
            ladder.windows(4, step=0)
        with pytest.raises(CodecError):
            ladder.windows(MAX_K + 1)
        with pytest.raises(CodecError):
            WindowLadder(np.zeros(8, np.uint8), np.array([8]))
