"""File formats and parallel partitioned reading (Step I of the paper).

Reptile's inputs are a fasta file of reads whose names are ascending sequence
numbers, plus a parallel "quality file" with per-base scores for the same
sequence numbers (the paper notes Reptile does not read fastq; a converter is
provided).  Each rank reads only its byte range of both files, aligned to
record boundaries, exactly as Step I describes.
"""

from repro.io.records import ReadBlock
from repro.io.fasta import read_fasta, write_fasta, read_fasta_range
from repro.io.quality import read_quality, write_quality, read_quality_range
from repro.io.fastq import read_fastq, write_fastq, fastq_to_fasta_qual
from repro.io.partition import (
    byte_partition,
    align_to_record,
    partition_fasta,
    load_rank_block,
    write_block,
)

__all__ = [
    "ReadBlock",
    "read_fasta",
    "write_fasta",
    "read_fasta_range",
    "read_quality",
    "write_quality",
    "read_quality_range",
    "read_fastq",
    "write_fastq",
    "fastq_to_fasta_qual",
    "byte_partition",
    "align_to_record",
    "partition_fasta",
    "load_rank_block",
    "write_block",
]
