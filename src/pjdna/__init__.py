"""pjdna: tile-partitioned, jump-rotating DNA storage codec.

Digital files become libraries of constraint-satisfying nucleotide strands,
one independent tile per strand, so strand loss degrades the decoded file
locally instead of killing it.  The package also ships a seeded channel
simulator (dropout, substitutions, indels, read replication, consensus),
gap repair by harmonic fill, SSIM scoring, loss-rate sweeps against an
all-or-nothing baseline, and IDX dataset degradation for classifier studies.
"""

__version__ = "0.1.0"

from . import errors
from .channel import ChannelProfile, ReadSet, consensus, corrupt_reads, drop_strands, preset, vote
from .idx import degrade_dataset, read_idx_images, read_idx_labels, write_idx_images, write_idx_labels
from .images import read_pbm, read_pgm, write_pbm, write_pgm
from .inpaint import inpaint
from .jr import JrConfig, max_homopolymer_run
from .metrics import OutcomeTally, SsimReference, em_ssim, ssim, tally_outcomes
from .partition import (
    RecoveredImage,
    TileManifest,
    decode_image,
    decode_raw,
    encode_image,
    encode_raw,
)
from .seqio import read_sequences, write_fasta, write_fastq
from .strand import Strand, StrandLayout, StrandSet, assemble_strand, parse_strand
from .sweep import SweepResult, SweepRow, loss_sweep

__all__ = [
    "__version__",
    "errors",
    "JrConfig",
    "max_homopolymer_run",
    "Strand",
    "StrandLayout",
    "StrandSet",
    "assemble_strand",
    "parse_strand",
    "read_sequences",
    "write_fasta",
    "write_fastq",
    "TileManifest",
    "RecoveredImage",
    "encode_image",
    "decode_image",
    "encode_raw",
    "decode_raw",
    "read_pgm",
    "write_pgm",
    "read_pbm",
    "write_pbm",
    "ChannelProfile",
    "ReadSet",
    "preset",
    "drop_strands",
    "corrupt_reads",
    "vote",
    "consensus",
    "SsimReference",
    "ssim",
    "em_ssim",
    "OutcomeTally",
    "tally_outcomes",
    "inpaint",
    "SweepRow",
    "SweepResult",
    "loss_sweep",
    "degrade_dataset",
    "read_idx_images",
    "write_idx_images",
    "read_idx_labels",
    "write_idx_labels",
]
