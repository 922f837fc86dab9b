"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from LexaliError so the command line
front end can turn any of them into a clean nonzero exit.
"""


class LexaliError(Exception):
    """Base class for all toolkit errors."""


class CorpusFormatError(LexaliError):
    """A line file that cannot be read, decoded or written, files whose
    line counts disagree, or a corpus line that is empty or holds a
    reserved token."""


class SegmentationError(LexaliError):
    """A merge file that cannot be read as a merge table, or a segmented
    sequence that cannot be rejoined."""


class AlignmentError(LexaliError):
    """Structurally inconsistent alignment data (lengths, link ranges)."""


class MarkerError(LexaliError):
    """Ambiguous marker structure in decoded output."""


class ScoringError(LexaliError):
    """Invalid scoring input: empty candidate pool or mismatched corpora."""


class ConfigError(LexaliError):
    """Unusable configuration file or option value."""


class PipelineError(LexaliError):
    """A pipeline stage failed, and the message names the stage; or the
    LOCK of an output directory is held by another run or cannot be
    written."""
