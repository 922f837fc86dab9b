"""The one error type of the toolkit."""


class LexaliError(Exception):
    """An input, option or output lexali cannot use; the message says which.

    Raised for a line file that cannot be read, decoded or written, files
    whose line counts disagree, or a corpus line that is empty or holds a
    reserved token; a merge file that is not a merge table, or a segmented
    sequence that cannot be rejoined; alignment or lexicon data that is
    inconsistent (lengths, link ranges, repeated links); a marker that occurs
    more than once in a decoded output; an unusable option value; a file a
    command would both read and write; an output directory that cannot be created, or whose LOCK is held by
    another run or cannot be written; and a pipeline stage that failed, named
    in the message. Where the fault lies in a file, the message begins with
    the file and, for a line, ``path:line:``. The command line front end
    prints the message as one ``error:`` line on stderr and exits 1.
    """
