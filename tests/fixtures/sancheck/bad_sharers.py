"""Known-bad metrics-conservation fixture for a table's sharer list.

``share_table`` appends the child to a leaf table's own sharer list and
then hits a fallible step with no unwind: the injected OOM leaves the
child counted as a sharer of a table it never mapped, so the audit finds
a sharer list longer than the mms referencing the table.  The checker
must flag the exception exit.
"""


def share_table(kernel, table, child_mm):
    table.sharers.append(child_mm)
    kernel.failpoints.hit("fixture.share_table")
    return table
