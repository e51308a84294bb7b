"""Known-good twin of ``bad_sharers.py``.

The fallible step sits in a ``try`` whose handler leaves the sharer list
through ``drop_table_sharer`` before re-raising, so no exit keeps the
child counted.
"""

from repro.kernel.tableops import drop_table_sharer


def share_table(kernel, table, child_mm):
    table.sharers.append(child_mm)
    try:
        kernel.failpoints.hit("fixture.share_table")
    except Exception:
        drop_table_sharer(table, child_mm)
        raise
    return table
