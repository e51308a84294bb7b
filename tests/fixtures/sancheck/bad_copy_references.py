"""Known-bad table-copy fixture.

``copy_table`` takes a new table's references (page, mapping and slot)
with ``copy_references``, then crosses a fallible operation before the
PMD entry that hands them to the table is installed.  On the raise path
the references leak — the refcount rule must flag the exception exit.
"""


def copy_table(kernel, leaf, pmd, index):
    copy_references(kernel, leaf.entries)
    kernel.failpoints.hit("fixture.copy_table")
    pmd.set(index, leaf.pfn)
