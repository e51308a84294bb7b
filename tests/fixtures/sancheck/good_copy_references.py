"""Known-good twin of ``bad_copy_references.py``: the raise path
releases the copied references with ``drop_references`` before it
leaves the function.
"""


def copy_table(kernel, leaf, pmd, index):
    copy_references(kernel, leaf.entries)
    try:
        kernel.failpoints.hit("fixture.copy_table")
    except Exception:
        drop_references(kernel, leaf.entries)
        raise
    pmd.set(index, leaf.pfn)
