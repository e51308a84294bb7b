"""Known-bad metrics-conservation fixture.

``install_table`` registers a table and then hits a fallible step: the
injected OOM leaves the function with the table in the registry and
installed nowhere, so the audit finds a registered but unreachable
table frame.  The checker must flag the exception exit.
"""


def install_table(kernel, table):
    kernel.register_table(table)
    kernel.failpoints.hit("fixture.install_table")
    return table
