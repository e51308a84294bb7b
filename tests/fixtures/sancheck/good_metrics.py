"""Known-good metrics-conservation fixtures.

Three balanced shapes: an inline unwind (``install_table``), a declared
deferral whose caller balances through a ``@releases_refs`` helper
(``install_many`` / ``build_tables``), and the helper itself.
"""

from repro.sancheck.annotations import counters_deferred, releases_refs


def install_table(kernel, table):
    kernel.register_table(table)
    try:
        kernel.failpoints.hit("fixture.install_table")
    except Exception:
        kernel.unregister_table([table])
        raise
    return table


@counters_deferred("table", reason="build_tables unwinds via abort_build")
def install_many(kernel, tables):
    for table in tables:
        kernel.register_table(table)
        kernel.failpoints.hit("fixture.install_many")


def build_tables(kernel, tables):
    try:
        install_many(kernel, tables)
    except Exception:
        abort_build(kernel, tables)
        raise


@releases_refs("table")
def abort_build(kernel, tables):
    kernel.unregister_table(tables)
