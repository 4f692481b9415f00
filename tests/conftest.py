"""The suite runs numpy on one BLAS thread, as every dualcount command does:
the setting is made here, before any test module imports numpy."""

from dualcount import cli

cli.use_one_blas_thread()
