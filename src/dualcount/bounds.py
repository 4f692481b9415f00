"""Size bounds that the command line checks before it loads the layer they bound.

They live here, not in `series` or `lattice`, so a command that never
expands a series or counts a Weyl orbit still checks its sizes without
loading either module; `rootdata` reads MAX_RANK from here too.
"""

# Largest truncation order that genfun --order may ask for.  The built-in
# series expand in about linear time: the costliest, Dhat:48 SO_odd, takes
# about 0.04 ms per order on a 2-CPU machine, 0.76 s at this bound and about
# 1 s for the whole genfun command.
MAX_ORDER = 20_000

# Largest rank rootdata.cartan_data accepts.  Kac data take about rank**3
# steps: 0.5 s for A, B, C and D together at this bound on a 2-CPU machine,
# and a sweep builds every rank up to its own: `verify zn-lattice --max-rank
# 100 --max-n 2` takes 11 s there.
MAX_RANK = 100
