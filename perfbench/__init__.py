"""perfbench: a host-time benchmark of the simulator itself.

The simulator is deterministic, so simulated statistics must repeat
exactly (every report and recording is digest-checked) and *host time*
is the thing measured.  Six workloads, each in its own child processes,
each repetition bracketed by a fixed calibration kernel so a host-wide
slowdown cancels out of the headline ``wall_rel`` ratio.  Layers are
timed from outside, around calls to their public functions; nothing
under ``src/`` knows this package exists.

See ``perfbench/README.md`` for the metric and workload tables.
"""
